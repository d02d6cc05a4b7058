"""Output pins: sha256 digests of qtrin's printed results.

Six digests, each pinned to the value computed before the code it covers
was last reworked; a rework must leave every byte as it is.  ``report`` and
``sides`` were re-pinned once, for one key alone: when the depth-0 character
identities became the series families at k = 0, ``E7conj-s0`` and
``E7conj-s1`` took the grid key ``sigma`` in place of ``point``.  With that
key mapped back (grid ``{"point": [0]}``, params ``{'point': 0}``) both
digests equal the earlier pins, f96f90b8... and 172d0a94....

- ``report``: the full-level JSON report with every ``millis`` set to 0
  (pass/fail and point counts of all 41 identities).
- ``sides``: both printed sides at every point of every series identity's
  full-level grid, at its registry order (every term and every O(q^...)).
- ``deep``: printed series well above the registry orders: the fermionic
  character sums at order 40, the string functions at 54, two branching
  functions at 42, abp at 40, the fam/X identities and limit-mTlim at 20.
- ``chars``: the Virasoro characters of every label of the nine
  ``CHAR_MODELS`` at order 130, and the partition series ``euler_inverse``
  at orders 600 and 241/20.
- ``mn``: the lines ``qtrin mn-solve`` prints for every vertex of all five
  algebras at N <= 10, each without a filter and with a ``--parity`` form,
  and for E8 at vertex 1 and N = 26..29.
- ``mn-filters``: the lines ``qtrin mn-solve`` prints for every vertex of A5
  and E6 at N <= 12 under the mod-3 form n1-n2+n4-n5, alone and with the
  parity form n1+n3+n5 or n1+n3+n5+1.

Standard library only.  Run ``PYTHONPATH=src python tests/pins.py`` from the
repository root: it prints each digest and exits nonzero on a mismatch.
tests/test_verify.py imports the same functions and pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from fractions import Fraction
from itertools import product

from qtrin import bosonic, cli, fermionic, qpoly, verify
from qtrin.liealg import algebra

PINS = {
    "report": "195dfee7cdbbf42bf2d444c8ae961cb9ce5e40d50c29efc023cf97f4c62b4af0",
    "sides": "8ef772dc54cc1bbb2c5191ffc0fc95681bf0765614f6036f8490b057f222e6e0",
    "deep": "5341de100d6ce82259609284ad3a02cabc5da365c7ded9b61b052a9264df53fe",
    "chars": "1ad7ed17400e57a7eddcd9c1e02164902a416c82f9a469c400d6bc3e1ce37fea",
    "mn": "568433708db48d0655512e42d7a029b6dd347e30383b30b326a3b74f4d2b09f6",
    "mn-filters": "dbf3e5f86231572f046d15e85aec41dd42b238d6bbaf30596533b9d507dc7d41",
}

# The minimal models (p, p') that ``compute chi`` requests draw from.
CHAR_MODELS = ((3, 4), (4, 5), (2, 5), (3, 5), (5, 6), (2, 7), (3, 7), (4, 7), (5, 7))


def char_labels():
    """(p, p', r, s) for every label 1 <= r < p, 1 <= s < p' of the
    ``CHAR_MODELS``: 110 labels."""
    for p, pp in CHAR_MODELS:
        for r in range(1, p):
            for s in range(1, pp):
                yield p, pp, r, s


def report_digest() -> str:
    reports = verify.verify_all(level="full")
    for r in reports:
        r.millis = 0
    return hashlib.sha256(verify.reports_to_json(reports).encode()).hexdigest()


def _grid_sides(names, order=None):
    """(name, params, lhs, rhs) at every full-grid point of ``names``, at
    ``order`` or each identity's registry order."""
    for name in names:
        d = verify.REGISTRY[name]
        for values in product(*d.grid.values()):
            params = dict(zip(d.grid, values))
            if d.point_filter is None or d.point_filter(params):
                yield (name, params,
                       *d.evaluate(params, Fraction(order or d.order)))


def sides_digest() -> tuple[str, int]:
    """The series-sides digest and the number of points it covers."""
    h = hashlib.sha256()
    points = 0
    names = sorted(n for n, d in verify.REGISTRY.items() if d.kind == "series-truncated")
    for name, params, lhs, rhs in _grid_sides(names):
        h.update(f"{name} {params} {lhs} | {rhs}\n".encode())
        points += 1
    return h.hexdigest(), points


def deep_digest() -> str:
    h = hashlib.sha256()
    for family in fermionic.CHAR_FAMILIES:
        for sigma in (0, 1):
            h.update(f"{family} {sigma} {fermionic.fermionic_char_sum(family, 40, sigma)}\n".encode())
    for sigma in (0, 1):
        h.update(f"c{sigma} {bosonic.string_function(sigma, 54)}\n".encode())
    for p, pp in ((3, 5), (4, 6)):
        for sigma in (0, 1):
            h.update(f"B{p}{pp} {sigma} {bosonic.branching_function(p, pp, 1, 1, sigma, 42)}\n".encode())
    for order, names in ((40, ["abp"]),
                         (20, sorted(n for n in verify.REGISTRY
                                     if n.startswith(("fam", "X")) or n == "limit-mTlim"))):
        for name, params, lhs, rhs in _grid_sides(names, order):
            h.update(f"{name} {params} {lhs} | {rhs}\n".encode())
    return h.hexdigest()


def chars_digest() -> str:
    h = hashlib.sha256()
    for p, pp, r, s in char_labels():
        h.update(f"chi {p} {pp} {r} {s} {bosonic.virasoro_char(p, pp, r, s, 130)}\n".encode())
    for order in (600, Fraction(241, 20)):
        h.update(f"euler {order} {qpoly.euler_inverse(order)}\n".encode())
    return h.hexdigest()


def mn_requests():
    """The ``mn-solve`` argv lists of the ``mn`` digest: for every algebra,
    vertex and N <= 10, one without a filter and one with the parity form
    n1+n3+n_rank (+1 at odd N); then E8 at vertex 1 and N = 26..29."""
    for name in ("A5", "D6", "E6", "E7", "E8"):
        rank = algebra(name).rank
        for i in range(1, rank + 1):
            for N in range(11):
                yield ["mn-solve", name, str(N), str(i)]
                yield ["mn-solve", name, str(N), str(i),
                       "--parity", f"n1+n3+n{rank}" + "+1" * (N % 2)]
    for N in range(26, 30):
        yield ["mn-solve", "E8", str(N), "1"]


def mn_filter_requests():
    """The ``mn-solve`` argv lists of the ``mn-filters`` digest: for every
    vertex of A5 and E6 and N <= 12, the mod-3 form alone and with each
    parity form n1+n3+n5 and n1+n3+n5+1."""
    for name in ("A5", "E6"):
        for i in range(1, algebra(name).rank + 1):
            for N in range(13):
                base = ["mn-solve", name, str(N), str(i), "--mod3", "n1-n2+n4-n5"]
                yield base
                for parity in ("n1+n3+n5", "n1+n3+n5+1"):
                    yield base + ["--parity", parity]


def _cli_digest(requests) -> str:
    h = hashlib.sha256()
    for argv in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        h.update(f"{' '.join(argv)} {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def mn_digest() -> str:
    return _cli_digest(mn_requests())


def mn_filters_digest() -> str:
    return _cli_digest(mn_filter_requests())


def main() -> int:
    got = {"report": report_digest(), "sides": sides_digest()[0], "deep": deep_digest(),
           "chars": chars_digest(), "mn": mn_digest(), "mn-filters": mn_filters_digest()}
    bad = 0
    for name, digest in got.items():
        ok = digest == PINS[name]
        bad += not ok
        print(f"{sys.version.split()[0]} {name} {digest} {'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
