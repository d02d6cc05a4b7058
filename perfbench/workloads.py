"""The three workloads: their requests, how one request runs, and its check.

Every operation is a ``qtrin.cli.run(argv)`` call made in-process with
stdout and stderr captured, from cleared caches.  A workload is a fixed
list of requests (one *round*); a run repeats whole rounds.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

# Deep orders for the series identities: 2-5x the registry order, chosen so
# the cone enumerations, Pochhammer products and inversions dominate, and so
# that the whole pass stays near ten seconds on a 2-core CPython 3.11 box.
SERIES_DEEP_ORDERS = {
    "abp": 40,
    "E8": 60, "E7conj-s0": 60, "E7conj-s1": 60, "E6": 50,
    "B35-eq-chi45": 60, "B46-simplification-s0": 60, "B46-simplification-s1": 60,
    "D6-B46-fermionic": 40, "A5-B68-fermionic": 36,
    "fam1-k1": 20, "fam1-k2": 20, "fam2-k1": 20, "fam2-k2": 20, "fam3-k1": 20, "fam3-k2": 20,
    "X-k2": 20, "X-k3": 20, "X2-k2": 20, "X2-k3": 20, "X3-k2": 20, "X3-k3": 20,
}

# Requests that fail on every run: `string_function` raises
# NonUnitConstantTerm out of `cli.run` at order <= 0.
FAULT_REQUESTS = (("compute", "c", "0", "--order", "0"),
                  ("compute", "c", "1", "--order", "0"))
# Invalid input that must be refused with exit 2 and an error line.
USAGE_REQUESTS = (("compute", "chi", "2", "4", "1", "1"),
                  ("mn-solve", "E7", "4", "9"))

MN_BOX_LIMIT = 6000  # brute-force (m,n) completeness check up to this box size


@dataclass
class Request:
    argv: tuple[str, ...]
    kind: str
    weight: int = 1   # operations this request stands for
    expect_names: tuple[str, ...] = ()  # verify requests: identities reported


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    seconds: float
    exc: str | None = None

    @property
    def failed(self) -> bool:
        """Raised out of cli.run, or an exit code with no meaning here."""
        if self.exc is not None:
            return True
        if self.rc == 2:
            return not one_line_error(self.err)
        return self.rc not in (0, 1)


def one_line_error(err: str) -> bool:
    return "Traceback" not in err and any(
        line.startswith("error: ") or ": error: " in line for line in err.splitlines())


# --------------------------------------------------------------------
# Caches
# --------------------------------------------------------------------


def find_caches() -> dict[str, object]:
    """Every functools cache bound anywhere in the qtrin modules, by
    module.qualname; found by scanning, so a cache added later is covered."""
    found: dict[int, tuple[str, object]] = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "qtrin" and not modname.startswith("qtrin."):
            continue
        for obj in vars(mod).values():
            while hasattr(obj, "__wrapped__") and not hasattr(obj, "cache_clear"):
                obj = obj.__wrapped__
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                found[id(obj)] = (f"{obj.__module__}.{obj.__qualname__}", obj)
    return dict(found.values())


def clear_caches(caches: dict[str, object], stats: dict[str, list[int]]) -> None:
    """Add each cache's hits and misses to ``stats``, then empty it."""
    for name, fn in caches.items():
        info = fn.cache_info()
        acc = stats.setdefault(name, [0, 0])
        acc[0] += info.hits
        acc[1] += info.misses
        fn.cache_clear()
        if fn.cache_info().currsize != 0:
            raise RuntimeError(f"cache {name} did not clear")


# --------------------------------------------------------------------
# Running requests
# --------------------------------------------------------------------


def run_request(cli, req: Request, paused: Callable[[], float] = lambda: 0.0) -> Outcome:
    """Run one request; ``paused()`` is the benchmark's own time so far,
    which is left out of the request's time (see pace.Sampler)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        p0 = paused()
        t0 = time.perf_counter()
        try:
            rc = cli.run(list(req.argv))
        except Exception as e:  # a request that raises is a failed operation
            exc = type(e).__name__
        seconds = time.perf_counter() - t0 - (paused() - p0)
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, exc)


# --------------------------------------------------------------------
# Workload definitions
# --------------------------------------------------------------------


def suite_full(seed: int, smoke: bool = False) -> list[Request]:
    from qtrin.verify import REGISTRY
    level = "quick" if smoke else "full"
    return [Request(("verify", "all", "--level", level, "--json", "-"), "verify-all",
                    weight=len(REGISTRY), expect_names=tuple(sorted(REGISTRY)))]


def series_deep(seed: int, smoke: bool = False) -> list[Request]:
    from qtrin.verify import REGISTRY
    reqs = []
    for name, order in SERIES_DEEP_ORDERS.items():
        if smoke:
            order = REGISTRY[name].order
        reqs.append(Request(("verify", name, "--level", "full", "--order", str(order),
                             "--json", "-"), "verify", expect_names=(name,)))
    return reqs


# compute-mix: kind -> (requests per round, draw).  Counts are fixed, each
# kind's size band is split into one stratum per request, and each stratum
# gets its middle size and the same option (algebra, model, family; for
# mn-solve also the node) for every seed, so every seed gives the same shape
# of mix.  The seed draws the remaining arguments and the order of the round.
# Drawing the option by seed made a round's time swing by a sixth between
# seeds (`mn-solve E8 8 5` takes 0.9 s, `E8 8 7` 0.01 s), and drawing the
# point inside each stratum moved the median latency by a tenth.

_CHI_MODELS = ((3, 4), (4, 5), (2, 5), (3, 5), (5, 6), (2, 7), (3, 7), (4, 7), (5, 7))
_POLY_NAMES = ("conj1", "conj2", "conj3")
_KSERIES = ("flower", "flower2", "monster")


class Draw:
    """Seeded argument source for request ``i`` of ``count`` of one kind."""

    def __init__(self, rng: random.Random, i: int, count: int, smoke: bool):
        self.rng, self.i, self.count, self.smoke = rng, i, count, smoke

    def size(self, lo: int, hi: int, small: int) -> int:
        """The middle of stratum i of [lo, hi]; from [small, small + 2] when
        smoke."""
        if self.smoke:
            return self.rng.randint(small, small + 2)
        width = hi - lo + 1
        return lo + math.floor(width * (self.i + 0.5) / self.count)

    def cycle(self, options: tuple):
        """Each option equally often across the kind's requests."""
        return options[self.i % len(options)]


def _qbin(lo, hi):
    def draw(d: Draw):
        n = d.size(lo, hi, 8)
        return ("compute", "qbin", str(n), str(n // 2 + d.rng.randint(-1, 1)))
    return draw


def _trinomial(what, lo, hi):
    def draw(d: Draw):
        return ("compute", what, str(d.size(lo, hi, 5)), str(d.rng.randint(0, 4)))
    return draw


def _rT(lo, hi):
    def draw(d: Draw):
        L = d.size(lo, hi, 3)
        M = max(0, L + d.rng.randint(-1, 1))
        return ("compute", "rT", str(L), str(M), str(d.rng.randint(-2, 2)), str(d.rng.randint(-2, 2)))
    return draw


def _draw_F(d: Draw):
    return ("compute", "F", d.cycle(("A5", "D6", "E7")), str(d.size(4, 5, 1)),
            str(d.rng.randint(0, 1)))


def _draw_side(d: Draw):
    side = ("lhs", "rhs")[d.i % 2]
    if d.i % 4 < 2:
        L = d.size(5, 7, 1)
        return ("compute", side, d.cycle(_POLY_NAMES), "--L", str(L),
                "--M", str(max(0, L + d.rng.randint(-1, 1))))
    L = d.size(3, 4, 1)
    return ("compute", side, d.cycle(_KSERIES), "--k", str(d.rng.randint(1, 2)),
            "--L", str(L), "--M", str(max(0, L + d.rng.randint(-1, 0))))


def _draw_ferm(d: Draw):
    fam = d.cycle(("E8", "E7", "E6"))
    argv = ("compute", "ferm", fam, "--order", str(d.size(24, 34, 6)))
    if fam == "E7":
        argv += ("--sigma", str(d.rng.randint(0, 1)))
    return argv


def _draw_mn_small(d: Draw):
    alg = d.cycle(tuple(oracles.EDGES))
    argv = ("mn-solve", alg, str(d.size(2, 8, 2)), str(1 + d.i % oracles.RANK[alg]))
    if d.i % 2:
        idx = sorted(d.rng.sample(range(1, oracles.RANK[alg] + 1), 3))
        expr = "+".join(f"n{i}" for i in idx) + ("+1" if d.rng.randint(0, 1) else "")
        argv += ("--parity", expr)
    return argv


def _mn_big(algs, lo, hi):
    def draw(d: Draw):
        return ("mn-solve", d.cycle(algs), str(d.size(lo, hi, 6)), "1")
    return draw


def _chi(lo, hi):
    def draw(d: Draw):
        p, pp = d.cycle(_CHI_MODELS)
        return ("compute", "chi", str(p), str(pp), str(d.rng.randint(1, p - 1)),
                str(d.rng.randint(1, pp - 1)), "--order", str(d.size(lo, hi, 10)))
    return draw


def _draw_B(d: Draw):
    p, pp = d.cycle(((3, 5), (4, 6)))
    return ("compute", "B", str(p), str(pp), "1", "1", str(d.rng.randint(0, 1)),
            "--order", str(d.size(34, 42, 6)))


def _string(lo, hi):
    def draw(d: Draw):
        return ("compute", "c", str(d.rng.randint(0, 1)), "--order", str(d.size(lo, hi, 6)))
    return draw


COMPUTE_MIX: dict[str, tuple[int, Callable[[Draw], tuple]]] = {
    "mn-small": (14, _draw_mn_small),
    "side": (16, _draw_side),
    "ferm": (9, _draw_ferm),
    "F": (9, _draw_F),
    "qbin": (12, _qbin(40, 62)),
    "rT": (10, _rT(9, 13)),
    "T": (6, _trinomial("T", 16, 21)),
    "trin": (5, _trinomial("trin", 16, 21)),
    "chi": (9, _chi(80, 130)),
    "c": (3, _string(25, 35)),
    "mn-big": (2, _mn_big(("E7", "E8"), 16, 20)),
    "qbin-big": (4, _qbin(72, 79)),
    "rT-big": (3, _rT(14, 16)),
    "T-big": (2, _trinomial("T", 25, 26)),
    "trin-big": (1, _trinomial("trin", 25, 25)),
    "mn-E8-big": (2, _mn_big(("E8",), 26, 29)),
    "B": (4, _draw_B),
    "c-big": (2, _string(45, 54)),
}


def compute_mix(seed: int, smoke: bool = False) -> list[Request]:
    rng = random.Random(seed)
    reqs = []
    for kind, (count, draw) in COMPUTE_MIX.items():
        for i in range(count):
            reqs.append(Request(draw(Draw(rng, i, count, smoke)), kind))
    reqs += [Request(argv, "fault") for argv in FAULT_REQUESTS]
    reqs += [Request(argv, "usage") for argv in USAGE_REQUESTS]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"suite-full": suite_full, "series-deep": series_deep, "compute-mix": compute_mix}


# --------------------------------------------------------------------
# Output checks (None when the output is right, else what is wrong)
# --------------------------------------------------------------------


def _series(text: str, order: int):
    terms, got = oracles.parse_series(text)
    if got != order:
        return None, f"printed order {got}, requested {order}"
    return terms, None


def _expect(terms: dict, want: dict, what: str) -> str | None:
    diff = sorted(e for e in set(terms) | set(want) if terms.get(e) != want.get(e))
    return f"{what}: coefficients differ first at q^{diff[0]}" if diff else None


def check_compute(req: Request, out: str, other_side: Callable[[tuple], str]) -> str | None:
    a = req.argv
    what = a[1] if a[0] == "compute" else a[0]
    if what == "qbin":
        n, k = int(a[2]), int(a[3])
        terms, _ = oracles.parse_series(out)
        box = oracles.box_partitions(k, n - k) if 0 <= k <= n else []
        if sum(box) != (math.comb(n, k) if 0 <= k <= n else 0):
            return "box count disagrees with math.comb"
        return _expect(terms, {Fraction(i): c for i, c in enumerate(box) if c}, "qbin")
    if what in ("T", "trin"):
        L, k = int(a[2]), int(a[3])
        terms, _ = oracles.parse_series(out)
        if min(terms.values(), default=0) < 0:
            return "negative coefficient"
        if sum(terms.values()) != oracles.trinomial_coefficient(L, k):
            return f"{what}({L},{k}) at q=1 is not the trinomial coefficient"
        return None
    if what == "rT":
        L, M, x, y = map(int, a[2:6])
        t, _ = oracles.parse_series(out)
        shift = x * y - M * L
        if {-e: c for e, c in t.items()} != {e + shift: c for e, c in t.items()}:
            return "duality t(1/q) = q^(ab-ML) t(q) fails"
        if sum(t.values()) != oracles.refined_T_at_1(L, M, x, y):
            return "value at q=1 disagrees with the defining sum"
        return None
    if what == "F":
        name, M, sigma = a[2], int(a[3]), int(a[4])
        terms, _ = oracles.parse_series(out)
        if min(terms.values(), default=0) < 0:
            return "negative coefficient"
        if sum(terms.values()) != oracles.f_poly_at_1(name, M, sigma):
            return "F at q=1 disagrees with the (m,n)-system count"
        return None
    if what in ("lhs", "rhs"):
        mine, _ = oracles.parse_series(out)
        if what == "rhs" and min(mine.values(), default=0) < 0:
            return "fermionic side has a negative coefficient"
        flip = ("compute", "rhs" if what == "lhs" else "lhs") + a[2:]
        theirs, _ = oracles.parse_series(other_side(flip))
        return _expect(mine, theirs, f"{what} vs the other side")
    if what == "ferm":
        fam, order = a[2], int(a[4])
        sigma = int(a[6]) if len(a) > 6 else 0
        terms, bad = _series(out, order)
        if bad:
            return bad
        o = Fraction(order)
        if fam == "E8":
            want = oracles.rocha_caridi(3, 4, 1, 1, o)
        elif fam == "E7":
            want = oracles.rocha_caridi(4, 5, 2 * sigma + 1, 1, o)
        else:
            want = dict(oracles.rocha_caridi(6, 7, 1, 1, o))
            for e, c in oracles.rocha_caridi(6, 7, 5, 1, o).items():
                want[e] = want.get(e, 0) + c
        return _expect(terms, want, f"ferm {fam}")
    if what == "chi":
        p, pp, r, s, order = int(a[2]), int(a[3]), int(a[4]), int(a[5]), int(a[7])
        terms, bad = _series(out, order)
        return bad or _expect(terms, oracles.rocha_caridi(p, pp, r, s, Fraction(order)), "chi")
    if what == "B":
        p, pp, r, s, sigma, order = map(int, (a[2], a[3], a[4], a[5], a[6], a[8]))
        terms, bad = _series(out, order)
        return bad or _expect(terms, oracles.branching(p, pp, r, s, sigma, Fraction(order)), "B")
    if what == "c":
        sigma, order = int(a[2]), int(a[4])
        terms, bad = _series(out, order)
        return bad or _expect(terms, oracles.string_function(sigma, Fraction(order)), "c")
    if what == "mn-solve":
        return _check_mn(a, out)
    return f"no check for {what}"


def _check_mn(a: tuple, out: str) -> str | None:
    name, N, i = a[1], int(a[2]), int(a[3])
    rank = oracles.RANK[name]
    idx, const = [], 0
    if "--parity" in a:
        for tok in a[a.index("--parity") + 1].split("+"):
            if tok.startswith("n"):
                idx.append(int(tok[1:]))
            else:
                const += int(tok)
    lines = [oracles.parse_mn_line(line, rank) for line in out.splitlines()]
    if len(set(lines)) != len(lines):
        return "duplicate (m,n) solution"
    for m, n in lines:
        if not oracles.mn_line_ok(name, N, i, m, n):
            return f"m={m} n={n} does not solve the system"
        if (sum(n[j - 1] for j in idx) + const) % 2:
            return f"n={n} violates the parity filter"
    if oracles.mn_box_size(name, N, i) <= MN_BOX_LIMIT:
        want = {(m, n) for m, n in oracles.mn_box_solutions(name, N, i)
                if (sum(n[j - 1] for j in idx) + const) % 2 == 0}
        if want != set(lines):
            return f"{len(lines)} solutions printed, brute force finds {len(want)}"
    return None


def check_verify(req: Request, out: str) -> str | None:
    """Every report PASS with points > 0, for exactly the expected identities."""
    start = out.find("\n[")
    doc = json.loads(out[start + 1:] if start >= 0 else out)
    names = tuple(sorted(r["identity"] for r in doc))
    if names != tuple(sorted(req.expect_names)):
        return f"reports for {len(names)} identities, expected {len(req.expect_names)}"
    for r in doc:
        if r["failures"]:
            return f"{r['identity']} FAIL: {r['failures'][0]}"
        if r["points"] <= 0:
            return f"{r['identity']} checked no points"
    if "--order" in req.argv:
        order = int(req.argv[req.argv.index("--order") + 1])
        if any(r.get("order") != order for r in doc):
            return "report order differs from the requested order"
    return None


def resample_identities(names, order_of: Callable[[str], int | None], seed: int,
                        per_identity: int) -> str | None:
    """Re-evaluate a seeded sample of grid points through the registry's
    `evaluate` and compare the printed sides with the benchmark's parser.

    Every sampled point must agree; each identity except `vanish` (whose
    statement is that one side is zero) needs a sampled point with a
    nonzero side, and sampling continues until one is found.
    """
    from qtrin.verify import REGISTRY
    rng = random.Random(seed)
    for name in names:
        d = REGISTRY[name]
        keys = list(d.grid)
        points = [dict(zip(keys, vals)) for vals in itertools.product(*(d.grid[k] for k in keys))]
        if d.point_filter is not None:
            points = [p for p in points if d.point_filter(p)]
        rng.shuffle(points)
        order = Fraction(order_of(name) or d.order)
        nonzero = name == "vanish"
        for k, params in enumerate(points):
            if k >= per_identity and nonzero:
                break
            lhs, rhs = d.evaluate(dict(params), order)
            equal, some = oracles.sides_agree(str(lhs), str(rhs))
            if not equal:
                return f"{name} at {params}: sides differ"
            if name == "vanish" and some:
                return f"vanish at {params}: side is not zero"
            nonzero = nonzero or some
        if not nonzero:
            return f"{name}: every sampled point has both sides zero"
    return None
