"""Command line front end: compute / verify / mn-solve / algebra.

Exit codes: 0 success, 1 verification failure, 2 usage error.
All output is deterministic; --threads is accepted for interface
stability but evaluation is single-threaded.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import bosonic, fermionic, verify
from .liealg import UnknownAlgebra, algebra
from .mnsys import solve_mn_filtered
from .qcomb import qbinomial, qtrinomial2, qtrinomial_T, refined_T


class UsageError(Exception):
    pass


# CLI name -> k-series family: "flower" -> "E8-flower" and so on
_KSERIES = {f.name.split("-")[1]: f.name for f in fermionic._FAMILIES.values()}
_IDENTITY_SIDES = ("conj1", "conj2", "conj3", *_KSERIES)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qtrin",
        description="exact q-series computations and identity verification",
    )
    p.add_argument("--threads", type=int, default=0, metavar="K",
                   help="parallelism degree (0 = auto); accepted, "
                        "evaluation is currently single-threaded")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="print one object in canonical form")
    csub = c.add_subparsers(dest="what", required=True)

    s = csub.add_parser("qbin", help="Gaussian polynomial [N, A]")
    s.add_argument("N", type=int)
    s.add_argument("A", type=int)

    s = csub.add_parser("trin", help="round-bracket q-trinomial (L, A)")
    s.add_argument("L", type=int)
    s.add_argument("A", type=int)

    s = csub.add_parser("T", help="q-trinomial T(L, A)")
    s.add_argument("L", type=int)
    s.add_argument("A", type=int)

    s = csub.add_parser("rT", help="refined q-trinomial (L, M, A, B)")
    s.add_argument("L", type=int)
    s.add_argument("M", type=int)
    s.add_argument("A", type=int)
    s.add_argument("B", type=int)

    s = csub.add_parser("F", help="fermionic F-polynomial")
    s.add_argument("algebra", choices=("A5", "D6", "E7"))
    s.add_argument("M", type=int)
    s.add_argument("sigma", type=int, choices=(0, 1))

    s = csub.add_parser("rhs", help="fermionic side of a polynomial identity")
    s.add_argument("name", choices=_IDENTITY_SIDES)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--M", type=int, required=True)

    s = csub.add_parser("lhs", help="bosonic side of a polynomial identity")
    s.add_argument("name", choices=_IDENTITY_SIDES)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--L", type=int, required=True)
    s.add_argument("--M", type=int, required=True)

    s = csub.add_parser("ferm", help="fermionic character series")
    s.add_argument("family", choices=fermionic.CHAR_FAMILIES)
    s.add_argument("--order", type=int, default=12)
    s.add_argument("--sigma", type=int, default=0, choices=(0, 1))

    s = csub.add_parser("chi", help="normalized Virasoro character")
    s.add_argument("P", type=int)
    s.add_argument("PP", type=int)
    s.add_argument("R", type=int)
    s.add_argument("S", type=int)
    s.add_argument("--order", type=int, default=12)

    s = csub.add_parser("B", help="coset branching function")
    s.add_argument("P", type=int)
    s.add_argument("PP", type=int)
    s.add_argument("R", type=int)
    s.add_argument("S", type=int)
    s.add_argument("SIGMA", type=int, choices=(0, 1))
    s.add_argument("--order", type=int, default=12)

    s = csub.add_parser("c", help="level-1 string function")
    s.add_argument("SIGMA", type=int, choices=(0, 1))
    s.add_argument("--order", type=int, default=12)

    v = sub.add_parser("verify", help="check registered identities")
    v.add_argument("name", help="identity name, or 'all'")
    v.add_argument("--level", choices=("quick", "full"), default="quick")
    v.add_argument("--grid", metavar="SPEC",
                   help="comma-separated var=lo..hi overrides")
    v.add_argument("--order", type=int)
    v.add_argument("--json", metavar="PATH", dest="json_path")
    v.add_argument("--strict-conjectures", dest="strict",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="count conjecture failures toward the exit code "
                        "(default on)")

    m = sub.add_parser("mn-solve", help="enumerate an (m,n)-system")
    m.add_argument("algebra")
    m.add_argument("N", type=int)
    m.add_argument("vertex", type=int)
    m.add_argument("--parity", metavar="EXPR",
                   help="keep solutions with EXPR even "
                        "(e.g. n1+n3+n7 or n1+n3+n5+1)")
    m.add_argument("--mod3", metavar="EXPR",
                   help="keep solutions with EXPR divisible by 3 "
                        "(a signed form such as n1-n2+n4-n5)")

    a = sub.add_parser("algebra", help="inspect Dynkin diagram data")
    asub = a.add_subparsers(dest="what", required=True)
    s = asub.add_parser("show")
    s.add_argument("name")

    return p


def _linear_filter(expr: str, modulus: int, rank: int):
    """Predicate keeping n with `expr` divisible by modulus, where expr is a
    signed sum of terms n1..n<rank> and integers, e.g. `n1-n2+n4-n5+1`."""
    text = expr.replace(" ", "")
    if not re.fullmatch(r"[+-]?[^+-]+([+-][^+-]+)*", text):
        raise UsageError(f"empty term in linear form {expr!r}")
    coeffs = [0] * rank
    const = 0
    for tok in re.findall(r"[+-]?[^+-]+", text):
        sign = -1 if tok[0] == "-" else 1
        body = tok.lstrip("+-")
        if body.startswith("n") and body[1:].isdigit():
            j = int(body[1:])
            if not 1 <= j <= rank:
                raise UsageError(f"index n{j} in {expr!r} is outside n1..n{rank}")
            coeffs[j - 1] += sign
        elif body.isdigit():
            const += sign * int(body)
        else:
            raise UsageError(f"bad term {tok!r} in linear form")
    return lambda n: (sum(c * x for c, x in zip(coeffs, n)) + const) % modulus == 0


def _parse_grid(spec: str) -> dict[str, tuple[int, ...]]:
    grid: dict[str, tuple[int, ...]] = {}
    for part in spec.split(","):
        if "=" not in part or ".." not in part:
            raise UsageError(f"bad grid component {part!r}, want var=lo..hi")
        var, rng = part.split("=", 1)
        lo_s, hi_s = rng.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"bad grid bounds in {part!r}") from None
        if hi < lo:
            raise UsageError(f"empty grid range in {part!r}")
        grid[var.strip()] = tuple(range(lo, hi + 1))
    return grid


def _cmd_compute(args) -> int:
    w = args.what
    if w == "qbin":
        print(qbinomial(args.N, args.A))
    elif w == "trin":
        print(qtrinomial2(args.L, args.A))
    elif w == "T":
        print(qtrinomial_T(args.L, args.A))
    elif w == "rT":
        print(refined_T(args.L, args.M, args.A, args.B))
    elif w == "F":
        print(fermionic.f_poly(args.algebra, args.M, args.sigma))
    elif w in ("rhs", "lhs"):
        name = args.name
        if name.startswith("conj"):
            which = int(name[4:])
            fn = fermionic.conj_rhs if w == "rhs" else bosonic.conj_lhs
            print(fn(which, args.L, args.M))
        else:
            fam = _KSERIES[name]
            if args.k < 1:
                raise UsageError("--k must be a positive integer")
            fn = fermionic.kseries_rhs if w == "rhs" else bosonic.kseries_lhs
            print(fn(fam, args.k, args.L, args.M))
    elif w == "ferm":
        print(fermionic.fermionic_char_sum(
            args.family, Fraction(args.order), sigma=args.sigma))
    elif w == "chi":
        print(bosonic.virasoro_char(args.P, args.PP, args.R, args.S,
                                    Fraction(args.order)))
    elif w == "B":
        print(bosonic.branching_function(args.P, args.PP, args.R, args.S,
                                         args.SIGMA, Fraction(args.order)))
    elif w == "c":
        print(bosonic.string_function(args.SIGMA, Fraction(args.order)))
    return 0


def _cmd_verify(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    if args.name == "all":
        if grid is not None:
            raise UsageError("--grid applies to a single identity, not 'all'")
        reports = verify.verify_all(level=args.level)
    else:
        reports = [verify.verify_identity(
            args.name, grid=grid, order=args.order, level=args.level)]
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(f"{r.identity:26s} {state}  status={r.status} "
              f"points={r.points} millis={r.millis}")
        for f in r.failures[:5]:
            print(f"  mismatch at {f.params}: q^{f.exponent} "
                  f"lhs={f.lhs_coeff} rhs={f.rhs_coeff}")
    if args.json_path:
        doc = verify.reports_to_json(reports)
        if args.json_path == "-":
            print(doc)
        else:
            with open(args.json_path, "w") as fh:
                fh.write(doc + "\n")
    hard = [r for r in reports if not r.passed
            and (args.strict or r.status != "conjectured-in-paper")]
    soft = [r for r in reports if not r.passed and r not in hard]
    for r in soft:
        print(f"note: conjecture {r.identity} failed "
              "(reportable finding; not counted, --no-strict-conjectures)",
              file=sys.stderr)
    return 1 if hard else 0


def _cmd_mn_solve(args) -> int:
    try:
        g = algebra(args.algebra)
    except UnknownAlgebra as exc:
        raise UsageError(str(exc)) from None
    if not 1 <= args.vertex <= g.rank:
        raise UsageError(f"vertex must be in 1..{g.rank} for {g.name}")
    if args.N < 0:
        raise UsageError("N must be nonnegative")
    predicates = []
    if args.parity:
        predicates.append(_linear_filter(args.parity, 2, g.rank))
    if args.mod3:
        predicates.append(_linear_filter(args.mod3, 3, g.rank))
    for sol in solve_mn_filtered(g, args.N, args.vertex, *predicates):
        print(sol.basis_str())
    return 0


def _cmd_algebra(args) -> int:
    try:
        g = algebra(args.name)
    except UnknownAlgebra as exc:
        raise UsageError(str(exc)) from None

    def show(title, rows, fmt):
        print(title)
        for row in rows:
            print("  " + "  ".join(f"{fmt(x):>5s}" for x in row))

    print(f"{g.name}: rank {g.rank}, marked vertices "
          + "{" + ", ".join(map(str, sorted(g.marked_vertices))) + "}")
    show("incidence:", g.incidence, str)
    show("cartan:", g.cartan, str)
    show("inverse cartan:", g.inverse_cartan, str)
    return 0


_PARSER = _build_parser()


def run(argv: list[str] | None = None) -> int:
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "mn-solve":
            return _cmd_mn_solve(args)
        return _cmd_algebra(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except verify.UnknownIdentity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError,
            bosonic.InvalidCharLabel,
            bosonic.InvalidBranchLabel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
