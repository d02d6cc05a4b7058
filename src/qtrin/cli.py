"""Command line front end: compute / verify / mn-solve / algebra.

Exit codes: 0 success, 1 verification failure or a failed write to
standard output (a closed pipe included), 2 refused input.  Input that the
library or this module refuses raises ValueError (a label, name, depth or
flag out of range, an --order given to an exact polynomial identity, a grid
with no point to check); it prints one `error:` line.  argparse's own
errors keep argparse's format.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import bosonic, fermionic, verify
from .liealg import algebra
from .mnsys import basis_lines, linear_filter, solve_mn
from .qcomb import qbinomial, qtrinomial2, qtrinomial_T, refined_T


# CLI name -> k-series family index: "flower" -> 1 and so on
_KSERIES = {f.name: w for w, f in fermionic._FAMILIES.items()}
_IDENTITY_SIDES = ("conj1", "conj2", "conj3", *_KSERIES)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qtrin",
        description="exact q-series computations and identity verification",
    )
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

    for side, kind in (("rhs", "fermionic"), ("lhs", "bosonic")):
        s = csub.add_parser(side, help=f"{kind} side of a polynomial identity")
        s.add_argument("name", choices=_IDENTITY_SIDES)
        s.add_argument("--k", type=int, help="depth of a k-series family (default 1)")
        s.add_argument("--L", type=int, required=True)
        s.add_argument("--M", type=int, required=True)

    s = csub.add_parser("ferm", help="fermionic character series")
    s.add_argument("family", choices=fermionic.CHAR_FAMILIES)
    s.add_argument("--order", type=int, default=12)
    s.add_argument("--sigma", type=int, choices=(0, 1), help="cone parity constant (default 0)")

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
    v.add_argument("--level", choices=verify.LEVELS, default="full")
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
    m.add_argument("--parity", metavar="EXPR", action="append", default=[],
                   help="keep solutions with EXPR even "
                        "(e.g. n1+n3+n7 or n1+n3+n5+1)")
    m.add_argument("--mod3", metavar="EXPR", action="append", default=[],
                   help="keep solutions with EXPR divisible by 3 "
                        "(a signed form such as n1-n2+n4-n5)")

    a = sub.add_parser("algebra", help="inspect Dynkin diagram data")
    asub = a.add_subparsers(dest="what", required=True)
    s = asub.add_parser("show")
    s.add_argument("name")

    return p


def _linear_form(expr: str, rank: int) -> tuple[dict[int, int], int]:
    """Coefficients by 1-based index, and the constant, of `expr`: a signed
    sum of terms n1..n<rank> and integers, e.g. `n1-n2+n4-n5+1`."""
    text = expr.replace(" ", "")
    if not re.fullmatch(r"[+-]?[^+-]+([+-][^+-]+)*", text):
        raise ValueError(f"empty term in linear form {expr!r}")
    coeffs: dict[int, int] = {}
    const = 0
    for tok in re.findall(r"[+-]?[^+-]+", text):
        sign = -1 if tok[0] == "-" else 1
        body = tok.lstrip("+-")
        if body.startswith("n") and body[1:].isdigit():
            j = int(body[1:])
            if not 1 <= j <= rank:
                raise ValueError(f"index n{j} in {expr!r} is outside n1..n{rank}")
            coeffs[j] = coeffs.get(j, 0) + sign
        elif body.isdigit():
            const += sign * int(body)
        else:
            raise ValueError(f"bad term {tok!r} in linear form")
    return coeffs, const


def _parse_grid(spec: str) -> dict[str, tuple[int, ...]]:
    grid: dict[str, tuple[int, ...]] = {}
    for part in spec.split(","):
        if "=" not in part or ".." not in part:
            raise ValueError(f"bad grid component {part!r}, want var=lo..hi")
        var, rng = part.split("=", 1)
        var = var.strip()
        if var in grid:
            raise ValueError(f"grid variable {var!r} given twice in {spec!r}")
        lo_s, hi_s = rng.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ValueError(f"bad grid bounds in {part!r}") from None
        if hi < lo:
            raise ValueError(f"empty grid range in {part!r}")
        grid[var] = tuple(range(lo, hi + 1))
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
        if name.startswith("conj"):  # conjecture w is depth 0 of family w
            if args.k is not None:
                raise ValueError(f"--k applies to a k-series family, not {name}")
            family, k = int(name[4:]), 0
        else:
            family, k = _KSERIES[name], 1 if args.k is None else args.k
            if k < 1:
                raise ValueError("k must be >= 1")
        fn = fermionic.kseries_rhs if w == "rhs" else bosonic.kseries_lhs
        print(fn(family, k, args.L, args.M))
    elif w == "ferm":
        name = args.family.split("-")[0]
        if args.sigma is not None and fermionic._filters(name, 0) == fermionic._filters(name, 1):
            raise ValueError(f"--sigma applies to a family whose cone depends on it, not {name}")
        print(fermionic.fermionic_char_sum(
            args.family, Fraction(args.order), sigma=args.sigma or 0))
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
    grid = None if args.grid is None else _parse_grid(args.grid)
    if args.name == "all":
        for flag, value in (("--grid", grid), ("--order", args.order)):
            if value is not None:
                raise ValueError(f"{flag} applies to a single identity, not 'all'")
    if args.json_path and args.json_path != "-":
        # fail before the run if the report cannot be written, and leave the
        # file system as it was: mode "a" keeps an existing file's content
        existed = os.path.exists(args.json_path)
        try:
            open(args.json_path, "a").close()
        except OSError as exc:
            raise ValueError(f"cannot write {args.json_path}: {exc.strerror}") from None
        if not existed:
            os.remove(args.json_path)
    if args.name == "all":
        reports = verify.verify_all(level=args.level)
    else:
        reports = [verify.verify_identity(
            args.name, grid=grid, order=args.order, level=args.level)]
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(f"{r.identity:26s} {state}  status={r.status} "
              f"points={r.points} millis={r.millis}")
        for f in r.failures[:5]:
            print(f"  mismatch at {f['params']}: q^{f['exponent']} "
                  f"lhs={f['lhs']} rhs={f['rhs']}")
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
    g = algebra(args.algebra)
    filters = []
    for exprs, modulus in ((args.parity, 2), (args.mod3, 3)):
        for expr in exprs:
            coeffs, const = _linear_form(expr, g.rank)
            filters.append(linear_filter(coeffs, modulus, const))
    solutions = solve_mn(g, args.N, args.vertex, *filters)
    if solutions:
        print("\n".join(basis_lines(solutions)))
    return 0


def _cmd_algebra(args) -> int:
    g = algebra(args.name)

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


def _attach_forms(argv: list[str]) -> list[str]:
    # argparse takes a value that starts with '-' for an option, so a signed
    # form passed as its own argument is attached: --parity=-n1+n3.
    out: list[str] = []
    for tok in argv:
        signed = tok.startswith("-") and not tok.startswith("--")
        if signed and out and out[-1] in ("--parity", "--mod3"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(_attach_forms(sys.argv[1:] if argv is None else argv))
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a failed write raises here, not at exit
    except OSError as exc:
        # a closed pipe ends quietly, as the Python docs advise for SIGPIPE;
        # any other failed write (a full disk) gets one error line
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        # stdout goes to devnull, so the interpreter's final flush does not
        # fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
