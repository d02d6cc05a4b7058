"""Self-test of the benchmark harness (`python3 perfbench/run.py --selfcheck`).

1. A smoke size of each workload runs in seconds, with every check passing.
2. One coefficient of each checked smoke output is altered; its check must
   fail, and a run holding one altered output must report correct=false.
3. A request that raises out of ``cli.run`` is counted as failed.
4. A traced smoke run accounts for its wall time: layer self times, the
   tracer's own counting and the un-spanned remainder add up to it.
"""

from __future__ import annotations

import copy
import json
import time
from fractions import Fraction

import oracles
import workloads as wl

# Requests that raise out of cli.run today (see workloads.FAULT_REQUESTS).
EXPECTED_FAILED = {"suite-full": 0, "series-deep": 0, "compute-mix": len(wl.FAULT_REQUESTS)}


def _format_exponent(e: Fraction) -> str:
    if e == 1:
        return "q"
    return f"q^{e.numerator}" if e.denominator == 1 else f"q^({e.numerator}/{e.denominator})"


def format_series(terms: dict[Fraction, int], order: Fraction | None) -> str:
    parts = []
    for i, e in enumerate(sorted(terms)):
        c = terms[e]
        body = str(abs(c)) if e == 0 else (
            _format_exponent(e) if abs(c) == 1 else f"{abs(c)}*{_format_exponent(e)}")
        parts.append(("-" if c < 0 else "") + body if i == 0
                     else (" - " if c < 0 else " + ") + body)
    text = "".join(parts) or "0"
    return text if order is None else f"{text} + O(q^{order})"


def mutate(req: wl.Request, out: str) -> str:
    """The same output with one coefficient changed."""
    if req.argv[0] == "mn-solve":
        lines = out.splitlines()
        if not lines:
            return "m=e1 n=0\n"  # never a solution: vertex 1 always has a neighbour
        m, n = oracles.parse_mn_line(lines[0], oracles.RANK[req.argv[1]])
        m = (m[0] + 1,) + m[1:]

        def vec(v):
            return "+".join(f"{c if c > 1 else ''}e{j}" for j, c in enumerate(v, 1) if c) or "0"

        lines[0] = f"m={vec(m)} n={vec(n)}"
        return "\n".join(lines) + "\n"
    terms, order = oracles.parse_series(out)
    if not terms:
        terms = {Fraction(0): 1}
    else:
        e = sorted(terms)[len(terms) // 2]
        terms[e] += 1 if terms[e] != -1 else 2
    return format_series(terms, order) + "\n"


def main(run_workload, check_rounds) -> int:
    ok = True

    def report(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}{'  ' + detail if detail else ''}")

    mix = None
    for name in wl.WORKLOADS:
        t0 = time.perf_counter()
        result, problems, reqs, rounds = run_workload(name, 1, 0.0, False, smoke=True)
        secs = time.perf_counter() - t0
        report(f"smoke {name} runs and checks clean",
               result["correct"] and result["failed"] == EXPECTED_FAILED[name],
               f"{secs:.1f}s attempted={result['attempted']} failed={result['failed']} "
               f"{problems[:2]}")
        if name == "compute-mix":
            mix = (reqs, rounds)

    import qtrin.cli as cli  # importable once run_workload has put src/ on the path

    reqs, rounds = mix
    missed = []
    checked = 0
    for req, oc in zip(reqs, rounds[0]):
        if oc.failed or oc.rc != 0 or req.kind == "usage":
            continue
        checked += 1
        bad = mutate(req, oc.out)
        if wl.check_compute(req, bad, lambda argv: wl.run_request(cli, wl.Request(argv, "")).out) is None:
            missed.append(" ".join(req.argv))
    report("every altered compute output fails its check", not missed and checked > 0,
           f"{checked} outputs altered; missed: {missed[:3]}")

    i = next(k for k, oc in enumerate(rounds[0]) if oc.rc == 0 and reqs[k].kind != "usage")
    altered = copy.deepcopy(rounds)
    altered[0][i].out = mutate(reqs[i], altered[0][i].out)
    report("a run with one altered output is not correct",
           bool(check_rounds(cli, "compute-mix", reqs, altered, 1)),
           " ".join(reqs[i].argv))

    suite = wl.suite_full(1, smoke=True)[0]
    out = wl.run_request(cli, suite).out
    start = out.find("\n[") + 1
    doc = json.loads(out[start:])
    doc[0]["points"] = 0
    report("a verify report with no points checked fails its check",
           wl.check_verify(suite, out[:start] + json.dumps(doc)) is not None, doc[0]["identity"])

    class Raising:
        @staticmethod
        def run(argv):
            raise RuntimeError("raised out of cli.run")

    oc = wl.run_request(Raising, wl.Request(("compute", "qbin", "4", "2"), "qbin"))
    report("a request that raises is counted as failed", oc.failed and oc.exc == "RuntimeError")
    faults = [oc for req, oc in zip(reqs, rounds[0]) if req.kind == "fault"]
    report("the order-0 string-function requests are counted as failed",
           all(oc.failed for oc in faults), str([oc.exc for oc in faults]))

    for name in ("suite-full", "compute-mix"):
        result, problems, _, _ = run_workload(name, 1, 0.0, True, smoke=True)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in m.items() if k.endswith(".self_s"))
        parts += m["trace.count_s"] + m["trace.unspanned_s"]
        report(f"traced smoke {name}: self times + counting + unspanned = wall",
               result["correct"] and abs(parts - m["trace.wall_s"]) < 1e-6 * max(1.0, parts),
               f"{parts:.6f}s vs {m['trace.wall_s']:.6f}s, {m['trace.spans']:.0f} spans")
    return 0 if ok else 1
