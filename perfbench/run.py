"""qtrin benchmark: run one workload and print its metrics as a JSON line.

Run from the root of a qtrin checkout:

    python3 perfbench/run.py --workload compute-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # one row each
    python3 perfbench/run.py --selfcheck                            # harness self-test

With ``--trace 0`` the last line holds the end-to-end metrics, measured
untraced; with ``--trace 1`` it holds the per-layer metrics of one traced
round (and the spans go to ``perfbench/out/``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 9
SETUP_CODE = ("import time; t = time.perf_counter(); import qtrin; "
              "print(time.perf_counter() - t)")
# identities re-evaluated per run, per identity, by the output check
RESAMPLE = {"suite-full": 3, "series-deep": 1}


def _src() -> Path:
    return Path.cwd() / "src"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_src()) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median time of `import qtrin` (tables and registry built and
    validated) over fresh interpreters, at the reference pace; the pace is
    timed between the interpreters."""
    times, slices = [], []
    for _ in range(SETUP_SAMPLES):
        slices += [pace.one_slice() for _ in range(3)]
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    slices += [pace.one_slice() for _ in range(3)]
    return statistics.median(times) * pace.factor(slices)


def peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_round(cli, reqs, caches, cache_stats, paced: bool = False):
    """One round: its wall time, the outcomes, and the pace slices timed
    while it ran (none unless ``paced``).  Times leave out the slices."""
    gc.collect()
    outcomes = []
    sampler = pace.Sampler(active=paced)
    with sampler:
        t0 = time.perf_counter()
        for req in reqs:
            wl.clear_caches(caches, cache_stats)
            outcomes.append(wl.run_request(cli, req, lambda: sampler.spent))
        wall = time.perf_counter() - t0 - sampler.spent
    wl.clear_caches(caches, cache_stats)
    return wall, outcomes, sampler.slices


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def check_rounds(cli, name: str, reqs, rounds, seed: int) -> list[str]:
    """Problems in the outputs (empty when every output is right).

    The first round is checked against the oracles; later rounds must
    repeat it (compute output byte for byte, verify reports by check).
    """
    problems: list[str] = []
    side_cache: dict[tuple, str] = {}

    def other_side(argv: tuple) -> str:
        if argv not in side_cache:
            side_cache[argv] = wl.run_request(cli, wl.Request(argv, "side")).out
        return side_cache[argv]

    def check(req, oc) -> str | None:
        try:
            if req.argv[0] == "verify":
                return wl.check_verify(req, oc.out)
            if oc.rc != 0:
                return f"exit code {oc.rc}"
            return wl.check_compute(req, oc.out, other_side)
        except (ValueError, KeyError, IndexError) as exc:  # not in the printed form
            return f"unparsable output: {exc!r}"

    first = rounds[0]
    for i, req in enumerate(reqs):
        oc = first[i]
        for later in rounds[1:]:
            again = later[i]
            if again.failed != oc.failed or again.rc != oc.rc:
                msg = "outcome changed between rounds"
            elif req.argv[0] != "verify":
                msg = "output changed between rounds" if again.out != oc.out else None
            else:
                msg = None if again.failed or again.rc == 2 else check(req, again)
            if msg:
                problems.append(f"{' '.join(req.argv)}: {msg}")
        if oc.failed or oc.rc == 2:
            continue
        msg = "invalid input was accepted" if req.kind == "usage" else check(req, oc)
        if msg:
            problems.append(f"{' '.join(req.argv)}: {msg}")
    if name in RESAMPLE:
        names = [n for req in reqs for n in req.expect_names]
        orders = {n: int(req.argv[req.argv.index("--order") + 1])
                  for req in reqs if "--order" in req.argv for n in req.expect_names}
        msg = wl.resample_identities(names, orders.get, seed, RESAMPLE[name])
        if msg:
            problems.append(msg)
    return problems


def tally(reqs, rounds) -> tuple[int, int]:
    attempted = failed = 0
    for outcomes in rounds:
        for req, oc in zip(reqs, outcomes):
            attempted += req.weight
            failed += req.weight if oc.failed else 0
    return attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run whole rounds of one workload.

    Returns the result line's dict, the output problems found, and the
    requests with their per-round outcomes.
    """
    setup_s = None if trace else measure_setup()
    if str(_src()) not in sys.path:
        sys.path.insert(0, str(_src()))
    import qtrin.cli as cli

    caches = wl.find_caches()
    if not caches:
        raise RuntimeError("no functools caches found in qtrin")
    reqs = wl.WORKLOADS[name](seed, smoke)
    stats: dict[str, list[int]] = {}
    rounds, walls = [], []
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        import tracer as tracing

        untraced_wall, outcomes, _ = run_round(cli, reqs, caches, stats)
        rounds.append(outcomes)
        tracer = tracing.Tracer()
        traced_stats: dict[str, list[int]] = {}
        tracer.install()
        try:
            wall, outcomes, _ = run_round(cli, reqs, caches, traced_stats)
        finally:
            tracer.uninstall()
        rounds.append(outcomes)
        layer = tracing.layer_metrics(tracer, wall, untraced_wall, traced_stats)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}.jsonl.gz",
                    {"workload": name, "seed": seed, "cache_info": traced_stats,
                     "metrics": layer})
        for key, value in layer.items():
            metrics[key] = (value, _unit(key))
    else:
        slices = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            wall, outcomes, timed = run_round(cli, reqs, caches, stats, paced=True)
            walls.append(wall)
            rounds.append(outcomes)
            slices += timed
        rss = peak_rss_mib()
        # one factor for the whole run: the slices track qtrin's work over
        # 30 s far more closely than over a single ~10-s round
        f = pace.factor(slices)
        print(f"pace: factor {f:.3f} from {len(slices)} slices; unscaled round walls "
              f"{' '.join(f'{w:.3f}' for w in walls)} s", file=sys.stderr)
        walls = [w * f for w in walls]
        lat = sorted(oc.seconds * f * 1000.0 if not oc.failed else math.inf
                     for outcomes in rounds for oc in outcomes)
        p50, p90 = statistics.median(lat), nearest_rank(lat, 0.9)
        if sum(v > p90 for v in lat) < 10:
            # no tail with fewer than ten requests above it: report the median
            if name == "compute-mix" and not smoke:
                raise RuntimeError("fewer than ten requests above the p90 latency")
            p90 = p50
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "peak_rss_mib": (rss, "MiB"),
        }
    problems = check_rounds(cli, name, reqs, rounds, seed)
    attempted, failed = tally(reqs, rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems, reqs, rounds


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; one row per workload."""
    ok = True
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name:12s} ERROR exit {done.returncode}: {done.stderr.strip()[-300:]}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:12s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}  {cells}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(wl.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not (_src() / "qtrin" / "__init__.py").is_file():
        print(f"error: no qtrin sources under {_src()}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        import selfcheck
        return selfcheck.main(run_workload, check_rounds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result, problems, _, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
