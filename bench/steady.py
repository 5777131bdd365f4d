"""Steadiness check: run workloads repeatedly and report each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                            [--seconds S] [--against DIR]

Each run is a fresh ``bench/run.py`` process with its own seed.  The spread
is the distance between the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
A metric passes when its spread is within its bound (``setup_s`` is exempt:
its median is what a later change is held to); the target is a third of
the bound.  The raw times ``wall_s`` and ``op_ms_p50``, which each run
prints on stderr, are shown beside their reference-loop ratios; they have
no bound.  Reports are written to ``.bench_out/steady-<workload>.json``;
``--against DIR`` compares medians with the reports in DIR, as a second set
of runs is compared with the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import raw_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PAIRS = (("wall_s", "wall_ref"), ("op_ms_p50", "op_ref_p50"),
         ("setup_s", None), ("peak_rss_mb", None))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def run_set(workload: str, seeds: list[int], seconds: float) -> dict:
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        result["metrics"].update(raw_metrics(proc.stderr))
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            + f", attempted {result['attempted']}, failed {result['failed']}", flush=True)
        results.append(result)
    metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    return {"workload": workload, "seeds": seeds, "seconds": seconds,
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({(r["failed"], r["attempted"]) for r in results}),
            "metrics": metrics}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--against", help="a directory of earlier steady-<workload>.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        print(f"{workload}: {args.runs} runs of {args.seconds:g} s", flush=True)
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        report = run_set(workload, seeds, args.seconds)
        shares = {f / a for f, a in report["failed_share"]}
        print(f"  correct {report['correct']}, failed/attempted {report['failed_share']}"
              f" ({'one share' if len(shares) == 1 else 'SHARES DIFFER'})")
        status |= 0 if report["correct"] and len(shares) == 1 else 1
        earlier = (json.loads((Path(args.against) / f"steady-{workload}.json")
                              .read_text(encoding="utf-8")) if args.against else None)
        print(f"  {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}"
              f" {'bound':>6s}  {'ref metric':12s} {'median':>9s} {'spread':>7s}")
        for raw, ref in PAIRS:
            line = _row(report, raw, bounds)
            if ref:
                m = report["metrics"][ref]
                line += f"  {ref:12s} {m['median']:9.3f} {m['spread']:7.3f}"
            print(line)
        for name, m in report["metrics"].items():
            if name not in bounds:
                continue
            limit = bounds[name]
            if name != "setup_s" and m["spread"] > limit:
                status = 1
                print(f"  {name}: spread {m['spread']:.3f} exceeds its bound {limit}")
            elif name != "setup_s" and m["spread"] > limit / 3:
                print(f"  {name}: spread {m['spread']:.3f} is above a third of its bound")
            if earlier:
                before = earlier["metrics"][name]["median"]
                change = m["median"] / before - 1.0
                verdict = "ok" if change <= limit else "WORSE THAN BOUND"
                status |= 0 if change <= limit else 1
                print(f"  {name}: median {change:+.3f} against the earlier set ({verdict})")
        path = OUT / f"steady-{workload}.json"
        path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return status


def _row(report: dict, name: str, bounds: dict) -> str:
    m = report["metrics"][name]
    bound = f"{bounds[name]:6.2f}" if name in bounds else f"{'-':>6s}"
    return (f"  {name:12s} {m['median']:11.4f} {m['q1']:11.4f} {m['q3']:11.4f}"
            f" {m['spread']:7.3f} {bound}")


if __name__ == "__main__":
    sys.exit(main())
