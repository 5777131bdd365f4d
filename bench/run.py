"""leaklab benchmark: one workload per fresh process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]       # every workload

With ``--workload`` the workload runs in this process and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Without it, every workload in BENCHMARK.json
runs in its own fresh process, untraced and then traced, and every metric
is printed by name and unit with the operations attempted and failed.
The raw operation times ``wall_s`` and ``op_ms_p50`` go to stderr.

A run sets up SETUPS times (import leaklab afresh, generate and parse the
inputs, warm up) and reports the median as ``setup_s``.  It then runs whole
rounds, each operation once per round, until ``--seconds`` have passed.
``wall_s`` is a round's summed operation time and ``op_ms_p50`` a round's
median operation time, each the median over the run's rounds.  The
reference loop runs just before and just after each operation; an
operation's ``ref`` time is its own time divided by the mean of those two.
A traced run alternates untraced and traced rounds: per-layer figures come
from the traced rounds only, and the tracing overhead compares the two
kinds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

SETUPS = 5
# Raw operation times, printed on stderr beside the `ref` metrics.  They are
# not end-to-end metrics of BENCHMARK.json: the host's speed swings them by
# more than the largest bound a metric may have (see bench/README.md).
RAW = {"wall_s": "s", "op_ms_p50": "ms"}
RAW_PREFIX = "bench: raw "
MODULES = ("lang", "semantics", "explorer", "assertions", "proofs", "dl", "ifc")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_leaklab():
    """Import leaklab afresh from the checkout's src/ and return its modules."""
    src = ROOT / "src"
    for name in [m for m in sys.modules if m == "leaklab" or m.startswith("leaklab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("leaklab")
    if Path(package.__file__).resolve().parent != (src / "leaklab").resolve():
        fail(f"leaklab was imported from {package.__file__}, not from {src}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"leaklab.{m}")
                                    for m in MODULES})


def build(workload: str, lk, rng, tracer):
    import workloads
    if workload == "scan-timed":
        return workloads.build_scan(lk, rng, blind=False)
    if workload == "scan-blind":
        return workloads.build_scan(lk, rng, blind=True)
    if workload == "certify":
        return workloads.build_certify(lk)
    return workloads.build_cli(tracer)


def cli_import_ms(repeats: int = 5) -> float:
    """Fresh-interpreter import of leaklab.cli minus ``python -c pass``."""
    import workloads
    env = workloads.cli_env()

    def once(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        return time.perf_counter() - start

    bare, imported = [], []
    for _ in range(repeats):
        bare.append(once("pass"))
        imported.append(once("import leaklab.cli"))
    return 1000.0 * (statistics.median(imported) - statistics.median(bare))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import refloop
    import tracer as tracing

    _, checksum = refloop.reference_loop()
    if checksum != refloop.CHECKSUM:
        fail("reference loop checksum mismatch")

    tr = tracing.Tracer() if trace else None
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        rng = random.Random(seed)
        lk = import_leaklab()
        if tr is not None:
            tr.install(lk)
            tr.begin_op("setup")
        built = build(workload, lk, rng, tr)
        if tr is not None:
            tr.end_op()
            tr.uninstall()
        if built.warmup.prepare:
            built.warmup.prepare()
        built.warmup.run()
        setups.append(time.perf_counter() - start)
    print(f"bench: {workload} seed {seed}: first setup {setups[0]:.3f} s "
          f"(process start to here {time.perf_counter() - _START:.3f} s)", file=sys.stderr)

    correct = True
    rounds = []   # (traced?, [(op time, mean of the reference runs around it)])
    op_log = []   # (round, operation, seconds, reference before, reference after)
    attempted = failed = 0
    phase_start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tr.install(lk)
        records = []
        for op in rng.sample(built.ops, len(built.ops)):
            if op.prepare:
                op.prepare()
            before, _ = refloop.reference_loop()
            if traced:
                tr.begin_op(op.name, op.clock_in_state)
            start = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as e:  # a crash is a failed operation
                error = e
            elapsed = time.perf_counter() - start
            if traced:
                tr.end_op()
            after, _ = refloop.reference_loop()
            attempted += 1
            records.append((elapsed, (before + after) / 2))
            op_log.append((len(rounds), op.name, elapsed, before, after))
            if error is not None:
                failed += 1
                print(f"bench: {op.name} raised {type(error).__name__}: {error}",
                      file=sys.stderr)
                continue
            if op.collect:
                op.collect(out)
            try:
                if op.check(out) == checks.FAULT:
                    failed += 1
            except checks.CheckFailed as e:
                correct = False
                print(f"bench: check failed: {op.name}: {e}", file=sys.stderr)
        if traced:
            tr.uninstall()
        rounds.append((traced, records))
        done = time.perf_counter() - phase_start >= seconds
        if done and (not trace or len(rounds) % 2 == 0):
            break

    def round_figures(want_traced: bool) -> dict[str, list[float]]:
        """Per round: the sum and the median of the operation times, raw
        and divided by the reference time beside each operation."""
        kept = [recs for tr_, recs in rounds if tr_ == want_traced]
        return {
            "wall_s": [sum(t for t, _ in recs) for recs in kept],
            "wall_ref": [sum(t / r for t, r in recs) for recs in kept],
            "op_ms_p50": [1000.0 * statistics.median(t for t, _ in recs) for recs in kept],
            "op_ref_p50": [statistics.median(t / r for t, r in recs) for recs in kept],
        }

    figures = round_figures(False)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"ops-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"setups": setups, "ops": op_log}), encoding="utf-8")
    if trace:
        traced_refs = round_figures(True)["wall_ref"]
        layers = tracing.layer_metrics(tr, len(traced_refs))
        layers["cli.import_ms"] = cli_import_ms()
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_refs) / statistics.median(figures["wall_ref"]) - 1.0)
        (out_dir / f"trace-{workload}-seed{seed}.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "metrics": layers,
                        **tr.export()}), encoding="utf-8")
        metrics = {name: {"value": value, "unit": unit}
                   for name, unit in per_layer_units().items()
                   for value in [layers[name]]}
    else:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-corpus"
                                   else resource.RUSAGE_SELF)
        values = {name: statistics.median(per_round) for name, per_round in figures.items()}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in benchmark_spec()["end_to_end"]}
        print(RAW_PREFIX + json.dumps({name: {"value": values[name], "unit": unit}
                                       for name, unit in RAW.items()}), file=sys.stderr)
    print(f"bench: {workload} seed {seed}: {len(rounds)} rounds, {attempted} attempted, "
          f"{failed} failed, nproc {os.cpu_count()}, python {platform.python_version()}",
          file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def raw_metrics(stderr: str) -> dict:
    """The raw times a ``--trace 0`` run printed on stderr."""
    lines = [ln for ln in stderr.splitlines() if ln.startswith(RAW_PREFIX)]
    return json.loads(lines[-1][len(RAW_PREFIX):]) if lines else {}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    spec = benchmark_spec()
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"seed {seed}, {seconds:g} s per run")
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not trace:
                print(f"\n{w['name']}: attempted {result['attempted']}, failed "
                      f"{result['failed']}, correct {result['correct']}")
                result["metrics"].update(raw_metrics(proc.stderr))
            status |= 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                value = m["value"]
                shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
                print(f"  {name:28s} {shown} {m['unit']}")
    return status


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("src/leaklab/__init__.py", "tests/programs/corpus", "docs/schemas",
                   "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            fail(f"{needed} is missing; run from a leaklab checkout")
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.workload is None:
        sys.exit(run_all(args.seed, seconds))
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
