"""The benchmark's workloads: their inputs, operations and output checks.

Each ``build_*`` function takes freshly imported leaklab modules (the
family scans also a seeded random generator) and returns the operations
of one round plus a warm-up.  A round runs every operation once, in an
order the generator shuffles; every round of a run is the same multiset
of operations, so the share of failed operations is fixed whatever the
run length.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import checks
import family

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROGRAMS = ROOT / "tests" / "programs"
SCHEMAS = ROOT / "docs" / "schemas"
OUT = ROOT / ".bench_out"

# (n, k, hi) for the family scans: two and three threads, zero to three
# letters each, secret domains of two and four values; each scan takes
# 15-450 ms.  Every member completes within the bounds below.  n=3, k=1
# (2.4 s), n=2, k=5 (5 s) and larger members would take most of a round
# each and leave too few rounds per run for steady medians.
FAMILY = ((2, 1, 1), (2, 1, 3), (2, 2, 1), (2, 2, 3), (2, 3, 1), (2, 3, 3),
          (3, 0, 1), (3, 0, 3))
SCAN_MAX_STEPS = 1_000
SCAN_MAX_CONFIGS = 2_000_000

CLI_COMMANDS = ("parse", "leakscan", "leakscan-blind", "dl", "emit-smt")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    prepare: Optional[Callable[[], None]] = None   # untimed, before the op
    collect: Optional[Callable[[Any], None]] = None  # untimed, after the op
    clock_in_state: bool = True  # timed scans tell states apart by clock


@dataclass
class Built:
    ops: list[Op]
    warmup: Op  # a cheap operation, run once untimed and unchecked in set-up


# ---------------------------------------------------------------------------
# scan-timed and scan-blind
# ---------------------------------------------------------------------------

def build_scan(lk, rng, blind: bool, family_shape=FAMILY) -> Built:
    bounds = lk.explorer.ExploreBounds(max_steps=SCAN_MAX_STEPS,
                                       max_configs=SCAN_MAX_CONFIGS,
                                       timing_blind=blind)
    check = checks.check_scan_blind if blind else checks.check_scan_timed
    ops = []
    for n, k, hi in family_shape:
        member = family.generate(n, k, hi, rng)
        program = lk.lang.parse_program(member.source)
        ops.append(Op(
            name=member.name,
            run=lambda p=program: lk.explorer.knowledge_partition(p, {}, None, bounds),
            check=lambda report, m=member: check(m, report),
            clock_in_state=not blind))
    if blind:
        fault = lk.lang.parse_program(checks.TRUNCATION_FAULT_SOURCE)
        fault_bounds = lk.explorer.ExploreBounds(
            max_steps=checks.TRUNCATION_FAULT_MAX_STEPS, timing_blind=True)
        ops.append(Op(
            name="fault-truncated-observation",
            run=lambda: lk.explorer.knowledge_partition(fault, {}, None, fault_bounds),
            check=checks.check_truncation_fault,
            clock_in_state=False))
    return Built(ops, ops[0])


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@dataclass
class CertifyOutput:
    program: Any
    bound: int
    labels: Any
    synthesis: Any
    leakiness: list
    proof: Any


def certify_pipeline(lk, program, bound: int, own_outline: bool) -> CertifyOutput:
    """dl labelling, postulate synthesis, leakiness of each postulate, the
    postulates spliced into an all-true outline (or the program's own
    outline), and the proof check."""
    labels = lk.dl.dl_certify(program)
    synthesis = lk.dl.synthesize_leaky_assertions(program, labels.suggested_pairs)
    leakiness = [lk.assertions.is_leaky_assertion(s.assertion, s.location, program)
                 for s in synthesis.assertions]
    if own_outline:
        annotated = lk.assertions.annotate_program(program)
    else:
        true = lk.assertions.TRUE
        annotated = lk.assertions.annotate_program(
            program,
            extra_pre={s.label: true for t in program.threads
                       for s in lk.lang.iter_statements(t.body)},
            extra_leaky={s.location: s.assertion for s in synthesis.assertions})
        for t in range(len(program.threads)):
            annotated.posts.setdefault(t, true)
    proof = lk.proofs.check_proof(annotated, snapshot_bound=bound)
    return CertifyOutput(program, bound, labels, synthesis, leakiness, proof)


def _program_path(name: str) -> Path:
    corpus = PROGRAMS / "corpus" / name
    return corpus if corpus.exists() else PROGRAMS / name


def build_certify(lk, names=tuple(checks.CERTIFY_EXPECTED),
                  bounds=checks.CERTIFY_BOUNDS) -> Built:
    verdicts: dict[str, str] = {}

    def leakscan_verdict(name: str, program) -> str:
        if name not in verdicts:
            verdicts[name] = lk.explorer.knowledge_partition(
                program, {}, None, lk.explorer.ExploreBounds()).verdict
        return verdicts[name]

    ops = []
    for name in names:
        program = lk.lang.parse_program(_program_path(name).read_text(encoding="utf-8"))
        own = checks.CERTIFY_EXPECTED[name].get("own_outline", False)
        for bound in bounds:
            ops.append(Op(
                name=f"{name}@{bound}",
                run=lambda p=program, b=bound, o=own: certify_pipeline(lk, p, b, o),
                check=lambda out, n=name: checks.check_certify(n, out, lk, leakscan_verdict)))
    fault = lk.lang.parse_program(checks.BOUND_FAULT_SOURCE)
    ops.append(Op(
        name="fault-snapshot-bound",
        run=lambda: certify_pipeline(lk, fault, checks.BOUND_FAULT_SNAPSHOT_BOUND, True),
        check=checks.check_bound_fault))
    # A one-thread program at the smallest bound: a few tens of milliseconds.
    return Built(ops, next(op for op in ops if op.name.startswith("10_blind_timing")))


# ---------------------------------------------------------------------------
# cli-corpus
# ---------------------------------------------------------------------------

def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LEAKLAB_CONFIG"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _cli_args(command: str, path: Path, smt_dir: Path) -> list[str]:
    rel = str(path.relative_to(ROOT))
    if command == "parse":
        return ["parse", rel]
    if command == "leakscan":
        return ["leakscan", rel, "--format", "json"]
    if command == "leakscan-blind":
        return ["leakscan", rel, "--timing-blind", "--format", "json"]
    if command == "dl":
        return ["dl", rel, "--synthesize", "--format", "json"]
    if command == "emit-smt":
        return ["emit-smt", rel, "--out-dir", str(smt_dir.relative_to(ROOT))]
    if command == "ifc":
        return ["ifc", rel, "--format", "json"]
    raise ValueError(command)


def build_cli(tracer=None) -> Built:
    """One fresh ``python -m leaklab.cli`` process per command.  With a
    tracer the same command runs under ``cli_child.py``, which wraps the
    layers in the child and leaves their figures in a file."""
    from jsonschema import Draft202012Validator

    schemas = {name: json.loads((SCHEMAS / f"{name}.schema.json").read_text(encoding="utf-8"))
               for name in ("leakscan", "dl", "ifc")}

    def validate(schema, instance):
        return Draft202012Validator(schema).iter_errors(instance)

    env = cli_env()
    files = sorted(PROGRAMS.rglob("*.cwl"), key=lambda p: p.name)
    jobs = [(c, f) for f in files for c in CLI_COMMANDS
            if c != "emit-smt" or f.name in checks.OUTLINED]
    jobs.append(("ifc", PROGRAMS / checks.IFC_SCENARIO))
    ops = []
    for command, path in jobs:
        smt_dir = OUT / "smt" / path.stem
        args = _cli_args(command, path, smt_dir)
        stats = OUT / "cli-trace" / f"{command}-{path.stem}.json"
        mode = "blind" if command == "leakscan-blind" else "timed"

        def run(args=args, stats=stats, mode=mode):
            if tracer is not None and tracer.active:
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(stats), mode, *args]
            else:
                cmd = [sys.executable, "-m", "leaklab.cli", *args]
            return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=170)

        def prepare(smt_dir=smt_dir, stats=stats, command=command):
            if command == "emit-smt":
                shutil.rmtree(smt_dir, ignore_errors=True)
            stats.unlink(missing_ok=True)

        def collect(proc, stats=stats):
            if tracer is not None and stats.exists():
                tracer.merge(json.loads(stats.read_text(encoding="utf-8")), stats.stem)

        ops.append(Op(
            name=f"{command} {path.name}",
            run=run,
            check=lambda proc, c=command, p=path, d=smt_dir: checks.check_cli(
                c, p.name, proc.returncode, proc.stdout, proc.stderr,
                schemas, validate, d),
            prepare=prepare,
            collect=collect))
    (OUT / "cli-trace").mkdir(parents=True, exist_ok=True)
    return Built(ops, ops[0])
