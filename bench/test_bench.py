"""Tests of the benchmark itself: each check rejects a wrong answer, the
independent formulas hold on small cases, and tiny runs keep the output
contract.  Run with ``python3 -m pytest bench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import family  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from leaklab import assertions, dl, explorer, ifc, lang, proofs, semantics  # noqa: E402

LK = types.SimpleNamespace(assertions=assertions, dl=dl, explorer=explorer, ifc=ifc,
                           lang=lang, proofs=proofs, semantics=semantics)
TINY = ((2, 1, 1), (2, 1, 3))


def scan(member, blind: bool):
    program = lang.parse_program(member.source)
    bounds = explorer.ExploreBounds(max_steps=1000, timing_blind=blind)
    return explorer.knowledge_partition(program, {}, None, bounds)


@pytest.fixture(scope="module")
def member():
    return family.generate(2, 1, 1, random.Random(7))


# -- independent computations ------------------------------------------------

def test_blind_count_matches_interleavings_and_roadmap_figure():
    assert checks.blind_observation_count(2, 5) == 924
    assert checks.blind_observation_count(3, 1) == 90
    seqs = (("a", "b"), ("c", "d"), ("e", "f"))
    assert len(checks.interleavings(seqs)) == checks.blind_observation_count(3, 1)


def test_total_cost_by_hand():
    # n=2, k=1: prints 1+1, if 1 + skip 1, region 4, end prints 1+1 = 10.
    assert checks.total_cost(2, 1, takes_region=False) == 10
    assert checks.total_cost(2, 1, takes_region=True) == 13


def test_seeds_change_surface_but_not_work():
    a = family.generate(2, 2, 1, random.Random(1))
    b = family.generate(2, 2, 1, random.Random(2))
    assert a.source != b.source
    assert family.generate(2, 2, 1, random.Random(1)) == a
    counts = []
    for m in (a, b):
        tr = tracer.Tracer()
        tr.install(LK)
        tr.begin_op(m.name)
        try:
            scan(m, blind=False)
        finally:
            tr.end_op()
            tr.uninstall()
        counts.append((tr.calls["semantics.step"], tr.calls["semantics.enabled"],
                       tr.distinct_states))
    assert counts[0] == counts[1]


# -- family scan checks reject wrong answers -----------------------------------

def test_scan_checks_accept_todays_answers(member):
    assert checks.check_scan_blind(member, scan(member, True)) == checks.OK
    assert checks.check_scan_timed(member, scan(member, False)) == checks.OK


def test_blind_check_rejects_observation_count_off_by_one(member):
    report = scan(member, True)
    report.knowledge.pop(next(iter(report.knowledge)))
    with pytest.raises(checks.CheckFailed, match="blind observations"):
        checks.check_scan_blind(member, report)


def test_blind_check_rejects_flipped_verdict(member):
    report = scan(member, True)
    report.verdict = "leak-found"
    with pytest.raises(checks.CheckFailed, match="verdict"):
        checks.check_scan_blind(member, report)


def test_blind_check_rejects_partial_knowledge(member):
    report = scan(member, True)
    obs = next(iter(report.knowledge))
    report.knowledge[obs] = frozenset(list(report.knowledge[obs])[:1])
    with pytest.raises(checks.CheckFailed, match="full domain"):
        checks.check_scan_blind(member, report)


def test_timed_check_rejects_flipped_verdict(member):
    report = scan(member, False)
    report.verdict = "no-leak"
    with pytest.raises(checks.CheckFailed, match="verdict"):
        checks.check_scan_timed(member, report)


def test_timed_check_rejects_wrong_knowledge(member):
    report = scan(member, False)
    obs = next(iter(report.knowledge))
    report.knowledge[obs] = frozenset(report.secret_domain)
    with pytest.raises(checks.CheckFailed, match="knowledge"):
        checks.check_scan_timed(member, report)


def test_truncation_fault_is_reported_as_fault_today_and_ok_when_mended():
    program = lang.parse_program(checks.TRUNCATION_FAULT_SOURCE)
    bounds = explorer.ExploreBounds(max_steps=checks.TRUNCATION_FAULT_MAX_STEPS,
                                    timing_blind=True)
    report = explorer.knowledge_partition(program, {}, None, bounds)
    assert checks.check_truncation_fault(report) == checks.FAULT
    report.verdict, report.complete = "inconclusive", False
    assert checks.check_truncation_fault(report) == checks.OK
    report.verdict = "no-leak"
    with pytest.raises(checks.CheckFailed):
        checks.check_truncation_fault(report)


# -- certify checks reject wrong answers ---------------------------------------

def certify(name: str, bound: int = 32):
    program = lang.parse_program(workloads._program_path(name).read_text(encoding="utf-8"))
    own = checks.CERTIFY_EXPECTED[name].get("own_outline", False)
    return workloads.certify_pipeline(LK, program, bound, own)


def leak_found(_name, _program):
    return "leak-found"


def test_certify_check_accepts_todays_answer():
    out = certify("10_blind_timing.cwl")
    assert checks.check_certify("10_blind_timing.cwl", out, LK, leak_found) == checks.OK


def test_certify_check_rejects_bad_threshold():
    out = certify("10_blind_timing.cwl")
    for bad in (3, 12):  # not above the low set's 3 / above the high set's 11
        out.synthesis.assertions[0].threshold = bad
        with pytest.raises(checks.CheckFailed, match="threshold"):
            checks.check_certify("10_blind_timing.cwl", out, LK, leak_found)


def test_certify_check_rejects_wrong_isolated_durations():
    out = certify("10_blind_timing.cwl")
    out.synthesis.assertions[0].isolated = {checks._H0: [4], checks._H1: [11]}
    with pytest.raises(checks.CheckFailed, match="isolated durations"):
        checks.check_certify("10_blind_timing.cwl", out, LK, leak_found)


def test_certify_check_rejects_flipped_proof_verdict():
    out = certify("10_blind_timing.cwl")
    out.proof.overall = "refuted"
    with pytest.raises(checks.CheckFailed, match="want proven"):
        checks.check_certify("10_blind_timing.cwl", out, LK, leak_found)


def test_certify_check_rejects_proof_without_a_timed_leak():
    out = certify("10_blind_timing.cwl")
    with pytest.raises(checks.CheckFailed, match="leakscan"):
        checks.check_certify("10_blind_timing.cwl", out, LK, lambda n, p: "no-leak")


def test_certify_check_rejects_postulate_judged_not_leaky():
    out = certify("10_blind_timing.cwl")
    out.leakiness[0] = dataclasses.replace(out.leakiness[0], verdict="not-leaky")
    with pytest.raises(checks.CheckFailed, match="judged"):
        checks.check_certify("10_blind_timing.cwl", out, LK, leak_found)


def test_certify_check_rejects_a_false_counterexample():
    out = certify("semaphore_pair_inverted.cwl")
    assert checks.check_certify("semaphore_pair_inverted.cwl", out, LK, leak_found) == checks.OK
    vc, result = next((vc, r) for vc, r in out.proof.entries if r.counterexample)
    cx = json.loads(json.dumps(result.counterexample))
    checks.check_counterexample(LK, out.program, vc, cx)
    cx["store"]["h"] = 1 - cx["store"]["h"]
    with pytest.raises(checks.CheckFailed, match="counterexample"):
        checks.check_counterexample(LK, out.program, vc, cx)


def test_bound_fault_is_reported_as_fault_today():
    program = lang.parse_program(checks.BOUND_FAULT_SOURCE)
    out = workloads.certify_pipeline(LK, program, checks.BOUND_FAULT_SNAPSHOT_BOUND, True)
    assert checks.check_bound_fault(out) == checks.FAULT
    wide = workloads.certify_pipeline(LK, program, 200, True)
    assert checks.check_bound_fault(wide) == checks.OK


# -- cli checks reject wrong answers -------------------------------------------

def test_cli_check_rejects_wrong_exit_and_schema_violation():
    from jsonschema import Draft202012Validator
    schemas = {n: json.loads((workloads.SCHEMAS / f"{n}.schema.json").read_text())
               for n in ("leakscan", "dl", "ifc")}

    def validate(schema, instance):
        return Draft202012Validator(schema).iter_errors(instance)

    good = {"secret_domain": [{"h": 0}, {"h": 1}], "observations": [],
            "verdict": "no-leak", "complete": True, "timing_blind": False}
    args = ("leakscan", "06_unused_secret.cwl")
    assert checks.check_cli(*args, 0, json.dumps(good), "", schemas, validate, None) == checks.OK
    with pytest.raises(checks.CheckFailed, match="exit 1, want 0"):
        checks.check_cli(*args, 1, json.dumps(good), "", schemas, validate, None)
    bad = dict(good, extra=1)
    with pytest.raises(checks.CheckFailed, match="schema"):
        checks.check_cli(*args, 0, json.dumps(bad), "", schemas, validate, None)
    flipped = dict(good, verdict="leak-found")
    with pytest.raises(checks.CheckFailed, match="verdict"):
        checks.check_cli(*args, 0, json.dumps(flipped), "", schemas, validate, None)


def test_smt_checks(tmp_path):
    assert checks.smt_balanced("(declare-const x Int)\n; (\n(assert \"(\")\n(check-sat)\n")
    assert not checks.smt_balanced("(assert (> x 0)\n(check-sat)\n")
    assert not checks.smt_balanced("(assert (> x 0))\n")
    (tmp_path / "vc_leaky_0.smt2").write_text("(check-sat)\n")
    out = f"wrote 2 SMT-LIB files to {tmp_path}"
    with pytest.raises(checks.CheckFailed, match="reported 2 files, wrote 1"):
        checks.check_cli("emit-smt", "semaphore_pair_annotated.cwl", 0, out, "",
                         {}, None, tmp_path)


# -- smoke runs ------------------------------------------------------------------

@pytest.mark.parametrize("blind", [False, True])
def test_smoke_tiny_family_members(blind):
    built = workloads.build_scan(LK, random.Random(3), blind, family_shape=TINY)
    statuses = []
    for op in built.ops:
        statuses.append(op.check(op.run()))
    want = [checks.OK] * len(TINY) + ([checks.FAULT] if blind else [])
    assert statuses == want


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-blind",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_prints_the_result_contract():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-blind",
                           "--seed", "5", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * (len(workloads.FAMILY) + 1) == result["attempted"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
