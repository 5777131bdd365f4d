"""``proofs.check_proof`` discharges each distinct triple once.

The slow oracle is ``proofs.discharge_vc`` run on each VC alone: every
entry of a proof must carry what the oracle gives for its own VC, while
the proof makes one ``discharge_vc`` call per distinct triple, keyed on the
VC's class, pre, statement (with its label) and post.
"""

from __future__ import annotations

import pytest

from leaklab import assertions as asrt
from leaklab import lang, proofs, semantics

from conftest import trivially_annotate
from test_discharge_oracle import CERTIFY_CORPUS, OWN_OUTLINES, outline

# Two equal-looking increments at l0 and l2, and a print between them.
TWIN_SOURCE = (
    "var h : int[0..1] label high = secret;\n"
    "var x : int[0..3] label low = 0;\n"
    "thread A { x = x + 1; print('a'); x = x + 1; }")


def triple(vc: proofs.VC) -> tuple:
    return type(vc), vc.pre, vc.stmt, vc.post


def outcome(r: proofs.DischargeResult) -> tuple:
    return r.status, r.counterexample, r.reason, r.checked


def counting(monkeypatch) -> list:
    """Patch ``proofs.discharge_vc`` to record the VC of every call."""
    calls: list = []
    discharge = proofs.discharge_vc

    def counted(vc, *args):
        calls.append(vc)
        return discharge(vc, *args)

    monkeypatch.setattr(proofs, "discharge_vc", counted)
    return calls


@pytest.mark.parametrize("bound", [16, 32, 64])
@pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
def test_every_entry_matches_the_vc_discharged_alone(name, bound):
    annotated = outline(name)
    program = annotated.program
    vcs, _ = proofs.gen_vcs(annotated)
    result = proofs.check_proof(annotated, snapshot_bound=bound)
    assert [vc for vc, _ in result.entries] == vcs
    for vc, r in result.entries:
        alone = proofs.discharge_vc(vc, program, snapshot_bound=bound)
        assert outcome(r) == outcome(alone), vc.provenance


@pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
def test_one_call_per_distinct_triple(name, monkeypatch):
    annotated = outline(name)
    vcs, _ = proofs.gen_vcs(annotated)
    first_of: dict = {}
    for vc in vcs:
        first_of.setdefault(triple(vc), vc)
    calls = counting(monkeypatch)
    result = proofs.check_proof(annotated)
    assert calls == list(first_of.values())
    assert len(result.discharged()) == len(first_of)
    again = proofs.check_proof(annotated)
    assert len(calls) == len(first_of)  # the program kept every result
    assert again.entries == result.entries and again.assertions == result.assertions


def test_same_triple_keeps_each_class_verdict(monkeypatch):
    program = lang.parse_program(TWIN_SOURCE)
    annotated = trivially_annotate(program)
    fails = asrt.parse_assertion("h = 1")
    stmt = program.threads[0].body[1]
    vc = proofs.VC(asrt.TRUE, stmt, fails, proofs.LEAKY, "with facts")
    factless = proofs.FactlessVC(asrt.TRUE, stmt, fails, proofs.LEAKY, "without facts")
    for order in ([vc, factless], [factless, vc]):
        monkeypatch.setattr(proofs, "gen_vcs", lambda *args, order=order: (order, []))
        result = proofs.check_proof(annotated)
        assert {e.provenance: r.status for e, r in result.entries} == {
            "with facts": "counterexample", "without facts": "undischarged"}


def test_same_assertions_keep_each_statement_verdict(monkeypatch):
    # {x = 0} S {x = 0} holds for the print and fails for an increment; the
    # two increments look alike but sit at l0 and l2, where the clock
    # {t = 0} S {t = 1} advances by the cost of each one's own location.
    program = lang.parse_program(TWIN_SOURCE)
    annotated = trivially_annotate(program)
    first, middle, last = program.threads[0].body
    assert (first.target, first.value) == (last.target, last.value) and first != last
    x_zero = asrt.parse_assertion("x = 0")
    clock_zero, clock_one = asrt.parse_assertion("t = 0"), asrt.parse_assertion("t = 1")
    vcs = [proofs.VC(x_zero, middle, x_zero, proofs.INTERFERENCE, "print"),
           proofs.VC(x_zero, first, x_zero, proofs.INTERFERENCE, "increment"),
           proofs.VC(clock_zero, first, clock_one, proofs.SEQUENTIAL, "at l0"),
           proofs.VC(clock_zero, last, clock_one, proofs.SEQUENTIAL, "at l2")]
    monkeypatch.setattr(proofs, "gen_vcs", lambda *args: (vcs, []))
    costs = semantics.CostModel(overrides={last.label: 2})
    result = proofs.check_proof(annotated, costs=costs)
    assert {vc.provenance: r.status for vc, r in result.entries} == {
        "print": "valid", "increment": "counterexample",
        "at l0": "valid", "at l2": "counterexample"}
