"""``emit-smt`` against ``discharge_vc``, through the test-only SMT reader.

A script the emitter writes must be ``unsat`` exactly when ``discharge_vc``
finds the condition valid.  The comparison is made on conditions whose
snapshot atoms are all difference constraints: there ``discharge_vc`` is
exact in the snapshots, as the reader's box is.  On the others it bounds
the snapshots by ``--snapshot-bound`` and the reader does not.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import assertions as asrt
from leaklab import lang, proofs

import smt_reader
from analysis_oracle import difference_form
from test_discharge_oracle import CERTIFY_CORPUS, OWN_OUTLINES, POOLS, formula, outline


def assert_agree(vc: proofs.VC, program: lang.Program, bound: int = 64,
                 tolerance: int = 0) -> str:
    answer, model = smt_reader.decide(
        proofs.emit_smtlib(vc, program, snapshot_bound=bound, tolerance=tolerance))
    outcome = proofs.discharge_vc(vc, program, snapshot_bound=bound, tolerance=tolerance)
    assert (answer == "unsat") == (outcome.status == "valid"), (
        f"{vc.provenance}: reader says {answer} {model}, discharge says "
        f"{outcome.status} {outcome.counterexample}")
    return answer


def test_reader_decides_by_enumeration():
    script = ("(set-logic ALL)\n(declare-const x Int)\n"
              "(assert (and (>= x 0) (<= x 3)))\n(declare-const y Int)\n"
              "(assert (= y (* x x)))\n(assert (distinct y {k}))\n(assert (> y 5))\n"
              "(check-sat)\n")
    assert smt_reader.decide(script.format(k=4)) == ("sat", {"x": 3, "y": 9})
    assert smt_reader.decide(script.format(k=9)) == ("unsat", None)


@pytest.mark.parametrize("term", ("(= h 1)", "(= (- h 1) 0)", "(and h 1)", "(+ h 1)"))
def test_reader_rejects_ill_sorted_terms(term):
    # A solver rejects these; Python would evaluate each, as False == 0.
    script = f"(set-logic ALL)\n(declare-const h Bool)\n(assert {term})\n(check-sat)\n"
    with pytest.raises(ValueError, match="ill-sorted|non-Bool"):
        smt_reader.decide(script)


def test_emitted_scripts_declare_by_type():
    program = lang.parse_program(
        "var h : int[0..1] label high = secret;\nvar b : bool label low = false;\n"
        "thread A { await b then { h = 1 - h; }; }")
    vc = proofs.VC(asrt.parse_assertion("h = 0 and b"), program.threads[0].body[0],
                   asrt.parse_assertion("h = 1"), proofs.SEQUENTIAL, "flip")
    script = proofs.emit_smtlib(vc, program)
    assert "(declare-const h Int)" in script
    assert "(assert (and (>= h 0) (<= h 1)))" in script
    assert "(declare-const b Bool)" in script
    assert smt_reader.decide(script) == ("unsat", None)


@pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
def test_every_outline_vc_agrees(name):
    annotated = outline(name)
    vcs, _ = proofs.gen_vcs(annotated)
    compared = [assert_agree(vc, annotated.program) for vc in vcs
                if difference_form(vc, annotated.program)]
    assert compared
    if name == "semaphore_pair_inverted.cwl":
        assert "sat" in compared


# The first three statements are the snapshot locations of the pools; the
# others are the transitions a condition may take.
PROGRAM = lang.parse_program(
    "var x : int[0..2] label low = 0;\n"
    "thread A { print('a'); print('b'); print('c'); x = x + 1; delay(x - 1);\n"
    "           await x > 0 then { x = x - 1; delay(2); }; }")
TEMPLATES = ("forall q in 0..2 : (({f}) or x = q)",
             "exists q in 0..2 : (({f}) and x * q >= 2)",
             "forall q in 0..1 : ((exists q in 0..2 : x + q = 2) or ({f}))",
             "x = 1 and (forall x in 0..1 : (({f}) or x = 1))",  # the bound x shadows x
             "({f}) and t >= {k}",
             "({f}) or approx(t, {k})")


@st.composite
def emitted_vc(draw):
    """Difference-form conditions, some under a quantifier or beside a
    clock atom."""
    pool = draw(st.sampled_from(POOLS))
    texts = []
    for _ in range(2):
        text, _ = draw(formula(pool))
        if draw(st.booleans()):
            text = draw(st.sampled_from(TEMPLATES)).format(f=text, k=draw(st.integers(0, 6)))
        texts.append(text)
    stmt = draw(st.sampled_from((None, *PROGRAM.threads[0].body[3:])))
    pre, post = (asrt.resolve_assertion(asrt.parse_assertion(t), PROGRAM, 0) for t in texts)
    return proofs.VC(pre, stmt, post, proofs.SEQUENTIAL, f"{{{texts[0]}}} {stmt} {{{texts[1]}}}")


@settings(max_examples=150, deadline=None)
@given(emitted_vc())
def test_generated_conditions_agree(vc):
    assert difference_form(vc, PROGRAM)
    for tolerance in (0, 1, 2):
        assert_agree(vc, PROGRAM, bound=8, tolerance=tolerance)
