"""Region-based snapshot discharge against the box enumerator.

``proofs.discharge_vc`` decides difference-form snapshot atoms by one
representative per region; ``discharge_oracle.discharge_box`` enumerates
every slot over ``[0, snapshot_bound]``.  Whenever the box is large enough
to hold the first counterexample, the two must agree on the status and on
the counterexample itself.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import assertions as asrt
from leaklab import dl, lang, proofs

import analysis_oracle
from conftest import CORPUS, load_program, trivially_annotate
from discharge_oracle import discharge_box

OWN_OUTLINES = ("semaphore_pair_annotated.cwl", "semaphore_pair_inverted.cwl")
CERTIFY_CORPUS = ("01_semaphore_pair.cwl", "02_semaphore_atomic.cwl",
                  "03_delay_long.cwl", "04_delay_balanced.cwl",
                  "07_three_phase.cwl", "08_region_alone.cwl",
                  "10_blind_timing.cwl")


def all_vcs(annotated: asrt.AnnotatedProgram) -> list[proofs.VC]:
    program = annotated.program
    vcs: list[proofs.VC] = []
    for t in range(len(program.threads)):
        seq, _ = proofs.gen_sequential_vcs(annotated, t)
        vcs += seq
    vcs += proofs.gen_interference_vcs(annotated)
    leaky, _ = proofs.gen_leaky_vcs(annotated)
    return vcs + leaky


def certify_outline(program: lang.Program) -> asrt.AnnotatedProgram:
    """The synthesized postulates spliced into an all-true outline."""
    pairs = dl.dl_certify(program).suggested_pairs
    synthesis = dl.synthesize_leaky_assertions(program, pairs)
    return trivially_annotate(
        program, leaky={s.location: s.assertion for s in synthesis.assertions})


def outline(name: str) -> asrt.AnnotatedProgram:
    if name in OWN_OUTLINES:
        return asrt.annotate_program(load_program(name))
    return certify_outline(lang.parse_program(
        (CORPUS / name).read_text(encoding="utf-8")))


def assert_same(vc: proofs.VC, program: lang.Program, bound: int,
                tolerance: int = 0) -> tuple[proofs.DischargeResult, proofs.DischargeResult]:
    new = proofs.discharge_vc(vc, program, snapshot_bound=bound, tolerance=tolerance)
    old = discharge_box(vc, program, snapshot_bound=bound, tolerance=tolerance)
    assert (new.status, new.counterexample) == (old.status, old.counterexample), \
        vc.provenance
    return new, old


@pytest.mark.parametrize("bound", [32, 64])
@pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
def test_every_outline_vc_agrees(name, bound):
    annotated = outline(name)
    vcs = all_vcs(annotated)
    assert vcs
    for vc in vcs:
        assert_same(vc, annotated.program, bound)


# Three thread locations and an assignment; each pool names at most three
# snapshot slots (t@l1 is the latest arrival, so beside t@l1[1] it is the
# same slot and t@l1[0] a slot of its own).
SMALL = lang.parse_program(
    "var x : int[0..2] label low = 0;\n"
    "thread A { print('a'); print('b'); print('c'); x = x + 1; }")
POOLS = (("t@l0", "t@l1", "t@l2"),
         ("t@l1", "t@l1[0]", "t@l2"),
         ("t@l0", "t@l1[1]", "t@l1"))
OPS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def difference_atom(draw, pool):
    a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    op = draw(st.sampled_from(OPS))
    k = draw(st.integers(-6, 6))
    tol = draw(st.integers(0, 2))
    text = draw(st.sampled_from((
        f"{a} - {b} {op} {k}",
        f"{a} {op} {k}",
        f"{k} {op} {a} - {b}",
        f"-{a} {op} {k}",
        f"{a} + {k} {op} {b}",
        f"approx({a} - {b}, {k}, {tol})",
        f"approx({a}, {k})",
    )))
    return text, abs(k) + tol


@st.composite
def formula(draw, pool):
    text, reach = draw(difference_atom(pool))
    more_atoms = st.one_of(difference_atom(pool),
                           st.sampled_from((("x = 0", 0), ("x != 2", 0))))
    for more, r in draw(st.lists(more_atoms, max_size=2)):
        connective = draw(st.sampled_from(("and", "or", "->")))
        text = f"({text}) {connective} ({more})"
        reach = max(reach, r)
    if draw(st.booleans()):
        text = f"not ({text})"
    return text, reach


@st.composite
def difference_vc(draw):
    pool = draw(st.sampled_from(POOLS))
    pre, pre_reach = draw(formula(pool))
    post, post_reach = draw(formula(pool))
    stmt = draw(st.sampled_from((None, SMALL.threads[0].body[3])))
    vc = proofs.VC(asrt.resolve_assertion(asrt.parse_assertion(pre), SMALL, 0), stmt,
                   asrt.resolve_assertion(asrt.parse_assertion(post), SMALL, 0),
                   proofs.SEQUENTIAL, f"{{{pre}}} {stmt} {{{post}}}")
    return vc, max(pre_reach, post_reach), draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(difference_vc())
def test_generated_difference_atoms_agree(case):
    vc, reach, tolerance = case
    _, slots, _ = analysis_oracle.vc_symbols(vc, SMALL)
    n_slots = sum(count for _, count in slots)
    assert 1 <= n_slots <= 3
    # Every region's least point lies within slots * (max |cut| + 1); an
    # approx without its own tolerance cuts at k +- tolerance.
    new, old = assert_same(vc, SMALL, n_slots * (reach + tolerance + 1), tolerance)
    assert new.checked <= old.checked  # distinct regions have distinct least points


def test_non_difference_atom_takes_the_box():
    program = lang.parse_program(
        "var v : int[0..4] label low = 0;\n"
        "thread A { print('a'); v = v - 1; }")
    vc = proofs.VC(
        asrt.resolve_assertion(asrt.parse_assertion("t@l0 < v and v = 3"), program, 0),
        program.threads[0].body[1],
        asrt.resolve_assertion(asrt.parse_assertion("t@l0 < v"), program, 0),
        proofs.SEQUENTIAL, "a snapshot compared with a variable")
    new, old = assert_same(vc, program, 16)
    assert new.counterexample == {"store": {"v": 3}, "snapshots": {"A.l0": [2]}}
    assert new.checked == old.checked  # the same [0, 16] box was walked
