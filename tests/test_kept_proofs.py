"""The proof state a program keeps against fresh checks.

``proofs.check_proof`` keeps, on the program's control table per cost
model and tolerance, each discharge result and the numbering that keys
it, the result under its snapshot bound only when its discharge read the
bound.
The oracle here checks one program under interleaved bounds, cost models
and tolerances, forwards and then backwards, and compares each report
with the same check of a freshly parsed program: entries, which entries
share a result, verdict, message, certified locations, warnings and the
count of assertion terms.  The backwards pass discharges nothing.  The
other tests hold that a kept result never crosses a bound it read, that a
result that did not read the bound serves every bound, that a negative
bound is refused after results were kept, and that no reader can change a
kept result, its counterexample included.
"""

from __future__ import annotations

import random

import pytest

from leaklab import assertions as asrt
from leaklab import lang, proofs, semantics
from leaklab.errors import LeakLabError

from conftest import CORPUS, PROGRAMS, load_program
from test_discharge_once import counting
from test_discharge_oracle import CERTIFY_CORPUS, OWN_OUTLINES, certify_outline
from test_outline_soundness import CLOCK, POSTULATES, STORE, _program_source, _thread

COSTS = (semantics.CostModel(), semantics.CostModel(unit=2))
# (snapshot bound, cost model, tolerance): every bound, each cost model and
# tolerance under more than one bound, and no two neighbours alike.
CALLS = ((16, 0, 0), (64, 1, 0), (32, 0, 1), (200, 0, 0), (16, 1, 1), (64, 0, 0),
         (200, 1, 1), (32, 1, 0), (16, 0, 0), (64, 1, 1))


def summary(result: proofs.ProofResult) -> tuple:
    """All a report reads of a check, with the entry at which each entry's
    shared result was first used."""
    first: dict[int, int] = {}
    shared = tuple(first.setdefault(id(r), k) for k, (_, r) in enumerate(result.entries))
    return (result.entries, shared, result.overall, result.message, result.certified,
            result.warnings, result.assertions)


def check(annotated: asrt.AnnotatedProgram, call: tuple) -> proofs.ProofResult:
    bound, costs, tolerance = call
    return proofs.check_proof(annotated, COSTS[costs], bound, tolerance)


def assert_kept_match_fresh(source: str, annotate, monkeypatch) -> None:
    """Each of :data:`CALLS` on one program, then each again in reverse
    order, equals the same call on a fresh parse; the second pass reads
    only what the first kept."""
    shared = lang.parse_program(source)
    want = {}
    for call in CALLS:
        want[call] = summary(check(annotate(lang.parse_program(source)), call))
        assert summary(check(annotate(shared), call)) == want[call], call
    calls = counting(monkeypatch)
    for call in reversed(CALLS):
        assert summary(check(annotate(shared), call)) == want[call], call
    assert calls == []


@pytest.mark.parametrize("name", OWN_OUTLINES + CERTIFY_CORPUS)
def test_corpus_kept_matches_fresh(name, monkeypatch):
    if name in OWN_OUTLINES:
        source, annotate = (PROGRAMS / name).read_text(encoding="utf-8"), asrt.annotate_program
    else:
        source, annotate = (CORPUS / name).read_text(encoding="utf-8"), certify_outline
    assert_kept_match_fresh(source, annotate, monkeypatch)


def generated_sources(seed: int, pool) -> list[str]:
    """Six two-thread outlines drawn as ``test_outline_soundness`` draws
    them, proven or not; the last three with a leak postulate on a print
    at the end of thread A."""
    rng = random.Random(seed)
    sources = []
    for k in range(6):
        threads = [_thread(rng, pool), _thread(rng, pool)]
        if k >= 3:
            body, post = threads[0]
            mark = f"@leaky {{| {rng.choice(POSTULATES)} |}} print(x);"
            threads[0] = (body + ((post, mark),), post)
        sources.append(_program_source(threads))
    return sources


@pytest.mark.parametrize("pool,seed", [(STORE, 1), (CLOCK, 2), (CLOCK, 3)],
                         ids=["store-1", "clock-2", "clock-3"])
def test_generated_kept_matches_fresh(pool, seed, monkeypatch):
    for source in generated_sources(seed, pool):
        with monkeypatch.context() as patch:
            assert_kept_match_fresh(source, asrt.annotate_program, patch)


# The clock outline of ROADMAP item 1, proven at 64 although its only run
# prints at t = 100, and an outline whose post compares twice one snapshot
# with another, which is no difference constraint, so both slots range
# over the box.
ITEM_ONE = ("var h : int[0..1] label high = secret;\n"
            "thread A { {| true |} delay(100); {| t >= 100 |} print('x'); } post {| false |}\n")
NOT_DIFFERENCE = ("var h : int[0..1] label high = secret;\n"
                  "thread A { {| true |} print('a'); {| true |} print('b'); } "
                  "post {| 2 * t@l0 <= t@l1 + 40 |}\n")


@pytest.mark.parametrize("source,bounds,verdicts", [
    (ITEM_ONE, (64, 200, 64), ("proven", "refuted", "proven")),
    (NOT_DIFFERENCE, (16, 64, 16), ("proven", "refuted", "proven")),
], ids=["clock", "not-difference"])
def test_kept_results_never_cross_a_bound(source, bounds, verdicts, monkeypatch):
    shared = lang.parse_program(source)
    calls = counting(monkeypatch)
    for k, (bound, verdict) in enumerate(zip(bounds, verdicts)):
        kept = len(calls)
        got = proofs.check_proof(asrt.annotate_program(shared), snapshot_bound=bound)
        again = len(calls) - kept
        fresh = proofs.check_proof(asrt.annotate_program(lang.parse_program(source)),
                                   snapshot_bound=bound)
        assert summary(got) == summary(fresh)
        assert got.overall == verdict
        bounded = sum(r.bounded for r in got.discharged())
        # The first call discharges every triple, the second only those
        # that read the bound, and the third, at the first bound, none.
        assert again == [len(got.discharged()), bounded, 0][k] and bounded > 0
    [(_, refuted)] = proofs.check_proof(asrt.annotate_program(shared),
                                        snapshot_bound=bounds[1]).by_status("counterexample")
    if source is ITEM_ONE:
        assert refuted.counterexample["clock"] == 100


def test_a_second_bound_discharges_nothing_on_the_flagship(monkeypatch):
    # Every atom of its outline is on the store or a difference of
    # snapshots, so no discharge reads the bound.
    program = load_program("semaphore_pair_annotated.cwl")
    calls = counting(monkeypatch)
    made = []
    for bound in (16, 32, 64, 1024):
        kept = len(calls)
        result = proofs.check_proof(asrt.annotate_program(program), snapshot_bound=bound)
        made.append(len(calls) - kept)
        assert result.overall == "proven"
    assert made[0] == len(result.discharged()) and made[1:] == [0, 0, 0]


def test_a_negative_bound_is_refused_after_results_were_kept():
    program = load_program("semaphore_pair_annotated.cwl")
    proofs.check_proof(asrt.annotate_program(program), snapshot_bound=16)
    for p in (program, load_program("semaphore_pair_annotated.cwl")):
        with pytest.raises(LeakLabError, match="snapshot bound -1 is negative"):
            proofs.check_proof(asrt.annotate_program(p), snapshot_bound=-1)


def test_a_kept_result_cannot_be_changed():
    program = lang.parse_program(NOT_DIFFERENCE)
    [(_, result)] = proofs.check_proof(asrt.annotate_program(program),
                                       snapshot_bound=64).by_status("counterexample")
    with pytest.raises(AttributeError):
        result.status = "valid"
    seen = result.counterexample
    seen["store"]["h"] = 7
    seen["snapshots"]["A.l0"].append(5)
    seen["snapshots"]["A.l1"] = []
    seen["clock"] = 0
    [(_, again)] = proofs.check_proof(asrt.annotate_program(program),
                                      snapshot_bound=64).by_status("counterexample")
    assert again is result and again.counterexample == proofs.check_proof(
        asrt.annotate_program(lang.parse_program(NOT_DIFFERENCE)),
        snapshot_bound=64).by_status("counterexample")[0][1].counterexample
