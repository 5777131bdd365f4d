"""``proofs.AssertionTable`` against the separate walks it replaced.

The table numbers equal assertions alike and analyses each number once
from the forms of its subterms; ``analysis_oracle`` walks each whole tree
for each question.  The two must agree on the free names, the snapshot
slots, the clock, the snapshot atoms and, through ``regions``, on the
representatives of every condition.
"""

from __future__ import annotations

import copy
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import assertions as asrt
from leaklab import lang, proofs, regions, semantics

import analysis_oracle
from conftest import trivially_annotate
from test_assertions import assertion_asts, int_terms
from test_discharge_oracle import POOLS, SMALL, formula

L = lang.LocationId

# ``q`` is also the variable the generated quantifiers bind, so it occurs
# both bound and free.
NAMES = ("h", "v", "q")
PROGRAM = lang.parse_program(
    "var h : int[0..1] label high = secret;\n"
    "var v : int[0..3] label low = 0;\n"
    "var q : int[0..2] label low = 0;\n"
    "thread A { print('a'); }\nthread T2 { print('b'); }")


def resolve(a: asrt.Assertion) -> asrt.Assertion:
    """Bind each snapshot term to thread 0, or 1 for ``T2``, unchecked."""
    return asrt.rewrite(a, lambda x, _bound: lang.replace(
        x, resolved=L(0 if x.thread_name is None else 1, x.index)) if isinstance(
            x, asrt.SnapshotTerm) else None)


ASSERTIONS = assertion_asts(names=NAMES).map(resolve)
# The and-trees the generators build: ``true`` parts drop out.
CONJUNCTIONS = st.lists(ASSERTIONS | st.just(asrt.TRUE), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(CONJUNCTIONS)
def test_analysed_form_matches_the_walks(parts):
    table = proofs.AssertionTable(PROGRAM)
    for part in parts:
        table.number(part)
    a = proofs._conj(*parts)
    n = table.number(a)
    free, slots, clock, atoms = table.forms[n]
    assert table.nodes[n] == a
    assert free == asrt.free_names(asrt.subterms(a))
    assert slots == analysis_oracle.slots_of(a)
    assert clock == analysis_oracle.uses_clock(a)
    assert {table.nodes[k] for k in atoms} == set(analysis_oracle.snapshot_atoms(a))


def assert_walks_agree(vc: proofs.VC, program: lang.Program, tolerance: int) -> None:
    table = proofs.AssertionTable(program, tolerance)
    symbols = table.symbols(vc)
    assert symbols == analysis_oracle.vc_symbols(vc, program)
    slot_of, n_slots = analysis_oracle.slot_numbering(symbols[1])

    def slot_of_key(key: tuple) -> int:
        loc, arrival = key
        return slot_of(asrt.SnapshotTerm(None, loc.index, arrival, loc))

    assert regions.representatives(table.snapshot_atoms(vc), slot_of_key, n_slots, 40) == (
        analysis_oracle.representatives((vc.pre, vc.post), slot_of, n_slots, tolerance, 40))


@settings(max_examples=200, deadline=None)
@given(CONJUNCTIONS, CONJUNCTIONS, st.sampled_from((None, PROGRAM.threads[0].body[0])),
       st.integers(0, 2))
def test_symbols_and_representatives_match_the_walks(pre, post, stmt, tolerance):
    vc = proofs.VC(proofs._conj(*pre), stmt, proofs._conj(*post), proofs.SEQUENTIAL, "")
    assert_walks_agree(vc, PROGRAM, tolerance)


# Difference atoms over pools in which the latest arrival at l1 and an
# indexed one can be the same snapshot slot.
DIFFERENCE = st.sampled_from(POOLS).flatmap(
    lambda pool: st.lists(formula(pool), min_size=1, max_size=3)).map(
        lambda texts: [asrt.resolve_assertion(asrt.parse_assertion(text), SMALL, 0)
                       for text, _ in texts])


@settings(max_examples=200, deadline=None)
@given(DIFFERENCE, DIFFERENCE, st.integers(0, 2))
def test_difference_atoms_match_the_walks(pre, post, tolerance):
    vc = proofs.VC(proofs._conj(*pre), None, proofs._conj(*post), proofs.SEQUENTIAL, "")
    assert_walks_agree(vc, SMALL, tolerance)


@lang.record(frozen=True)
class Twin(lang.Expr):
    """The fields of ``lang.UnaryOp`` under another node type."""

    op: str
    operand: lang.Expr


TWINS = st.one_of(
    st.sampled_from((lang.IntLit(1), lang.BoolLit(True), lang.IntLit(0),
                     lang.BoolLit(False), asrt.ClockTerm(), lang.Expr())),
    int_terms(("v",), 0).map(resolve))


def twin_trees(depth: int = 2) -> st.SearchStrategy:
    if depth == 0:
        return TWINS
    sub = twin_trees(depth - 1)
    return st.one_of(
        TWINS,
        st.builds(lang.UnaryOp, st.sampled_from(("not", "-")), sub),
        st.builds(Twin, st.sampled_from(("not", "-")), sub),
        st.builds(lang.BinOp, st.sampled_from(("and", "=")), sub, sub))


@settings(max_examples=200, deadline=None)
@given(st.lists(twin_trees() | ASSERTIONS, min_size=1, max_size=6))
def test_one_number_iff_equal(terms):
    terms = terms + [copy.deepcopy(t) for t in terms]
    table = proofs.AssertionTable(PROGRAM)
    numbers = [table.number(t) for t in terms]
    for a, m in zip(terms, numbers):
        assert table.nodes[m] == a
        for b, n in zip(terms, numbers):
            assert (m == n) == (a == b), (a, b)


def test_equal_fields_under_other_types_get_other_numbers():
    table = proofs.AssertionTable(PROGRAM)
    v = lang.Var("v")
    pairs = [(lang.IntLit(1), lang.BoolLit(True)), (asrt.ClockTerm(), lang.Expr()),
             (lang.UnaryOp("not", v), Twin("not", v)),
             (lang.BinOp("=", lang.IntLit(1), v), lang.BinOp("=", lang.BoolLit(True), v))]
    for a, b in pairs:
        assert table.number(a) != table.number(b)
        assert table.number(a) == table.number(copy.deepcopy(a))


def test_a_conjunction_of_numbered_parts_adds_one_number():
    a, b = (resolve(asrt.parse_assertion(text)) for text in ("t@l0 - t@l1 < 3", "v = 1"))
    table = proofs.AssertionTable(PROGRAM)
    table.number(a), table.number(b)
    size = len(table.nodes)
    assert table.number(proofs._conj(a, b)) == table.number(proofs._conj(a, b)) == size
    assert len(table.nodes) == size + 1


def test_a_quantifier_does_not_bind_its_variable_outside():
    table = proofs.AssertionTable(PROGRAM)
    bound = asrt.parse_assertion("forall q in 0..2 : q >= 0")
    free = asrt.parse_assertion("q >= 0")
    assert table.forms[table.number(bound)][0] == frozenset()
    assert table.forms[table.number(free)][0] == {"q"}
    both = lang.BinOp("and", bound, free)
    assert table.forms[table.number(both)][0] == {"q"}


def test_the_table_does_not_outlive_the_proof(monkeypatch):
    tables = []

    class Recorded(proofs.AssertionTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(weakref.ref(self))

    monkeypatch.setattr(proofs, "AssertionTable", Recorded)
    program = lang.parse_program(
        "var x : int[0..3] label low = 0;\nthread A { x = x + 1; print('a'); }")
    result = proofs.check_proof(trivially_annotate(program))
    assert result.overall == "proven" and result.assertions > 0
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None


def test_the_kept_results_go_with_the_program():
    program = lang.parse_program(
        "var x : int[0..3] label low = 0;\nthread A { x = x + 1; print('a'); }")
    results = [proofs.check_proof(trivially_annotate(program), snapshot_bound=bound)
               for bound in (64, 16, 64)]
    assert [r.overall for r in results] == ["proven"] * 3
    assert len({r.assertions for r in results}) == 1 and results[0].assertions > 0
    # Every check reads the results the first one kept.
    assert all(a is b for r in results[1:]
               for (_, a), (_, b) in zip(r.entries, results[0].entries))
    table = semantics.control_table(program)
    [(numbers, kept)] = table.proofs(semantics.CostModel()).values()
    assert {id(r) for r in kept.values()} == {id(r) for r in results[0].discharged()}
    assert numbers
    refs = [weakref.ref(program), weakref.ref(table), weakref.ref(results[0].entries[0][1])]
    del program, table, numbers, kept, results
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_a_table_serves_only_its_program_and_tolerance():
    program = lang.parse_program("var x : int[0..3] label low = 0;\nthread A { print('a'); }")
    vc = proofs.VC(asrt.TRUE, None, asrt.TRUE, proofs.SEQUENTIAL, "")
    assert proofs.discharge_vc(vc, program, table=proofs.AssertionTable(program)).status == "valid"
    for table in (proofs.AssertionTable(PROGRAM), proofs.AssertionTable(program, 1)):
        with pytest.raises(ValueError):
            proofs.discharge_vc(vc, program, table=table)
