"""The control table behind ``semantics.step``.

Each program is compiled once into a table; these tests hold it to the
slow references it replaced: expressions against ``expr_oracle``'s AST
walk, and every step against the residue rule of the AST interpreter
(unfold the head, keep the rest).  They also check the invariant that
makes a thread's head statement key its whole residue in
``explorer.search``, that no step reads an exit label or a domain off the
AST, and that nothing but the table outlives a call.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_oracle
from leaklab import assertions as asrt
from leaklab import explorer, lang, semantics
from leaklab.errors import DomainError, LeakLabError

from conftest import PROGRAMS, visits
from test_explore_oracle import family_member, small_programs

CORPUS_FILES = sorted(PROGRAMS.rglob("*.cwl"))


# ---------------------------------------------------------------------------
# compile_expr against the AST interpreter
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "p", "q", "u")  # u is never bound
ALL_OPS = lang.BOOL_OPS + lang.CMP_OPS + lang.ADD_OPS + ("*",)

leaves = st.one_of(
    st.integers(-3, 5).map(lang.IntLit),
    st.booleans().map(lang.BoolLit),
    st.just(lang.StrLit("s")),
    st.sampled_from(NAMES).map(lang.Var),
)
expressions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(lang.UnaryOp, st.sampled_from(("-", "not")), inner),
        st.builds(lang.BinOp, st.sampled_from(ALL_OPS), inner, inner)),
    max_leaves=8)


@st.composite
def stores(draw) -> dict:
    full = {"a": draw(st.integers(-2, 3)), "b": draw(st.integers(-2, 3)),
            "p": draw(st.booleans()), "q": draw(st.booleans())}
    kept = draw(st.sets(st.sampled_from(sorted(full))))
    return {name: value for name, value in full.items() if name in kept}


def outcome(evaluate):
    try:
        value = evaluate()
    except LeakLabError as e:
        return "error", str(e)
    return "value", type(value), value


@settings(max_examples=400, deadline=None)
@given(expressions, stores())
def test_compiled_expressions_match_the_interpreter(e, store):
    # Values, their types (a bool stays a bool) and every error: an unbound
    # variable, a bool where an int is expected, a string outside print.
    want = outcome(lambda: expr_oracle.eval_expr(e, store))
    assert outcome(lambda: semantics.compile_expr(e)(store)) == want
    guard = outcome(lambda: expr_oracle.eval_guard(e, store))
    assert outcome(lambda: lang.as_bool(semantics.compile_expr(e)(store))) == guard


@pytest.mark.parametrize("text,store,want", [
    ("q", {}, ("error", "variable 'q' unbound")),
    ("p + 1", {"p": True}, ("error", "expected int, got True")),
    ("1 < p", {"p": False}, ("error", "expected int, got False")),
    ("-p", {"p": True}, ("error", "expected int, got True")),
])
def test_compiled_errors(text, store, want):
    e = lang.parse_expr(lang.TokenStream(lang.tokenize(text)))
    assert outcome(lambda: semantics.compile_expr(e)(store)) == want
    assert outcome(lambda: expr_oracle.eval_expr(e, store)) == want


def test_string_literal_outside_print():
    want = ("error", "string literal outside print")
    assert outcome(lambda: semantics.compile_expr(lang.StrLit("x"))({})) == want


@pytest.mark.parametrize("value,holds", [(0, False), (1, True), (2, True), (7, True)])
def test_int_guard_means_nonzero(value, holds):
    program = lang.parse_program("var x : int[0..7] label low = 0;\n"
                                 "thread A { if x then { print('t'); } else { print('f'); }; }")
    config = semantics.initial_configuration(program, {"x": value})
    config = semantics.step(program, config, semantics.StepChoice(0))
    assert config.residues[0][0].value.value == ("t" if holds else "f")


# ---------------------------------------------------------------------------
# Residues are static continuations, and steps follow the AST rule
# ---------------------------------------------------------------------------

def reference_residue(residue: tuple, store: dict) -> tuple:
    """The residue after one step by the AST interpreter's rule."""
    head, rest = residue[0], residue[1:]
    if isinstance(head, lang.If):
        taken = expr_oracle.eval_guard(head.guard, store)
        return (head.then_body if taken else head.else_body) + rest
    if isinstance(head, lang.While):
        return head.body + (head,) + rest if expr_oracle.eval_guard(head.guard, store) else rest
    return rest


def assert_residues_are_continuations(program: lang.Program, max_depth: int = 40,
                                      max_configs: int = 3_000) -> int:
    """Walk every configuration reachable within ``max_depth`` steps; return
    how many were checked."""
    nodes = semantics.control_table(program).nodes
    checked = 0
    for valuation in explorer.secret_domain_of(program) or ((),):
        store = {**program.initial_store(), **dict(valuation)}
        root = semantics.initial_configuration(program, store)
        seen = set()
        stack = [(root, 0)]
        while stack and checked < max_configs:
            config, depth = stack.pop()
            key = (tuple(tuple(map(id, r)) for r in config.residues), config.store,
                   config.clock)
            if key in seen:
                continue
            seen.add(key)
            checked += 1
            for residue in config.residues:
                if residue:
                    assert residue == nodes[id(residue[0])].continuation
            if depth == max_depth:
                continue
            for choice in semantics.enabled(program, config):
                try:
                    nxt = semantics.step(program, config, choice)
                except (DomainError, LeakLabError):
                    continue
                residue = config.residues[choice.thread]
                want = reference_residue(residue, config.store_dict())
                assert nxt.residues[choice.thread] == want, residue[0].label
                stack.append((nxt, depth + 1))
    return checked


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_residues_are_continuations(path: Path):
    program = lang.parse_program(path.read_text(encoding="utf-8"))
    assert assert_residues_are_continuations(program) > 0


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (0, 1, 2)])
def test_family_residues_are_continuations(n: int, k: int):
    assert assert_residues_are_continuations(lang.parse_program(family_member(n, k))) > 0


@settings(deadline=None)
@given(small_programs())
def test_generated_residues_are_continuations(source: str):
    assert_residues_are_continuations(lang.parse_program(source), max_depth=12)


def test_loop_bodies_continue_at_the_loop_head():
    program = lang.parse_program(
        "var i : int[0..2] label low = 0;\n"
        "thread A { while i < 2 do { if i = 0 then { skip; } else { delay(1); }; "
        "i = i + 1; }; print('e'); }")
    loop = program.threads[0].body[0]
    branch, bump = loop.body
    nodes = semantics.control_table(program).nodes
    assert nodes[id(branch.then_body[0])].continuation == (
        branch.then_body[0], bump, loop, program.threads[0].body[1])
    assert nodes[id(loop)].alt == (program.threads[0].body[1],)
    assert nodes[id(bump)].succ == nodes[id(loop)].continuation


# ---------------------------------------------------------------------------
# Exit labels and domains come from the table
# ---------------------------------------------------------------------------

EXITS = ("var h : int[0..1] label high = secret;\n"
         "var x : int[0..2] label low = 0;\n"
         "thread A { if h then { x = x + 1; } else { skip; }; print('a'); }\n"
         "thread B { await x < 2 then { x = x + 1; }; }")


def test_steps_read_no_exit_label_or_declaration_off_the_ast(monkeypatch):
    program = lang.parse_program(EXITS)

    def walked(*args):
        raise AssertionError("walked the AST")

    monkeypatch.setattr(lang, "exit_label", walked)
    monkeypatch.setattr(lang.Program, "decl", walked)
    assert program.labels_of_thread(0)[-1] == lang.LocationId(0, 4)
    assert program.labels_of_thread(1)[-1] == lang.LocationId(1, 2)
    found = explorer.search(program, {"h": 1, "x": 0}, explorer.ExploreBounds(),
                            semantics.CostModel(),
                            frozenset({lang.LocationId(0, 4), lang.LocationId(1, 2)}))
    ends = [key[4] for key, outcome in visits(found) if isinstance(outcome, str)]
    assert found.complete and ends
    exits = {loc for watched in ends for loc in found.arrivals(watched)}
    assert exits == {lang.LocationId(0, 4), lang.LocationId(1, 2)}
    states, complete = asrt.states_at_location(
        program, lang.LocationId(0, 4), frozenset(), ((("h", 0),),),
        explorer.ExploreBounds())
    assert complete and {s["x"] for s, _, _, _ in states} == {0, 1}


def test_domain_error_message_is_unchanged():
    program = lang.parse_program("var x : int[0..3] label low = 3;\n"
                                 "thread A { skip; x = x + 1; }")
    config = semantics.initial_configuration(program, {"x": 3})
    config = semantics.step(program, config, semantics.StepChoice(0))
    with pytest.raises(DomainError) as raised:
        semantics.step(program, config, semantics.StepChoice(0))
    assert str(raised.value) == ("assignment at A.l1 sets x to 4, "
                                 "outside its declared domain")


# ---------------------------------------------------------------------------
# Nothing but the table outlives a call
# ---------------------------------------------------------------------------

def test_repeated_scans_step_alike(monkeypatch):
    # The second scan reads every move from the program's table, and its
    # report, stats included, is the first's.
    program = lang.parse_program(family_member(2, 1))
    calls = []
    move = semantics.move
    monkeypatch.setattr(semantics, "move", lambda *args: calls.append(1) or move(*args))
    counts = []
    reports = []
    for _ in range(2):
        calls.clear()
        reports.append(explorer.knowledge_partition(program, {}, None,
                                                    explorer.ExploreBounds()))
        counts.append(len(calls))
    assert counts[0] > counts[1] == 0
    assert reports[0] == reports[1]
    assert reports[0].stats == reports[1].stats


SHAPE = ("var h : int[0..1] label high = secret;\n"
         "thread A {{ if h then {{ delay({d}); }} else {{ skip; }}; print('x'); }}")


def test_same_shape_programs_keep_their_own_answers():
    # Parsed and scanned one after the other, so a program may well reuse
    # the memory of the one before it; each still gets its own answer.
    want = {1: ("no-leak", {3}), 3: ("leak-found", {3, 5})}
    for _ in range(3):
        for d, (verdict, stamps) in want.items():
            report = explorer.knowledge_partition(
                lang.parse_program(SHAPE.format(d=d)), {}, None, explorer.ExploreBounds())
            assert report.verdict == verdict
            assert {t for obs in report.knowledge for _, t in obs.events} == stamps
