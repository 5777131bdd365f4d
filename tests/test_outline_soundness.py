"""Owicki–Gries soundness of ``ogcheck``: a proven outline holds when run.

Every assertion of a thread's outline, its post included, must survive
each action of the other threads that can change what it reads: their
assignments and regions, and for an assertion on the clock every action,
whatever the statement it stands before.  The two programs below were
once ``proven`` although a schedule that runs B first falsifies A's post:
only the pre-assertions of assignments, regions, prints and delays were
protected, so the pre of an ``if`` or a ``while`` went unchecked.

The property tests generate two-thread programs beside a secret ``h``.
The first checks every assertion of every proven outline against every
reachable state of its location, found by a complete search over both
secret values and judged by the reference evaluator.  It runs over two
pools of assertions: one reads only the store, and one also reads the
clock, whose outlines were once proven although a skip or a print of the
other thread moved the clock past them.  The second puts a leak postulate
on a print of a store outline and checks each certified postulate the
same way: a postulate that is not rule form, or whose antecedent names no
snapshot pair, was once certified on the stability conditions alone, so
``h = 0`` was certified at a print that h = 1 reaches.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from typing import NamedTuple

import pytest

from leaklab import assertions as asrt
from leaklab import cli, explorer, lang, proofs

import assertion_oracle

DECLS = ("var x : int[0..1] label low = 0;\n"
         "var y : int[0..1] label low = 0;\n")
WRITER_B = "thread B { {| true |} x = 1; } post {| true |}\n"

UNPROTECTED_HEADS = {
    "if": "thread A { {| x = 0 and y = 0 |} if x = 0 then { skip; } else { y = 1; }; } "
          "post {| y = 0 |}\n",
    "while": "thread A { {| x = 0 and y = 0 |} while x = 1 do { y = 1; {| false |} x = 0; }; } "
             "post {| y = 0 |}\n",
}


@pytest.mark.parametrize("head", sorted(UNPROTECTED_HEADS))
def test_branch_and_loop_heads_are_protected(tmp_path, head):
    path = tmp_path / f"{head}.cwl"
    path.write_text(DECLS + UNPROTECTED_HEADS[head] + WRITER_B)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["ogcheck", str(path), "--format", "json"])
    report = json.loads(out.getvalue())
    assert (code, report["overall"]) == (1, "refuted")
    [row] = [r for r in report["vcs"] if r["provenance"] == "B.l0 preserves pre of A.l0"]
    assert row["status"] == "counterexample"
    assert row["counterexample"]["store"] == {"x": 0, "y": 0}


# ---------------------------------------------------------------------------
# Seeded properties: a proven outline, and a certified postulate, hold at
# every reachable state
# ---------------------------------------------------------------------------

SOUND_DECLS = ("var h : int[0..1] label high = secret;\n"
               "var x : int[0..2] label low = 0;\n"
               "var y : int[0..2] label low = 0;\n")
# Every assignment stays inside [0..2], so no run leaves a domain.
ATOMS = ("x = 0;", "x = 1;", "x = 2;", "y = 0;", "y = 1;", "x = y;", "y = 2 - x;",
         "x = h;", "skip;", "print(x);")
GUARDS = ("x = 0", "y = 1", "x = y")
POSTULATES = ("h = 0", "x = h", "x = 1 -> h = 1", "x = 0 -> h = 0", "y = 1 -> h = 0")


class Pool(NamedTuple):
    """The assertions a thread's first statement may carry, each true in
    the declared initial store at clock 0, and those any other statement or
    a post may carry."""

    held_at_start: tuple[str, ...]
    assertions: tuple[str, ...]


def _pool(held_at_start: tuple[str, ...], others: tuple[str, ...]) -> Pool:
    return Pool(held_at_start, held_at_start + others)


STORE = _pool(("true", "true", "true", "x = 0", "y = 0", "x = y", "x <= 1", "y <= 1"),
              ("x = 1", "y = 1", "x = h"))
# Assertions on the clock, which every action of either thread moves.
CLOCK = _pool(("true", "true", "true", "t = 0", "t <= 3", "t >= 0", "x = 0", "x = y"),
              ("t = 1", "t >= 1", "t >= 2", "t <= 3", "t <= 2", "x = 1", "x = 0 or t >= 1"))


def _annotated(rng: random.Random, stmt: str, required: bool,
               assertions: tuple[str, ...]) -> str:
    """``stmt`` behind a pre-assertion; a body's first statement may go
    without one and take its default entry."""
    if required or rng.random() < 0.5:
        return f"{{| {rng.choice(assertions)} |}} {stmt}"
    return stmt


def _body(rng: random.Random, stmts: list[str], assertions: tuple[str, ...]) -> str:
    return " ".join(_annotated(rng, s, k > 0, assertions) for k, s in enumerate(stmts))


def _statement(rng: random.Random, assertions: tuple[str, ...]) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        arms = [[rng.choice(ATOMS) for _ in range(rng.randint(0, 2))] for _ in range(2)]
        return (f"if {rng.choice(GUARDS)} then {{ {_body(rng, arms[0], assertions)} }} "
                f"else {{ {_body(rng, arms[1], assertions)} }};")
    if kind == 1:
        # The body ends by falsifying the guard, and the other thread writes
        # finitely often, so every loop ends.
        body = [rng.choice(ATOMS) for _ in range(rng.randint(0, 1))] + ["x = 0;"]
        return f"while x = 1 do {{ {_body(rng, body, assertions)} }};"
    if kind == 2:
        return f"await {rng.choice(GUARDS)} then {{ {rng.choice(ATOMS)} }};"
    return rng.choice(ATOMS)


Thread = tuple[tuple[tuple[str, str], ...], str]  # (pre, statement) pairs, post


def _program_source(threads: list[Thread]) -> str:
    return SOUND_DECLS + "".join(
        f"thread {name} {{ {' '.join(f'{{| {a} |}} {s}' for a, s in body)} }} "
        f"post {{| {post} |}}\n"
        for name, (body, post) in zip("AB", threads))


def _thread(rng: random.Random, pool: Pool) -> Thread:
    """A thread whose sequential chain is valid.  A proof needs every
    thread's chain and the threads are drawn independently, so drawing each
    until its chain is valid gives proven programs in the proportions that
    drawing whole programs does, with less waste."""
    while True:
        body = []
        for k in range(rng.randint(1, 3)):
            stmt = _statement(rng, pool.assertions)
            body.append((rng.choice(pool.held_at_start if k == 0 else pool.assertions), stmt))
        thread = (tuple(body), rng.choice(pool.assertions))
        annotated = asrt.annotate_program(lang.parse_program(_program_source([thread])))
        chain, _ = proofs.gen_sequential_vcs(annotated, 0)
        if all(proofs.discharge_vc(vc, annotated.program).status == "valid"
               for vc in chain):
            return thread


def _outline_assertions(annotated: asrt.AnnotatedProgram):
    """Every ``(location, assertion)`` of every thread's outline, posts at
    the thread's exit location."""
    for t, outline in proofs.thread_outlines(annotated).items():
        yield from ((loc, pre) for loc, (_, pre) in outline.items())
        yield annotated.program.labels_of_thread(t)[-1], annotated.posts[t]


def _false_at_reachable_state(program: lang.Program, pairs) -> list[str]:
    """The locations of the ``(location, assertion)`` pairs that some
    reachable state of their location falsifies, both secret values
    included."""
    false = []
    for loc, a in pairs:
        states, complete = asrt.states_at_location(
            program, loc, frozenset(), explorer.secret_domain_of(program),
            explorer.ExploreBounds())
        assert complete
        if not all(assertion_oracle.evaluate(a, store, snaps, clock)
                   for store, snaps, clock, _ in states):
            false.append(program.location_str(loc))
    return false


@functools.cache
def _proven_programs(seed: int, pool: Pool = STORE) -> list[list[Thread]]:
    """Of 120 two-thread programs generated from ``seed`` over ``pool``,
    the threads of those whose outline is proven."""
    rng = random.Random(seed)
    found = []
    for _ in range(120):
        threads = [_thread(rng, pool), _thread(rng, pool)]
        annotated = asrt.annotate_program(lang.parse_program(_program_source(threads)))
        if proofs.check_proof(annotated).overall == "proven":
            found.append(threads)
    return found


def _check_proven_outlines(seed: int, pool: Pool) -> int:
    programs = _proven_programs(seed, pool)
    for threads in programs:
        source = _program_source(threads)
        annotated = asrt.annotate_program(lang.parse_program(source))
        assert _false_at_reachable_state(
            annotated.program, _outline_assertions(annotated)) == [], source
    return len(programs)


@pytest.mark.parametrize("seed", (1, 2))
def test_proven_outlines_hold_at_every_reachable_state(seed):
    # The floor shows the property was checked, not passed vacuously.
    assert _check_proven_outlines(seed, STORE) >= 25


@pytest.mark.parametrize("seed", (2, 3, 4))
def test_proven_clock_outlines_hold_at_every_reachable_state(seed):
    assert _check_proven_outlines(seed, CLOCK) >= 25


@pytest.mark.parametrize("seed", (1, 2))
def test_certified_postulates_hold_at_every_reachable_state(seed):
    # Each pool postulate in turn on a print put into a proven outline,
    # before a top-level statement or at the end of a thread.  The print's
    # pre-assertion is that statement's pre or the thread's post, so the
    # outline stays proven and certification rests on the leak conditions
    # alone; no postulate names a snapshot, so its rule is judged under
    # that pre-assertion.
    certified = 0
    for threads in _proven_programs(seed):
        for k, (body, post) in enumerate(threads):
            places = enumerate([a for a, _ in body] + [post])
            for (at, pre), postulate in itertools.product(places, POSTULATES):
                marked = list(threads)
                print_x = (pre, f"@leaky {{| {postulate} |}} print(x);")
                marked[k] = (body[:at] + (print_x,) + body[at:], post)
                source = _program_source(marked)
                annotated = asrt.annotate_program(lang.parse_program(source))
                if not proofs.check_proof(annotated).certified:
                    continue
                certified += 1
                assert _false_at_reachable_state(
                    annotated.program, annotated.leaky.items()) == [], source
    assert certified >= 25
