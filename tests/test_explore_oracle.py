"""Differential test: ``explorer.explore`` against the schedule enumerator.

The explorer memoises distinct program states; ``schedule_oracle`` walks
every schedule.  Both must report the same observations, each with its
terminated flag, the same cut-short prefixes and the same completeness.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import explorer, lang

from conftest import PROGRAMS
from schedule_oracle import enumerate_schedules

MODES = {
    "timed": {},
    "blind": {"timing_blind": True},
    "timed-ids": {"observe_thread_ids": True},
    "blind-ids": {"timing_blind": True, "observe_thread_ids": True},
}

REGION = "await sem > 0 then { sem = sem - 1; v = v + 1; sem = sem + 1; };"

LOOPY = ("var h : int[0..1] label high = secret;\n"
         "thread A { while true do { print('x'); }; }\n"
         "thread B { print('y'); }")


def family_member(n: int, k: int) -> str:
    """The generated family: n threads each print k letters, then thread 0
    takes the region only when h is nonzero and the others always take it,
    then each prints its end token."""
    threads = []
    for t in range(n):
        body = [f"print('{chr(ord('a') + t)}{i}');" for i in range(k)]
        body.append(f"if h then {{ {REGION} }} else {{ skip; }};" if t == 0 else REGION)
        body.append(f"print('e{t}');")
        threads.append(f"thread T{t} {{ {' '.join(body)} }}")
    return ("var h : int[0..1] label high = secret;\n"
            "var sem : int[0..1] label low = 1;\n"
            "var v : int[0..20] label low = 0;\n" + "\n".join(threads))


def assert_same(program: lang.Program, bounds: explorer.ExploreBounds) -> None:
    valuations = explorer.secret_domain_of(program) or ((),)
    for valuation in valuations:
        result = explorer.explore(program, {}, dict(valuation), bounds)
        observations, prefixes, complete = enumerate_schedules(
            program, {}, dict(valuation), bounds)
        assert result.observations == observations, valuation
        assert result.prefixes == prefixes, valuation
        assert result.complete == complete, valuation


CORPUS_FILES = sorted(PROGRAMS.rglob("*.cwl"))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_matches_oracle(path: Path, mode: str):
    program = lang.parse_program(path.read_text(encoding="utf-8"))
    assert_same(program, explorer.ExploreBounds(**MODES[mode]))


@pytest.mark.parametrize("mode", ("timed", "blind"))
@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)])
def test_family_matches_oracle(n: int, k: int, mode: str):
    program = lang.parse_program(family_member(n, k))
    assert_same(program, explorer.ExploreBounds(max_steps=1_000, **MODES[mode]))


@pytest.mark.parametrize("max_steps", (1, 2, 5, 9, 40))
def test_loop_cut_at_step_bound_matches_oracle(max_steps: int):
    program = lang.parse_program(LOOPY)
    for mode in ("timed", "blind"):
        assert_same(program, explorer.ExploreBounds(max_steps=max_steps, **MODES[mode]))


STATEMENTS = (
    "skip;", "print('a');", "print('b');", "print(x);", "x = 1 - x;", "delay(2);",
    "delay(h);", "if h then { print('t'); } else { skip; };",
    "if h then { skip; skip; } else { skip; };",
    "if x then { x = 0; } else { delay(1); };",
    "await x = 0 then { x = 1; print('r'); };", "await x = 1 then { x = 0; };",
    "while h do { print('w'); };", "while x < 1 do { x = 1; };",
)


@st.composite
def small_programs(draw, statements=STATEMENTS) -> str:
    threads = draw(st.lists(
        st.lists(st.sampled_from(statements), min_size=0, max_size=4),
        min_size=1, max_size=3))
    return ("var h : int[0..1] label high = secret;\n"
            "var x : int[0..1] label low = 0;\n"
            + "\n".join(f"thread T{i} {{ {' '.join(body)} }}"
                        for i, body in enumerate(threads)))


@settings(deadline=None)
@given(small_programs(), st.sampled_from(sorted(MODES)), st.integers(2, 9))
def test_generated_programs_match_oracle(source: str, mode: str, max_steps: int):
    program = lang.parse_program(source)
    assert_same(program, explorer.ExploreBounds(max_steps=max_steps, **MODES[mode]))


@settings(deadline=None)
@given(small_programs(tuple(s for s in STATEMENTS if not s.startswith("while h"))),
       st.sampled_from(("timed", "blind")), st.integers(1, 8))
def test_step_bound_moves_verdicts_only_to_inconclusive(source: str, mode: str,
                                                        max_steps: int):
    # Without the secret-guarded loop every run ends within 40 steps.
    program = lang.parse_program(source)
    full = explorer.knowledge_partition(
        program, {}, None, explorer.ExploreBounds(max_steps=40, **MODES[mode]))
    assert full.complete
    cut = explorer.knowledge_partition(
        program, {}, None, explorer.ExploreBounds(max_steps=max_steps, **MODES[mode]))
    assert cut.verdict in (full.verdict, "inconclusive")
