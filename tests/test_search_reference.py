"""Differential test: ``explorer.search``, which steps each thread once per
head statement and store, against ``edge_search``, which steps once per
edge on full configurations.

Both must return equal ``Search`` records, whole: the same keys in the
same order, the same graph and labels, cells and counts included, for
every watch set tried, or raise the same error.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import explorer, lang, semantics
from leaklab.errors import DomainError, LeakLabError

from conftest import PROGRAMS
from edge_search import search_by_edges
from test_explore_oracle import family_member, small_programs

CORPUS_FILES = sorted(PROGRAMS.rglob("*.cwl"))


def run(engine, program: lang.Program, store: dict, bounds: explorer.ExploreBounds,
        watch: frozenset):
    try:
        return engine(program, store, bounds, semantics.CostModel(), watch)
    except LeakLabError as e:
        return type(e), str(e)


def watch_sets(program: lang.Program, every: bool = True) -> list[frozenset]:
    """No location, thread 0's last two, and every location if ``every``."""
    watches = [frozenset(), frozenset(program.labels_of_thread(0)[-2:])]
    if every:
        watches.append(frozenset(loc for t in range(len(program.threads))
                                 for loc in program.labels_of_thread(t)))
    return watches


def assert_same_search(program: lang.Program, max_steps: int = 200,
                       max_configs: int = 200_000, every: bool = True) -> None:
    for blind in (False, True):
        bounds = explorer.ExploreBounds(max_steps=max_steps, max_configs=max_configs,
                                        timing_blind=blind)
        for valuation in explorer.secret_domain_of(program) or ((),):
            store = {**program.initial_store(), **dict(valuation)}
            for watch in watch_sets(program, every):
                want = run(search_by_edges, program, store, bounds, watch)
                got = run(explorer.search, program, store, bounds, watch)
                assert got == want, (valuation, blind, sorted(watch))


@pytest.mark.parametrize("max_steps", (6, 200))
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_matches_reference(path: Path, max_steps: int):
    assert_same_search(lang.parse_program(path.read_text(encoding="utf-8")), max_steps)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)])
def test_family_matches_reference(n: int, k: int):
    # Watching every location of the larger members splits too many states.
    assert_same_search(lang.parse_program(family_member(n, k)), 1_000, every=n < 3)


def test_config_cap_matches_reference(semaphore_pair):
    for cap in (1, 5, 17):
        assert_same_search(semaphore_pair, max_configs=cap)


# B's second assignment leaves x's domain on every schedule.
OVERFLOW = ("var x : int[0..2] label low = 0;\n"
            "thread A { print('a'); delay(2); }\n"
            "thread B { x = x + 1; x = x + 2; }")

# A blocks until B opens its await, and C blocks forever.
BLOCKED = ("var x : int[0..1] label low = 0;\n"
           "thread A { await x = 1 then { print('in'); x = 0; }; print('out'); }\n"
           "thread B { delay(3); x = 1; }\n"
           "thread C { await x = 1 then { skip; }; }")


def test_domain_error_matches_reference():
    program = lang.parse_program(OVERFLOW)
    assert_same_search(program)
    raised = run(explorer.search, program, program.initial_store(),
                    explorer.ExploreBounds(), frozenset())
    assert raised[0] is DomainError


def test_blocked_await_matches_reference():
    program = lang.parse_program(BLOCKED)
    assert_same_search(program)
    found = run(explorer.search, program, program.initial_store(),
                   explorer.ExploreBounds(), frozenset())
    assert found.deadlocked > 0 and found.steps < found.edges


@settings(deadline=None)
@given(small_programs(), st.integers(1, 9))
def test_generated_programs_match_reference(source: str, max_steps: int):
    assert_same_search(lang.parse_program(source), max_steps)
