"""Differential tests: the state search behind ``duration_stats`` and
``states_at_location`` against the schedule walk of ``schedule_oracle``.

The search watches only the locations a caller names and merges states
that differ elsewhere in their snapshots; the oracle keeps every snapshot
of every schedule.  Both must give the same durations, the same states
once the oracle's snapshots are cut down to the watched locations, and the
same completeness.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import assertions as asrt
from leaklab import explorer, lang, semantics

from conftest import PROGRAMS, visits
from schedule_oracle import duration_stats_by_schedules, states_at_location_by_schedules
from test_explore_oracle import small_programs

CORPUS_FILES = sorted(PROGRAMS.rglob("*.cwl"))


def same_thread_pairs(program: lang.Program):
    for t in range(len(program.threads)):
        labels = program.labels_of_thread(t)
        for i, loc_from in enumerate(labels):
            for loc_to in labels[i + 1:]:
                yield loc_from, loc_to


def all_locations(program: lang.Program) -> list[lang.LocationId]:
    return [loc for t in range(len(program.threads)) for loc in program.labels_of_thread(t)]


def entry(store: dict, snaps: dict, clock: int, valuation: tuple) -> tuple:
    return (tuple(sorted(store.items())), tuple(sorted(snaps.items())), clock, valuation)


def assert_durations_match(program: lang.Program, max_steps: int) -> None:
    domain = explorer.secret_domain_of(program) or ((),)
    timed = explorer.ExploreBounds(max_steps=max_steps)
    blind = explorer.ExploreBounds(max_steps=max_steps, timing_blind=True)
    for loc_from, loc_to in same_thread_pairs(program):
        want = duration_stats_by_schedules(program, loc_from, loc_to, domain, timed)
        for bounds in (timed, blind):
            got = explorer.duration_stats(program, loc_from, loc_to, domain, bounds)
            assert got == want, (loc_from, loc_to, bounds)


def assert_states_match(program: lang.Program, max_steps: int) -> None:
    domain = explorer.secret_domain_of(program) or ((),)
    timed = explorer.ExploreBounds(max_steps=max_steps)
    blind = explorer.ExploreBounds(max_steps=max_steps, timing_blind=True)
    starts = {program.labels_of_thread(t)[0] for t in range(len(program.threads))}
    for loc in all_locations(program):
        watch = frozenset(starts | {loc})
        want_states, want_complete = states_at_location_by_schedules(
            program, loc, domain, timed)
        want = {entry(store, {l: v for l, v in snaps.items() if l in watch}, clock, val)
                for store, snaps, clock, val in want_states}
        for bounds in (timed, blind):
            states, complete = asrt.states_at_location(program, loc, watch, domain, bounds)
            got = [entry(*state) for state in states]
            assert len(got) == len(set(got)), (loc, "a state listed twice")
            assert set(got) == want, (loc, bounds)
            assert complete == want_complete, (loc, bounds)


@pytest.mark.parametrize("max_steps", (8, 200))
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_durations_match_oracle(path: Path, max_steps: int):
    assert_durations_match(lang.parse_program(path.read_text(encoding="utf-8")), max_steps)


@pytest.mark.parametrize("max_steps", (8, 200))
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_states_match_oracle(path: Path, max_steps: int):
    assert_states_match(lang.parse_program(path.read_text(encoding="utf-8")), max_steps)


# Once A has printed 's', C's assignment decides whether B delays, so states
# with the same arrivals at A's locations differ in their clocks alone.
CLOCK_SPLIT = ("var x : int[0..1] label low = 0;\n"
               "thread A { print('s'); print('e'); }\n"
               "thread B { if x then { delay(5); } else { skip; }; }\n"
               "thread C { x = 1; }")


def test_timing_blind_bounds_keep_the_clock():
    program = lang.parse_program(CLOCK_SPLIT)
    assert_durations_match(program, 200)
    assert_states_match(program, 200)
    stats = explorer.duration_stats(program, lang.LocationId(0, 0), lang.LocationId(0, 2),
                                    None, explorer.ExploreBounds(timing_blind=True))
    assert stats.durations[()] == {2, 3, 4, 5, 9}


# Whether B runs first or not, A reaches print('e') by a different branch
# after the same number of steps, with the same store and clock, so the
# search merges the two states by A's head statement alone.  That is exact
# only while each residue is the static continuation of its head; a step
# that left the two residues different after the head would lose states.
REJOIN = ("var x : int[0..1] label low = 0;\n"
          "thread A { if x then { print('t'); } else { skip; }; print('e'); }\n"
          "thread B { x = 1; }")


def test_branches_that_rejoin_match_oracle():
    program = lang.parse_program(REJOIN)
    assert_durations_match(program, 200)
    assert_states_match(program, 200)


def test_states_watching_everything_match_oracle(semaphore_pair):
    # Watching every location, the search keeps every snapshot the oracle does.
    domain = explorer.secret_domain_of(semaphore_pair)
    watch = frozenset(all_locations(semaphore_pair))
    bounds = explorer.ExploreBounds()
    for loc in watch:
        want, _ = states_at_location_by_schedules(semaphore_pair, loc, domain, bounds)
        got, _ = asrt.states_at_location(semaphore_pair, loc, watch, domain, bounds)
        assert {entry(*s) for s in got} == {entry(*s) for s in want}, loc


@settings(deadline=None)
@given(small_programs(), st.integers(2, 9))
def test_generated_programs_match_oracle(source: str, max_steps: int):
    program = lang.parse_program(source)
    assert_durations_match(program, max_steps)
    assert_states_match(program, max_steps)


class TestSearch:
    def test_steps_each_key_once(self, semaphore_pair, monkeypatch):
        # Watching two locations splits states by their arrivals there, but
        # every distinct key is still expanded once, and each distinct
        # (thread, head, store) triple over the edges is stepped once.
        calls = []
        move = semantics.move
        monkeypatch.setattr(semantics, "move",
                            lambda *args: calls.append(args) or move(*args))
        visited = []
        triples = set()
        edges = 0

        def visit(key, outcome):
            nonlocal edges
            visited.append(key)
            if not isinstance(outcome, str):
                edges += len(outcome)
                for _, child in outcome:
                    # Every statement of this program moves its thread on.
                    [t] = [t for t, (a, b) in enumerate(zip(key[0], child[0])) if a != b]
                    triples.add((t, key[0][t], key[1]))

        t2 = semaphore_pair.thread_index("T2")
        watch = frozenset({lang.LocationId(t2, 0), lang.LocationId(t2, 7)})
        found = explorer.search(semaphore_pair, {"h": 0, **semaphore_pair.initial_store()},
                                explorer.ExploreBounds(), semantics.CostModel(), watch)
        for key, outcome in visits(found):
            visit(key, outcome)
        assert len(visited) == len(set(visited))
        assert visited[-1] == found.root
        stepped = {(thread, head, store) for _, thread, head, store, _ in calls}
        assert len(calls) == len(stepped) == found.steps
        assert stepped == triples
        assert found.edges == edges > found.steps > 0
        assert found.complete

    def test_arrivals_keep_only_watched_locations(self, region_thread):
        watch = frozenset({lang.LocationId(0, 7)})
        found = explorer.search(region_thread, {"h": 1, **region_thread.initial_store()},
                                explorer.ExploreBounds(), semantics.CostModel(), watch)
        ends = [key[4] for key, outcome in visits(found) if isinstance(outcome, str)]
        # print c (1), the branch (1), the region (entry 1 + body 3): l7 at 6.
        assert [found.arrivals(w) for w in ends] == [{lang.LocationId(0, 7): (6,)}]

    def test_repeated_arrivals_share_cells(self):
        # A loop through a watched location adds one cell per arrival, and
        # the history reads back oldest first.
        p = lang.parse_program("var i : int[0..3] label low = 0;\n"
                               "thread A { while i < 3 do { print('s'); i = i + 1; }; }")
        found = explorer.search(p, p.initial_store(), explorer.ExploreBounds(),
                                semantics.CostModel(), frozenset({lang.LocationId(0, 1)}))
        ends = [key[4] for key, outcome in visits(found) if isinstance(outcome, str)]
        [watched] = ends
        assert found.arrivals(watched) == {lang.LocationId(0, 1): (1, 4, 7)}
        assert len(found.cells) == 4
