"""Differential test: the class rule of ``explorer`` against one search per
valuation.

``knowledge_partition`` explores one secret valuation per class of
valuations the program cannot tell apart, and the duration measures and
``assertions.states_at_location`` search one per class;
``knowledge_oracle`` and singleton secret domains explore every valuation.  Both must give the same knowledge sets, leak
verdicts, completeness and stats, and raise the same error.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leaklab import assertions, explorer, lang
from leaklab.errors import LeakLabError

import knowledge_oracle
from conftest import PROGRAMS

MODES = {
    "timed": {},
    "blind": {"timing_blind": True},
    "timed-ids": {"observe_thread_ids": True},
    "blind-ids": {"timing_blind": True, "observe_thread_ids": True},
}

DECLS = ("var h : int[0..3] label high = secret;\n"
         "var g : bool label high = secret;\n"
         "var x : int[0..1] label low = 0;\n")

# Guards, prints, delays and mixed expressions that read the secrets, two
# secret assignments and an assignment that leaves x's domain for h >= 2.
STATEMENTS = (
    "skip;", "print('a');", "print(x);", "x = 1 - x;", "delay(1);",
    "if h then { print('t'); } else { skip; };",
    "if h > 1 then { skip; skip; } else { skip; };",
    "if g then { delay(2); } else { skip; };",
    "if (h > 1) = g then { print('q'); } else { skip; };",
    "if x < h then { x = 1; } else { skip; };",
    "while h = 3 and x = 0 do { x = 1; };",
    "await h != 2 then { print('r'); };",
    "print(h);", "print(g);", "print(h * 2 > 3);", "print(x + h);",
    "delay(h);", "delay(h - h);",
    "g = true;", "h = x;", "x = h;",
)


def _outcome(scan, program, bounds):
    """The report of ``scan``, or the error it raised."""
    try:
        return scan(program, {}, None, bounds)
    except LeakLabError as e:  # compared by type and message
        return type(e), str(e)


def assert_same(program: lang.Program, bounds: explorer.ExploreBounds) -> int:
    """Compare the class rule with the oracle; return the searches made."""
    explored = []
    real = explorer.explore

    def counted(*args, **kwargs):
        explored.append(args[2])
        return real(*args, **kwargs)

    explorer.explore = counted
    try:
        got = _outcome(explorer.knowledge_partition, program, bounds)
    finally:
        explorer.explore = real
    want = _outcome(knowledge_oracle.knowledge_partition, program, bounds)
    if isinstance(want, tuple):
        assert got == want
        return len(explored)
    assert not isinstance(got, tuple), got
    assert got.secret_domain == want.secret_domain
    assert got.knowledge == want.knowledge
    assert got.leaky == want.leaky
    assert (got.verdict, got.complete) == (want.verdict, want.complete)
    assert [{k: v for k, v in row.items() if k != "explored_as"}
            for row in got.stats] == want.stats
    # Each entry reuses the search of a valuation that was explored for itself.
    firsts = [row["explored_as"] for row in got.stats if row["explored_as"] == row["secret"]]
    assert firsts == explored
    assert all(row["explored_as"] in firsts for row in got.stats)
    return len(explored)


@st.composite
def secret_programs(draw) -> str:
    # Statements from a small vocabulary, so that reads of the secrets and
    # secret assignments meet without other reads that split every class.
    vocabulary = draw(st.lists(st.sampled_from(STATEMENTS), min_size=1, max_size=5,
                               unique=True))
    threads = draw(st.lists(
        st.lists(st.sampled_from(vocabulary), min_size=0, max_size=4),
        min_size=1, max_size=3))
    return DECLS + "\n".join(f"thread T{i} {{ {' '.join(body)} }}"
                             for i, body in enumerate(threads))


@settings(deadline=None, max_examples=600)
@given(secret_programs(), st.sampled_from(sorted(MODES)),
       st.sampled_from((3, 8, 40)), st.sampled_from((6, 40, 200_000)))
def test_generated_programs_match_oracle(source: str, mode: str, max_steps: int,
                                         max_configs: int):
    program = lang.parse_program(source)
    assert_same(program, explorer.ExploreBounds(max_steps=max_steps,
                                                max_configs=max_configs, **MODES[mode]))


@pytest.mark.parametrize("body,searches", [
    # A guard's truth value alone: h = 1, 2 and 3 share a class.
    ("if h then { print('t'); } else { skip; };", 2),
    # A value context tells every h apart, though the guard does not.
    ("if h then { skip; } else { skip; }; print(h);", 4),
    # A secret-only value the same for every h: one class.
    ("delay(h - h); print('a');", 1),
    # (h > 1) = g is true for (2, true) and (0, false) until g is set.
    ("if (h > 1) = g then { print('q'); } else { skip; }; g = true; "
     "if (h > 1) = g then { print('q'); } else { skip; };", 8),
    ("g = true; if (h > 1) = g then { print('q'); } else { skip; };", 8),
])
def test_classes_of_fixed_programs(body: str, searches: int):
    program = lang.parse_program(DECLS + f"thread A {{ {body} }}\nthread B {{ print('b'); }}")
    for mode in MODES.values():
        assert assert_same(program, explorer.ExploreBounds(**mode)) == searches


WIDE = ("var h : int[0..15] label high = secret;\n"
        "thread A { print('a'); if h > 7 then { delay(3); } else { skip; }; print('b'); }\n"
        "thread B { print('c'); }\n")


def test_wide_secret_explores_twice():
    program = lang.parse_program(WIDE)
    for mode in MODES.values():
        assert assert_same(program, explorer.ExploreBounds(**mode)) == 2


def count_starts(monkeypatch, measure) -> tuple:
    """``measure()``, the secret of each start store checked or searched
    from, and the ``semantics.move`` misses it made."""
    started, misses = [], []
    start_store = explorer.semantics.start_store
    move = explorer.semantics.move
    with monkeypatch.context() as patch:
        patch.setattr(explorer.semantics, "start_store", lambda p, store: (
            started.append(store["h"]) or start_store(p, store)))
        patch.setattr(explorer.semantics, "move",
                      lambda *args: misses.append(1) or move(*args))
        result = measure()
    return result, sorted(started), len(misses)


@pytest.mark.parametrize("measure", ("duration_stats", "isolated_durations"))
def test_wide_secret_durations_by_class(measure: str, monkeypatch):
    program = lang.parse_program(WIDE)
    fn = getattr(explorer, measure)
    a = program.threads[0]
    start, end = a.body[0].label, a.body[-1].label
    bounds = explorer.ExploreBounds()
    domain = explorer.secret_domain_of(program)
    alone = [fn(program, start, end, (v,), bounds) for v in domain]
    # Measured on a fresh program, which has kept no search of its own.
    fresh = lang.parse_program(WIDE)
    stats, started, _ = count_starts(monkeypatch,
                                     lambda: fn(fresh, start, end, domain, bounds))
    assert stats.durations == {v: one.durations[v] for v, one in zip(domain, alone)}
    assert stats.unreached == [v for one in alone for v in one.unreached] == []
    assert stats.complete and all(one.complete for one in alone)
    assert len(set(stats.durations.values())) == 2
    # Every valuation's start is checked once; h = 0 and h = 8 start a search.
    assert started == sorted([*range(16), 0, 8])
    # Asked again, each program reads what it kept: the starts are checked,
    # and nothing is searched or stepped.
    for served in (fresh, program):
        assert count_starts(monkeypatch, lambda: fn(served, start, end, domain, bounds)) == (
            stats, list(range(16)), 0)


@pytest.mark.parametrize("mode", ("timed", "blind"))
@pytest.mark.parametrize("path", sorted(PROGRAMS.rglob("*.cwl")), ids=lambda p: p.name)
def test_corpus_matches_oracle(path: Path, mode: str):
    program = lang.parse_program(path.read_text(encoding="utf-8"))
    searches = assert_same(program, explorer.ExploreBounds(**MODES[mode]))
    # Only a program that never reads its secret shares a search.
    expected = 1 if path.name == "06_unused_secret.cwl" else len(
        explorer.secret_domain_of(program))
    assert searches == expected


def test_leakscan_stats_name_the_search(capsys, tmp_path):
    from leaklab import cli
    source = tmp_path / "split.cwl"
    source.write_text(WIDE.replace("int[0..15]", "int[0..3]").replace("h > 7", "h > 1"),
                      encoding="utf-8")
    assert cli.main(["leakscan", str(source), "--format", "json", "--stats"]) == 1
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert [row["explored_as"] for row in stats] == [{"h": 0}, {"h": 0}, {"h": 2}, {"h": 2}]
    assert stats[1] == {**stats[0], "secret": {"h": 1}}
    assert cli.main(["leakscan", str(source), "--stats"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("  stats {'h': 3}: explored as {'h': 2}, ")


def states_by_valuation(program: lang.Program, loc: lang.LocationId, watch: frozenset,
                        bounds: explorer.ExploreBounds):
    """``states_at_location`` with one search per valuation, or the error
    it raised."""
    states, complete = [], True
    try:
        for valuation in explorer.secret_domain_of(program):
            found, found_all = assertions.states_at_location(program, loc, watch,
                                                             (valuation,), bounds)
            states.extend(found)
            complete = complete and found_all
    except LeakLabError as e:
        return type(e), str(e)
    return states, complete


def assert_same_states(source: str, bounds: explorer.ExploreBounds) -> list[int]:
    """Compare ``states_at_location`` at every location of the program
    ``source`` with one search per valuation, watching each thread's first
    location; return the searches made at each location, each measured on
    a freshly parsed program."""
    searches = []
    real = explorer.search

    def counted(*args):
        searches[-1] += 1
        return real(*args)

    oracle = lang.parse_program(source)
    watch = frozenset(oracle.labels_of_thread(t)[0] for t in range(len(oracle.threads)))
    domain = explorer.secret_domain_of(oracle)
    for t in range(len(oracle.threads)):
        for loc in oracle.labels_of_thread(t):
            want = states_by_valuation(oracle, loc, watch, bounds)
            program = lang.parse_program(source)
            searches.append(0)
            explorer.search = counted
            try:
                got = assertions.states_at_location(program, loc, watch, domain, bounds)
            except LeakLabError as e:
                got = type(e), str(e)
            finally:
                explorer.search = real
            assert got == want, loc
    return searches


def test_wide_secret_states_by_class(monkeypatch):
    source = ("var h : int[0..15] label high = secret;\n"
              "thread A { if h > 7 then { skip; } else { skip; skip; }; print('a'); }")
    for blind in (False, True):
        bounds = explorer.ExploreBounds(timing_blind=blind)
        assert assert_same_states(source, bounds) == [2] * 6
    # On one program every location reads the one kept search per class:
    # asked again, no location starts a search or steps a move.
    program = lang.parse_program(source)
    domain = explorer.secret_domain_of(program)
    watch = frozenset({program.labels_of_thread(0)[0]})
    bounds = explorer.ExploreBounds()

    def every_location():
        return [assertions.states_at_location(program, loc, watch, domain, bounds)
                for loc in program.labels_of_thread(0)]

    first, started, misses = count_starts(monkeypatch, every_location)
    assert started.count(0) == started.count(8) == 7 and misses > 0
    assert count_starts(monkeypatch, every_location) == (first, sorted([*range(16)] * 6), 0)


@settings(deadline=None, max_examples=100)
@given(secret_programs(), st.sampled_from((3, 40)))
def test_generated_states_match_oracle(source: str, max_steps: int):
    assert_same_states(source, explorer.ExploreBounds(max_steps=max_steps))


def durations_by_valuation(measure, program: lang.Program, start: lang.LocationId,
                           end: lang.LocationId, bounds: explorer.ExploreBounds):
    """``measure`` with one call per valuation, or the error it raised."""
    durations, unreached, complete = {}, [], True
    try:
        for valuation in explorer.secret_domain_of(program):
            one = measure(program, start, end, (valuation,), bounds)
            durations.update(one.durations)
            unreached.extend(one.unreached)
            complete = complete and one.complete
    except LeakLabError as e:
        return type(e), str(e)
    return explorer.DurationStats(durations, unreached, complete)


@pytest.mark.parametrize("measure", ("duration_stats", "isolated_durations"))
@settings(deadline=None, max_examples=60)
@example(source=DECLS + "thread A { print('a'); x = h; print('b'); }",  # raises for h >= 2
         max_steps=40, thread=0, pair=1)
@example(source=DECLS + "thread A { h = x; if h then { delay(1); } else { skip; }; }\n"
         "thread B { print('b'); }", max_steps=40, thread=0, pair=2)  # assigns a secret
@given(secret_programs(), st.sampled_from((3, 40)), st.integers(0, 2), st.integers(0, 9))
def test_generated_durations_match_oracle(measure: str, source: str, max_steps: int,
                                          thread: int, pair: int):
    program = lang.parse_program(source)
    fn = getattr(explorer, measure)
    bounds = explorer.ExploreBounds(max_steps=max_steps)
    labels = program.labels_of_thread(thread % len(program.threads))
    pairs = list(itertools.combinations(labels, 2))
    assume(pairs)  # else the thread is empty
    start, end = pairs[pair % len(pairs)]
    want = durations_by_valuation(fn, program, start, end, bounds)
    try:
        got = fn(program, start, end, explorer.secret_domain_of(program), bounds)
    except LeakLabError as e:
        got = type(e), str(e)
    assert got == want
