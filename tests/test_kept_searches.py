"""The searches and walks a program keeps against fresh ones.

``explorer.kept_search`` runs each watched search once per program, cost
model, start store, bounds and watch set, and ``isolated_durations`` each
lone walk once per thread, start store and ``max_configs``; both are kept
on the program's control table.  The oracle here asks ``duration_stats``,
``isolated_durations`` and ``states_at_location`` about every pair of
locations of one program, under interleaved bounds and cost models, and
compares each answer, stats and completeness included, with the same call
on a freshly parsed program.  The other tests hold that a timed and a
blind measure share one search, that what raised raises again and keeps
nothing, and that what a program kept goes with it.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

from leaklab import assertions, explorer, lang, semantics
from leaklab.errors import BudgetExceeded, DomainError, LeakLabError

from conftest import PROGRAMS
from test_explore_oracle import family_member, small_programs
from test_move_table import cost_models



def bound_sets(long: int, short: int) -> tuple[explorer.ExploreBounds, ...]:
    """Timed and blind under ``long`` steps, timed under ``short`` steps,
    and blind under ``short`` steps and 4 states, which cuts most walks."""
    return (explorer.ExploreBounds(max_steps=long),
            explorer.ExploreBounds(max_steps=long, timing_blind=True),
            explorer.ExploreBounds(max_steps=short),
            explorer.ExploreBounds(max_steps=short, max_configs=4, timing_blind=True))


BOUNDS = bound_sets(200, 6)
# Generated loops unfold to the step bound, so they get smaller ones.
GENERATED_BOUNDS = bound_sets(9, 4)


def outcome(fn):
    try:
        return fn()
    except LeakLabError as e:  # compared by type and message
        return type(e), str(e)


def queries(program: lang.Program, every_bounds: tuple) -> list:
    """``(name, fn(program))`` for the three measures and the search of
    every pair of locations in one thread.  Pair i is asked under step i
    of a cycle through bounds and cost models and again under step i + 1,
    and each step changes one field that a kept search or walk is keyed
    by: the step bound, the state cap, then the cost model."""
    models = cost_models(program)
    long, long_blind, short, capped = every_bounds
    cycle = [(long, models[0]), (short, models[0]), (capped, models[0]),
             (capped, models[1]), (long_blind, models[1]), (long_blind, models[2])]
    domain = explorer.secret_domain_of(program)
    store = {**program.initial_store(), **dict(domain[0] if domain else ())}
    pairs = [pair for t in range(len(program.threads))
             for pair in itertools.combinations(program.labels_of_thread(t), 2)]
    out = []
    for i, (start, end) in enumerate(pairs):
        watch = frozenset((start, end))
        for j in (i, i + 1):
            bounds, costs = cycle[j % len(cycle)]
            name = f"{start!r} {end!r} {j}"
            out += [
                (f"duration_stats {name}", lambda p, s=start, e=end, b=bounds, c=costs:
                    explorer.duration_stats(p, s, e, None, b, c)),
                (f"isolated_durations {name}", lambda p, s=start, e=end, b=bounds, c=costs:
                    explorer.isolated_durations(p, s, e, None, b, c)),
                (f"states_at_location {name}", lambda p, e=end, w=watch, b=bounds, c=costs:
                    assertions.states_at_location(p, e, w, domain, b, c)),
                # The search itself, which a hit must report as a miss would.
                (f"kept_search {name}", lambda p, w=watch, b=bounds, c=costs:
                    explorer.kept_search(p, store, b, c, w))]
    return out


def portable(program: lang.Program, answer):
    """A :func:`explorer.kept_search` answer with each head statement id
    replaced by the statement's label, which a fresh parse shares."""
    if not (isinstance(answer, tuple) and isinstance(answer[0], explorer.Search)):
        return answer
    labels = {id(s): s.label for t in program.threads for s in lang.iter_statements(t.body)}
    found, reached = answer

    def state(heads, *rest):
        return (tuple(labels.get(h) for h in heads), *rest)

    return (lang.replace(found, root=state(*found.root)),
            tuple((state(*key), ends) for key, ends in reached))


def assert_kept_match_fresh(source: str, every_bounds: tuple = BOUNDS) -> None:
    """Every query on one program equals the same query on a fresh one, in
    order and again in reverse order, when each reads what the first pass
    kept."""
    shared = lang.parse_program(source)
    asked = queries(shared, every_bounds)
    want = {}
    for name, ask in asked:
        fresh = lang.parse_program(source)
        want[name] = portable(fresh, outcome(lambda: ask(fresh)))
        assert portable(shared, outcome(lambda: ask(shared))) == want[name], name
    for name, ask in reversed(asked):
        assert portable(shared, outcome(lambda: ask(shared))) == want[name], name


@pytest.mark.parametrize("path", sorted(PROGRAMS.rglob("*.cwl")), ids=lambda p: p.name)
def test_corpus_kept_matches_fresh(path: Path):
    assert_kept_match_fresh(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (0, 1)])
def test_family_kept_matches_fresh(n: int, k: int):
    assert_kept_match_fresh(family_member(n, k))


@settings(deadline=None, max_examples=30)
@given(small_programs())
def test_generated_kept_matches_fresh(source: str):
    assert_kept_match_fresh(source, GENERATED_BOUNDS)


def count_searches(monkeypatch, measure) -> tuple:
    started = []
    search = explorer.search
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "search", lambda *args: started.append(1) or search(*args))
        result = measure()
    return result, len(started)


def test_timed_and_blind_duration_stats_share_one_search(monkeypatch):
    program = lang.parse_program((PROGRAMS / "semaphore_pair.cwl").read_text(encoding="utf-8"))
    start, end = program.labels_of_thread(1)[0], program.labels_of_thread(1)[-1]
    costs = semantics.CostModel()
    timed, searched = count_searches(monkeypatch, lambda: explorer.duration_stats(
        program, start, end, None, BOUNDS[0], costs))
    assert searched == 2  # one per class: h = 0 and h = 1
    blind, searched = count_searches(monkeypatch, lambda: explorer.duration_stats(
        program, start, end, None, BOUNDS[1], costs))
    assert (blind, searched) == (timed, 0)
    kept = semantics.control_table(program).searches(costs)
    assert len(kept) == 2
    # What a caller gets back cannot be changed in place.
    for found, reached in kept.values():
        assert isinstance(found.cells, tuple) and isinstance(reached, tuple)


@pytest.mark.parametrize("source,error,kept", [
    # x leaves its domain when h = 1; the searches and the walk of h = 0
    # are kept.
    ("var h : int[0..1] label high = secret;\nvar x : int[0..1] label low = 0;\n"
     "thread A { print('a'); x = h + 1; print('b'); }", DomainError, 3),
    # The region body never ends, whatever h is.
    ("var h : int[0..1] label high = secret;\nvar x : int[0..1] label low = 0;\n"
     "thread A { print('a'); await true then { while true do { skip; }; }; print('b'); }",
     BudgetExceeded, 0),
])
def test_what_raised_raises_again_and_keeps_nothing(source: str, error: type, kept: int):
    program = lang.parse_program(source)
    start, end = program.labels_of_thread(0)[0], program.labels_of_thread(0)[-1]
    bounds = BOUNDS[0]
    for measure in (
            lambda: explorer.duration_stats(program, start, end, None, bounds),
            lambda: explorer.isolated_durations(program, start, end, None, bounds),
            lambda: assertions.states_at_location(program, end, frozenset({start}),
                                                  explorer.secret_domain_of(program), bounds)):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                measure()
            raised.append(str(caught.value))
        assert raised[0] == raised[1]
    table = semantics.control_table(program)
    costs = semantics.CostModel()
    starts = ([dict(key[0]) for key in table.searches(costs)]
              + [dict(key[1]) for key in table.walks(costs)])
    assert [start["h"] for start in starts] == [0] * kept


def test_what_a_program_kept_goes_with_it():
    program = lang.parse_program((PROGRAMS / "semaphore_pair.cwl").read_text(encoding="utf-8"))
    start, end = program.labels_of_thread(1)[0], program.labels_of_thread(1)[-1]
    for measure in (explorer.duration_stats, explorer.isolated_durations):
        measure(program, start, end, None, BOUNDS[0])
    table = semantics.control_table(program)
    found, _ = next(iter(table.searches(semantics.CostModel()).values()))
    refs = [weakref.ref(program), weakref.ref(table), weakref.ref(found)]
    del program, table, found
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
