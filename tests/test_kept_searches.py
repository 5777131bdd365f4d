"""The searches and walks a program keeps against fresh ones.

``explorer.kept_search`` runs each search once per program, cost model,
start store, bounds, watch set and clock-in-key, and ``isolated_durations``
and ``lone_run`` each lone walk once per thread, start store and
``max_configs``; both are kept on the program's control table.  One oracle here asks
``duration_stats``, ``isolated_durations``, ``states_at_location`` and
``kept_search`` itself (its whole record, graph included) about every
pair of locations of one program, under interleaved bounds and cost
models; another asks ``explore`` and ``knowledge_partition`` under an
interleaved cycle of attacker views, bounds, cost models, secret domains
and public starts.  Each compares every answer, stats and completeness
included, with the same call on a freshly parsed program, and a repeated
scan must search and step nothing.  The other tests hold which calls share
one search, that what raised raises again and keeps nothing, and that what
a program kept goes with it.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

from leaklab import assertions, dl, explorer, lang, semantics
from leaklab.errors import BudgetExceeded, DomainError, LeakLabError

from conftest import PROGRAMS, outcome
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
    """An :func:`outcome` with each head statement id in a kept search's
    keys replaced by the statement's label, which a fresh parse shares, so
    the whole search compares, its graph included."""
    found = answer[-1]
    if not isinstance(found, explorer.Search):
        return answer
    labels = {id(s): s.label for t in program.threads for s in lang.iter_statements(t.body)}
    return "ok", lang.replace(found, keys=tuple(
        (tuple(labels.get(h) for h in heads), *rest) for heads, *rest in found.keys))


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


@contextlib.contextmanager
def counting():
    """Count the ``explorer.search`` calls and the ``semantics.move``
    misses made within, as ``[searches, moves]``."""
    made = [0, 0]
    search, move = explorer.search, semantics.move

    def searching(*args):
        made[0] += 1
        return search(*args)

    def moving(*args):
        made[1] += 1
        return move(*args)

    explorer.search, semantics.move = searching, moving
    try:
        yield made
    finally:
        explorer.search, semantics.move = search, move


def scan_settings(program: lang.Program, long: int, short: int) -> list[tuple]:
    """A cycle of ``(bounds, costs, secret domain, public start)``: blind
    then timed and timed then blind under one cost model, blind with
    thread ids, a step bound of ``short`` that cuts runs, a cap of 4
    states, each cost model of ``cost_models``, the domain without its
    first valuation and a public start off the declared one."""
    models = cost_models(program)
    domain = explorer.secret_domain_of(program)
    restricted = domain[1:] or domain
    public = {}
    for d in program.declarations:
        others = [v for v in d.domain if v != d.init]
        if not d.secret and others:
            public = {d.name: others[-1]}
            break
    timed = explorer.ExploreBounds(max_steps=long)
    blind = explorer.ExploreBounds(max_steps=long, timing_blind=True)
    return [
        (blind, models[0], domain, {}),
        (timed, models[0], domain, {}),
        (lang.replace(blind, observe_thread_ids=True), models[0], domain, {}),
        (explorer.ExploreBounds(max_steps=short), models[0], domain, {}),
        (explorer.ExploreBounds(max_steps=long, max_configs=4), models[1], domain, {}),
        (timed, models[1], domain, {}),
        (blind, models[1], domain, {}),
        (blind, models[2], restricted, {}),
        (timed, models[2], domain, public),
        (lang.replace(timed, observe_thread_ids=True), models[0], restricted, public),
    ]


def scan_answer(fn):
    """Every field a scan reports, or the error it raised."""
    try:
        got = fn()
    except LeakLabError as e:
        return "raised", type(e), str(e)
    if isinstance(got, explorer.KnowledgeReport):
        return "ok", got.knowledge, got.leaky, got.verdict, got.complete, got.stats
    return ("ok", got.observations, got.prefixes, got.truncated, got.deadlocked,
            got.complete, got.stats)


def assert_scans_match_fresh(source: str, long: int = 200, short: int = 6) -> None:
    """``knowledge_partition`` and ``explore`` through the cycle of
    :func:`scan_settings` on one program equal the same calls on a fresh
    one; asked again in reverse order, each call that returned searches
    and steps nothing and answers alike."""
    shared = lang.parse_program(source)
    asked = []
    for j, (bounds, costs, domain, public) in enumerate(scan_settings(shared, long, short)):
        valuation = dict(domain[j % len(domain)]) if domain else {}
        asked += [
            (f"knowledge_partition {j}", lambda p, b=bounds, c=costs, d=domain, i=public:
                explorer.knowledge_partition(p, i, d, b, c)),
            (f"explore {j}", lambda p, b=bounds, c=costs, v=valuation, i=public:
                explorer.explore(p, i, v, b, c))]
    want = {}
    for name, ask in asked:
        fresh = lang.parse_program(source)
        want[name] = scan_answer(lambda: ask(fresh))
        assert scan_answer(lambda: ask(shared)) == want[name], name
    for name, ask in reversed(asked):
        with counting() as made:
            got = scan_answer(lambda: ask(shared))
        assert got == want[name], name
        if got[0] == "ok":
            assert made == [0, 0], name


@pytest.mark.parametrize("path", sorted(PROGRAMS.rglob("*.cwl")), ids=lambda p: p.name)
def test_corpus_scans_kept_match_fresh(path: Path):
    assert_scans_match_fresh(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (0, 1)])
def test_family_scans_kept_match_fresh(n: int, k: int):
    assert_scans_match_fresh(family_member(n, k))


@settings(deadline=None, max_examples=30)
@given(small_programs())
def test_generated_scans_kept_match_fresh(source: str):
    assert_scans_match_fresh(source, 9, 4)


def test_truncated_scans_kept_match_fresh():
    # Cut at 3 steps only when h = 1, so the prefix rule decides the verdict.
    assert_scans_match_fresh(
        "var h : int[0..1] label high = secret;\n"
        "thread A { if h then { skip; skip; } else { skip; }; print('x'); }", short=3)


def test_a_timed_scan_and_a_state_query_share_one_search():
    """Under the default bounds a timed ``explore`` and the states of a
    leakiness check whose assertion names no snapshot read one search,
    whichever runs first, and answer as on a fresh program."""
    source = (PROGRAMS / "semaphore_pair.cwl").read_text(encoding="utf-8")
    bounds, h0 = explorer.ExploreBounds(), (("h", 0),)
    postulate = assertions.parse_assertion("h = 0")

    def ask(program: lang.Program) -> dict:
        end = program.labels_of_thread(1)[-1]
        return {"explore": lambda: scan_answer(
                    lambda: explorer.explore(program, {}, dict(h0), bounds)),
                "states": lambda: assertions.is_leaky_assertion(
                    postulate, end, program, (h0,), bounds)}

    want = {name: fn() for name, fn in ask(lang.parse_program(source)).items()}
    for order in (("explore", "states"), ("states", "explore")):
        program = lang.parse_program(source)
        calls, made = ask(program), []
        for name in order:
            with counting() as work:
                assert calls[name]() == want[name], name
            made.append(work[0])
        assert made == [1, 0], order
        entry, = semantics.control_table(program).searches(semantics.CostModel()).values()
        # The graph's edges are ints alone; the states are derived once.
        assert all(outcome.__class__ is str or all(type(n) is int for n in outcome)
                   for outcome in entry.graph)
        assert entry.reached is entry.reached


def test_plain_and_thread_id_blind_scans_share_one_entry():
    source = (PROGRAMS / "semaphore_pair.cwl").read_text(encoding="utf-8")
    program = lang.parse_program(source)
    blind = explorer.ExploreBounds(timing_blind=True)
    named = lang.replace(blind, observe_thread_ids=True)
    with counting() as first:
        plain = explorer.knowledge_partition(program, {}, None, blind)
    with counting() as second:
        got = scan_answer(lambda: explorer.knowledge_partition(program, {}, None, named))
    assert first[0] == 2 and second == [0, 0]  # one search per class: h = 0 and h = 1
    assert len(semantics.control_table(program).searches(semantics.CostModel())) == 2
    fresh = lang.parse_program(source)
    assert got == scan_answer(lambda: explorer.knowledge_partition(fresh, {}, None, named))
    assert set(plain.knowledge).isdisjoint(got[1])  # the letters name their threads


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
    for entry in kept.values():
        assert all(isinstance(part, tuple) for part in (
            entry.keys, entry.graph, entry.labels, entry.cells, entry.reached))


def test_run_and_the_isolated_durations_share_one_walk():
    program = lang.parse_program(
        (PROGRAMS / "corpus" / "07_three_phase.cwl").read_text(encoding="utf-8"))
    (start, end), *_ = dl.dl_certify(program).suggested_pairs
    costs = semantics.CostModel()
    explorer.isolated_durations(program, start, end, None, explorer.ExploreBounds(), costs)
    with counting() as made:  # as ``run --bound-steps 199999`` asks
        events = explorer.lone_run(program, {**program.initial_store(), "h": 0},
                                   explorer.ExploreBounds(max_steps=199_999,
                                                          max_configs=200_000), costs)
    assert " ".join(f"{payload}@{at}" for payload, at in events) == "p@1 q@4 r@26"
    assert made == [0, 0]
    assert semantics.control_table(program).searches(costs) == {}


@pytest.mark.parametrize("source,error,kept", [
    # x leaves its domain when h = 1; the searches and the walk of h = 0
    # are kept, the scan's among them.
    ("var h : int[0..1] label high = secret;\nvar x : int[0..1] label low = 0;\n"
     "thread A { print('a'); x = h + 1; print('b'); }", DomainError, 4),
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
                                                  explorer.secret_domain_of(program), bounds),
            lambda: explorer.explore(program, {}, {"h": 1}, bounds),
            lambda: explorer.knowledge_partition(program, {}, None, bounds)):
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
    explorer.knowledge_partition(program, {}, None, BOUNDS[1])
    table = semantics.control_table(program)
    kept = table.searches(semantics.CostModel())
    assert len(kept) == 4  # two watched searches and two scans, one per class
    found = next(iter(kept.values()))
    graphs = [entry.graph for entry in kept.values()]  # every search keeps its graph
    refs = [weakref.ref(program), weakref.ref(table), weakref.ref(found)]
    del program, table, kept, found
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]
    # A tuple takes no weak reference: nothing but this list holds a graph.
    assert [gc.get_referrers(graph) for graph in graphs] == [[graphs]] * 4
