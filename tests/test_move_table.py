"""The program's move table against a reference step, and its history.

``semantics.move`` runs one thread's step from a (head, store) pair and
keeps it in the program's table, one table per cost model, where every
search, the isolated walk and ``semantics.step`` read it.  The oracle here
steps every reachable configuration of the corpus, of small family members
and of generated programs two ways: through the table, and through
:func:`reference_step`, which unfolds the head by the AST rule and runs
atomic actions through ``semantics.run_atomic``, the one interpreter of
actions and region bodies, on the configuration's own clock.  The other
tests hold that what the table kept from earlier calls never shows in a
result: a repeated analysis runs no step and answers alike, each cost model
keeps its own moves, and a step that raised is raised again.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings

import expr_oracle
from leaklab import explorer, lang, semantics
from leaklab.config import parse_config
from leaklab.errors import BudgetExceeded, DomainError

from conftest import PROGRAMS, count_misses, load_program, outcome
from test_control_table import reference_residue
from test_explore_oracle import family_member, small_programs
from test_search_reference import BLOCKED

CORPUS_FILES = sorted(PROGRAMS.rglob("*.cwl"))


def reference_step(program: lang.Program, config: semantics.Configuration, thread: int,
                   costs: semantics.CostModel) -> semantics.Configuration | None:
    """Thread ``thread``'s step from ``config``, or None where it waits at
    an await whose guard fails; built without the move table."""
    residue = config.residues[thread]
    head, store = residue[0], config.store_dict()
    snaps = config.snapshot_dict()
    trace = list(config.trace)
    if isinstance(head, (lang.If, lang.While)):
        after = reference_residue(residue, store)
        clock = config.clock + costs.action_cost(head.label)
    else:
        def hook(s: lang.Stmt, before: int, at: int) -> None:
            if s is not head:  # control reached s inside a region body
                snaps[s.label] = snaps.get(s.label, ()) + (before,)
            if isinstance(s, lang.Print):
                text = (s.value.value if isinstance(s.value, lang.StrLit) else
                        semantics.render_value(expr_oracle.eval_expr(s.value, store)))
                trace.append(semantics.Event(thread, text, at))

        clock = semantics.run_atomic(head, store, config.clock, costs, program, hook)
        if clock is None:
            return None
        after = residue[1:]
    loc = after[0].label if after else program.labels_of_thread(thread)[-1]
    snaps[loc] = snaps.get(loc, ()) + (clock,)
    residues = list(config.residues)
    residues[thread] = after
    return semantics.Configuration(tuple(residues), tuple(sorted(store.items())), clock,
                                   tuple(trace), tuple(sorted(snaps.items())))


def from_table(program: lang.Program, thread: int, head: int, store: tuple,
               costs: semantics.CostModel):
    """The table's entry, run by ``semantics.move`` where it has none."""
    row = semantics.control_table(program).moves(costs).get(store, {})
    if head in row:
        return row[head]
    return semantics.move(program, thread, head, store, costs)


def cost_models(program: lang.Program) -> tuple[semantics.CostModel, ...]:
    """The unit model, a unit of 2, and overrides at every delay and await,
    as a ``--config`` file sets them."""
    labels = {s.label for t in program.threads for s in lang.iter_statements(t.body)
              if isinstance(s, (lang.Delay, lang.Await))}
    text = "".join(f"cost.{program.threads[loc.thread].name}.l{loc.index} = {3 + loc.index}\n"
                   for loc in sorted(labels))
    return (semantics.CostModel(), semantics.CostModel(unit=2),
            parse_config(text).cost_model(program))


def assert_moves_match(program: lang.Program, costs: semantics.CostModel,
                       max_depth: int = 40, max_configs: int = 1_500) -> int:
    """Step every configuration reachable within ``max_depth`` steps both
    ways, every thread that is not done; return how many steps agreed."""
    nodes = semantics.control_table(program).nodes
    checked = 0
    for valuation in explorer.secret_domain_of(program) or ((),):
        root = semantics.initial_configuration(
            program, {**program.initial_store(), **dict(valuation)})
        seen = set()
        stack = [(root, 0)]
        while stack and len(seen) < max_configs:
            config, depth = stack.pop()
            key = (tuple(tuple(map(id, r)) for r in config.residues), config.store,
                   config.clock)
            if key in seen or depth > max_depth:
                continue
            seen.add(key)
            for t, residue in enumerate(config.residues):
                if not residue:
                    continue
                want = outcome(lambda: reference_step(program, config, t, costs))
                got = outcome(lambda: from_table(program, t, id(residue[0]), config.store,
                                                 costs))
                checked += 1
                if want[0] == "error" or want[1] is None:
                    assert got == want
                    continue
                nxt = want[1]
                head, store, advance, events, arrivals = got[1]
                after = nxt.residues[t]
                assert head == (id(after[0]) if after else 0)
                assert (nodes[head].continuation if head else ()) == after
                assert store == nxt.store
                assert config.clock + advance == nxt.clock
                assert tuple(semantics.Event(thread, text, config.clock + at)
                             for thread, text, at in events) == nxt.trace[len(config.trace):]
                before = config.snapshot_dict()
                added = {loc: times[len(before.get(loc, ())):]
                         for loc, times in nxt.snapshots if times != before.get(loc)}
                assert {loc: tuple(config.clock + at for at in times)
                        for loc, times in arrivals} == added
                assert semantics.step(program, config, semantics.StepChoice(t), costs) == nxt
                stack.append((nxt, depth + 1))
    return checked


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_moves_match_the_reference(path: Path):
    program = lang.parse_program(path.read_text(encoding="utf-8"))
    for costs in cost_models(program):
        assert assert_moves_match(program, costs) > 0


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (0, 1, 2)])
def test_family_moves_match_the_reference(n: int, k: int):
    program = lang.parse_program(family_member(n, k))
    for costs in cost_models(program):
        assert assert_moves_match(program, costs) > 0


@settings(deadline=None)
@given(small_programs())
def test_generated_moves_match_the_reference(source: str):
    program = lang.parse_program(source)
    for costs in cost_models(program):
        assert_moves_match(program, costs, max_depth=12)


def test_a_move_that_writes_nothing_keeps_its_store():
    program = load_program("semaphore_pair.cwl")
    store = tuple(sorted({**program.initial_store(), "h": 1}.items()))
    print_c = program.threads[1].body[0]
    costs = semantics.CostModel()
    assert semantics.move(program, 1, id(print_c), store, costs)[1] is store
    region = program.threads[0].body[0]
    assert semantics.move(program, 0, id(region), store, costs)[1] == (
        ("h", 1), ("sem", 0), ("v", 0))


# ---------------------------------------------------------------------------
# What the table kept never shows in a result
# ---------------------------------------------------------------------------

def analyses(program: lang.Program, costs: semantics.CostModel) -> list:
    """A scan with its stats, and both duration measures, on ``program``."""
    t2 = program.thread_index("T2")
    start, end = program.labels_of_thread(t2)[0], program.labels_of_thread(t2)[-1]
    bounds = explorer.ExploreBounds()
    scan = explorer.knowledge_partition(program, {}, None, bounds, costs)
    return [(scan, scan.stats),
            explorer.duration_stats(program, start, end, None, bounds, costs),
            explorer.isolated_durations(program, start, end, None, bounds, costs)]


@pytest.mark.parametrize("name", ("semaphore_pair.cwl", "semaphore_pair_delay50.cwl"))
def test_a_second_analysis_steps_nothing(name: str, monkeypatch):
    program = load_program(name)
    first, misses = count_misses(monkeypatch, lambda: analyses(program, semantics.CostModel()))
    assert misses > 0
    assert count_misses(monkeypatch,
                        lambda: analyses(program, semantics.CostModel())) == (first, 0)


def test_each_cost_model_keeps_its_own_moves():
    program = load_program("semaphore_pair_delay50.cwl")
    costs = cost_models(program)
    assert costs[2].overrides  # the delay and both awaits
    for model in costs:
        fresh = load_program("semaphore_pair_delay50.cwl")
        assert analyses(program, model) == analyses(fresh, model)
    table = semantics.control_table(program)
    assert len({id(table.moves(model)) for model in costs}) == 3
    assert table.moves(semantics.CostModel(unit=2, overrides={})) is table.moves(costs[1])


@pytest.mark.parametrize("source,error", [
    ("var x : int[0..1] label low = 0;\nthread A { x = x + 1; x = x + 1; }", DomainError),
    ("var x : int[0..1] label low = 0;\n"
     "thread A { skip; await true then { while true do { skip; }; }; }", BudgetExceeded),
])
def test_a_step_that_raised_raises_again(source: str, error: type):
    program = lang.parse_program(source)
    bounds = explorer.ExploreBounds()
    start, end = program.labels_of_thread(0)[0], program.labels_of_thread(0)[-1]
    for measure in (lambda: explorer.knowledge_partition(program, {}, None, bounds),
                    lambda: explorer.isolated_durations(program, start, end, None, bounds)):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as caught:
                measure()
            raised.append(str(caught.value))
        assert raised[0] == raised[1]
    # Only the move before the failing one was kept.
    moves = semantics.control_table(program).moves(semantics.CostModel())
    assert [list(row) for row in moves.values() if row] == [[id(program.threads[0].body[0])]]


def test_a_search_whose_move_raised_leaves_no_empty_row():
    # The search once made a store's row before stepping from it, so the
    # store where x + 1 leaves x's domain kept an empty row.
    program = lang.parse_program(
        "var h : int[0..1] label high = secret; var x : int[0..1] label low = 0; "
        "thread A { x = x + 1; x = x + 1; }")
    with pytest.raises(DomainError):
        explorer.knowledge_partition(program, {}, None, explorer.ExploreBounds())
    moves = semantics.control_table(program).moves(semantics.CostModel())
    assert {store: list(row) for store, row in moves.items()} == {
        (("h", 0), ("x", 0)): [id(program.threads[0].body[0])]}


@pytest.mark.parametrize("source", (BLOCKED, (PROGRAMS / "semaphore_pair.cwl").read_text()),
                         ids=("blocked", "semaphore_pair"))
def test_move_makes_every_entry_of_the_table(source: str, monkeypatch):
    # ``semantics.move`` is the table's one writer: one call per entry, an
    # entry of None for a thread blocked at an await included.
    program = lang.parse_program(source)
    bounds, costs = explorer.ExploreBounds(), semantics.CostModel()
    start, end = program.labels_of_thread(0)[0], program.labels_of_thread(0)[-1]

    def measure():
        return (explorer.knowledge_partition(program, {}, None, bounds, costs),
                explorer.isolated_durations(program, start, end, None, bounds, costs))

    first, calls = count_misses(monkeypatch, measure)
    entries = [entry for row in semantics.control_table(program).moves(costs).values()
               for entry in row.values()]
    assert calls == len(entries) and None in entries
    assert count_misses(monkeypatch, measure) == (first, 0)
