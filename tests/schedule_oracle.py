"""Test-only reference: explore by enumerating schedules.

These are the explorer, ``explorer.duration_stats`` and
``assertions.states_at_location`` as they were before they shared the
memoised state search.  Each walks the schedule tree depth first and
deduplicates whole configurations (trace and snapshots included) paired
with the steps used, so its cost grows with the number of schedules.  They
are slow on purpose and kept only so that tests can compare the state
search against them.  The duration and state oracles share one walk, and
take a run cut at the step bound for an incomplete answer, also where no
thread could move there.  That is ``explore``'s rule; the original
duration search took a deadlock at the bound for a complete run.
``isolate_thread`` makes one thread a program of its own, on which
``explorer.duration_stats`` is a reference for
``explorer.isolated_durations``.  ``run_deterministic`` is ``leaklab run``
as it was before it read the search: a one-thread program stepped a
configuration at a time.  ``label_statements`` is the labelling pass the
parser had before it labelled statements as it read them.
"""

from __future__ import annotations

import functools

from leaklab import explorer, lang, semantics
from leaklab.errors import BudgetExceeded, DeadlockError, LeakLabError


def _project(config: semantics.Configuration,
             bounds: explorer.ExploreBounds) -> explorer.Observation:
    events = []
    for ev in config.trace:
        payload = ev.payload
        if bounds.observe_thread_ids:
            payload = f"{ev.thread}:{payload}"
        events.append((payload, None if bounds.timing_blind else ev.timestamp))
    return explorer.Observation(tuple(events))


def enumerate_schedules(program: lang.Program, init_public: semantics.Store,
                        secret_val: dict, bounds: explorer.ExploreBounds,
                        costs: semantics.CostModel = semantics.CostModel()
                        ) -> tuple[frozenset, frozenset, bool]:
    """``(observations, prefixes, complete)`` as ``explorer.explore``
    defines them.

    Only the step bound may cut runs short here: where the configuration
    budget stops a walk, the two explorers legitimately differ (this one
    drops the rest of the tree, ``explore`` cuts each state past it), so
    reaching the budget raises instead of returning a partial answer.
    """
    store = dict(program.initial_store())
    store.update(init_public)
    for name, value in secret_val.items():
        if value not in program.decl(name).domain:
            raise LeakLabError(f"secret value {name}={value!r} outside domain")
        store[name] = value
    root = semantics.initial_configuration(program, store)

    observations: set[tuple[explorer.Observation, bool]] = set()
    prefixes: set[explorer.Observation] = set()
    visited: set = set()
    stack = [(root, 0)]
    while stack:
        config, steps_used = stack.pop()
        key = (config, steps_used)
        if key in visited:
            continue
        visited.add(key)
        if len(visited) > bounds.max_configs:
            raise RuntimeError("configuration budget reached; raise max_configs")
        if config.all_done():
            observations.add((_project(config, bounds), True))
            continue
        if steps_used >= bounds.max_steps:
            prefixes.add(_project(config, bounds))
            observations.add((_project(config, bounds), False))
            continue
        choices = semantics.enabled(program, config)
        if not choices:
            observations.add((_project(config, bounds), False))
            continue
        for choice in sorted(choices, key=lambda c: c.thread, reverse=True):
            stack.append((semantics.step(program, config, choice, costs),
                          steps_used + 1))
    return frozenset(observations), frozenset(prefixes), not prefixes


@functools.lru_cache(maxsize=4)
def _walk(program: lang.Program, valuation: tuple,
          bounds: explorer.ExploreBounds) -> tuple[tuple, bool]:
    """Every configuration the schedule walk reaches, under the unit cost
    model, each with a flag for a maximal one (all done, deadlocked, or at
    the step bound), and whether no run was cut at the step bound.
    Reaching the configuration budget raises."""
    store = dict(program.initial_store())
    store.update(dict(valuation))
    root = semantics.initial_configuration(program, store)
    reached = []
    complete = True
    visited: set = set()
    stack = [(root, 0)]
    while stack:
        config, steps_used = stack.pop()
        key = (config, steps_used)
        if key in visited:
            continue
        visited.add(key)
        if len(visited) > bounds.max_configs:
            raise RuntimeError("configuration budget reached; raise max_configs")
        choices = semantics.enabled(program, config)
        cut = not config.all_done() and steps_used >= bounds.max_steps
        complete = complete and not cut
        reached.append((config, cut or not choices))
        if not cut:
            for choice in choices:
                stack.append((semantics.step(program, config, choice), steps_used + 1))
    return tuple(reached), complete


def duration_stats_by_schedules(program: lang.Program, loc_from: lang.LocationId,
                                loc_to: lang.LocationId, secret_domain: tuple,
                                bounds: explorer.ExploreBounds) -> explorer.DurationStats:
    """``explorer.duration_stats``: at the end of every maximal execution,
    each arrival at ``loc_from`` pairs with the next arrival at ``loc_to``
    after it."""
    stats: dict = {v: set() for v in secret_domain}
    unreached = []
    complete = True
    for valuation in secret_domain:
        reached, walked_all = _walk(program, valuation, bounds)
        complete = complete and walked_all
        for config, maximal in reached:
            if maximal:
                snaps = config.snapshot_dict()
                ends = snaps.get(loc_to, ())
                for start in snaps.get(loc_from, ()):
                    nxt = [e for e in ends if e >= start]
                    if nxt:
                        stats[valuation].add(min(nxt) - start)
        if not stats[valuation]:
            unreached.append(valuation)
    return explorer.DurationStats({v: frozenset(s) for v, s in stats.items()},
                                  unreached, complete)


def states_at_location_by_schedules(program: lang.Program, loc: lang.LocationId,
                                    secret_domain: tuple,
                                    bounds: explorer.ExploreBounds
                                    ) -> tuple[list[tuple], bool]:
    """``assertions.states_at_location`` with every snapshot kept: one
    (store, snapshots, clock, valuation) entry per configuration at ``loc``."""
    states: list[tuple] = []
    complete = True
    exit_loc = lang.exit_label(program, loc.thread)
    for valuation in secret_domain:
        reached, walked_all = _walk(program, valuation, bounds)
        complete = complete and walked_all
        for config, _maximal in reached:
            residue = config.residues[loc.thread]
            if (residue[0].label == loc) if residue else (loc == exit_loc):
                states.append((config.store_dict(), config.snapshot_dict(),
                               config.clock, valuation))
    return states, complete


def isolate_thread(program: lang.Program, thread: int) -> lang.Program:
    """The program with one thread alone, as thread 0: a reference for
    ``explorer.isolated_durations``, which steps the thread alone in place.
    Labels are per-thread, so only the thread index moves to 0."""
    return label_statements(lang.Program(program.declarations, (program.threads[thread],),
                                         program.ghosts))


def label_statements(program: lang.Program) -> lang.Program:
    """The program rebuilt with per-thread location labels l0, l1, ... in
    source order: the labelling that the parser does as it reads.

    Sequencing is transparent: only executable and control statements consume
    an index.  Statements inside if/while/await bodies are labelled where the
    pre-order walk meets them.
    """
    threads = []
    for t_idx, thread in enumerate(program.threads):
        counter = 0

        def relabel(body: tuple[lang.Stmt, ...]) -> tuple[lang.Stmt, ...]:
            nonlocal counter
            out = []
            for s in body:
                loc = lang.LocationId(t_idx, counter)
                counter += 1
                if isinstance(s, lang.If):
                    then_body = relabel(s.then_body)
                    else_body = relabel(s.else_body)
                    s = lang.replace(s, then_body=then_body, else_body=else_body, label=loc)
                elif isinstance(s, (lang.While, lang.Await)):
                    # The statement's own label precedes its body labels.
                    s = lang.replace(s, body=relabel(s.body), label=loc)
                else:
                    s = lang.replace(s, label=loc)
                out.append(s)
            return tuple(out)

        threads.append(lang.replace(thread, body=relabel(thread.body)))
    return lang.Program(program.declarations, tuple(threads), program.ghosts)


def run_deterministic(program: lang.Program, init: semantics.Store,
                      costs: semantics.CostModel = semantics.CostModel(),
                      max_steps: int = 10_000) -> semantics.Configuration:
    """Run a single-thread program to completion within ``max_steps``
    steps.  A run that ends on exactly its ``max_steps``-th step raises
    here, and ``leaklab run``, which checks a finished state before the
    step bound as the search does, prints it."""
    if max_steps <= 0:
        raise LeakLabError("exploration bounds must be positive")
    if len(program.threads) != 1:
        raise LeakLabError("deterministic runner requires exactly one thread")
    config = semantics.initial_configuration(program, init)
    for _ in range(max_steps):
        if config.all_done():
            return config
        if not semantics.enabled(program, config):
            raise DeadlockError("single thread blocked on await")
        config = semantics.step(program, config, semantics.StepChoice(0), costs)
    raise BudgetExceeded(f"no termination within {max_steps} steps")
