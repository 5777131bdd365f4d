"""Test-only reference: explore by enumerating schedules.

This is the explorer as it was before it memoised program states.  It
walks the schedule tree depth first and deduplicates whole configurations
(trace and snapshots included) paired with the steps used, so its cost
grows with the number of schedules.  It is slow on purpose and kept only
so that tests can compare ``explorer.explore`` against it.
"""

from __future__ import annotations

from leaklab import explorer, lang, semantics
from leaklab.errors import LeakLabError


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
