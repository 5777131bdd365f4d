"""The reference for ``explorer.search``: the same memoised depth-first
search, calling ``semantics.step`` once per edge on full configurations
and ``semantics.enabled`` once per expanded key.

It keys states as ``explorer.search`` does, finishes them in the same
order and builds the same graph: on a key without a clock, an edge's
events are timestamped from the step's start.  Its ``steps`` counts the
distinct ``(thread, head statement, store)`` triples over its edges, which
is the number of steps the fast search runs.
"""

from __future__ import annotations

from leaklab import semantics
from leaklab.explorer import _CUT, _DEADLOCKED, _DONE, Search


def search_by_edges(program, store, bounds, costs, watch) -> Search:
    cells: list = [None]
    interned: dict[tuple, int] = {}
    keep_clock = not bounds.timing_blind or bool(watch)

    def arrive(watched: tuple, snapshots: tuple) -> tuple:
        heads = None
        for loc, times in snapshots:
            if loc in watch:
                if heads is None:
                    heads = dict(watched)
                for clock in times:
                    cell = (heads.get(loc, 0), clock)
                    if cell not in interned:
                        interned[cell] = len(cells)
                        cells.append(cell)
                    heads[loc] = interned[cell]
        return watched if heads is None else tuple(sorted(heads.items()))

    def key_of(config, steps_used: int, watched: tuple) -> tuple:
        return (tuple([id(r[0]) if r else 0 for r in config.residues]), config.store,
                config.clock if keep_clock else None, steps_used, watched)

    start = semantics.initial_configuration(program, store)
    root = semantics.Configuration(start.residues, start.store, start.clock, (), ())
    root_key = key_of(root, 0, arrive((), start.snapshots))
    place: dict[tuple, int] = {}  # key -> its place in keys and graph
    keys: list = []
    graph: list = []
    labels: dict[tuple, int] = {(): 0}
    pending: dict[tuple, list] = {}
    stepped: set = set()
    configs = capped = 0
    stack = [(root_key, root)]
    while stack:
        key, config = stack.pop()
        if key in place:
            continue
        outcome = pending.pop(key, None)
        if outcome is None:
            steps_used = key[3]
            if configs >= bounds.max_configs:
                capped += 1
                outcome = _CUT
            else:
                configs += 1
                if config.all_done():
                    outcome = _DONE
                elif steps_used >= bounds.max_steps:
                    outcome = _CUT
                else:
                    choices = semantics.enabled(program, config)
                    if not choices:
                        outcome = _DEADLOCKED
        if outcome is None:
            edges = []
            children = []
            for choice in sorted(choices, reverse=True):
                stepped.add((choice.thread, key[0][choice.thread], key[1]))
                nxt = semantics.step(program, config, choice, costs)
                child = key_of(nxt, steps_used + 1, arrive(key[4], nxt.snapshots))
                events = nxt.trace if keep_clock else tuple(
                    e._replace(timestamp=e.timestamp - config.clock) for e in nxt.trace)
                edges.append((events, child))
                if child not in place:
                    children.append((child, semantics.Configuration(
                        nxt.residues, nxt.store, nxt.clock, (), ())))
            pending[key] = edges
            stack.append((key, config))
            stack.extend(children)
            continue
        if not isinstance(outcome, str):
            outcome = tuple(n for events, child in outcome
                            for n in (labels.setdefault(events, len(labels)) if events else 0,
                                      place[child]))
        place[key] = len(keys)
        keys.append(key)
        graph.append(outcome)
    return Search(tuple(keys), tuple(graph), tuple(labels), tuple(cells), len(stepped), capped)
