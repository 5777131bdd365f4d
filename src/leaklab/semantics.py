"""Small-step interleaving semantics with an abstract global clock.

Time is the sum of per-action costs: every atomic action (skip, assignment,
print, guard evaluation) costs one configurable unit, ``delay(e)`` costs the
evaluated duration, and an await fires as a single indivisible action whose
cost is the entry unit plus the costs of every action in its body.  A blocked
thread never advances the clock by itself; waiting time accrues only through
other threads' steps.

Every arrival of control at a labelled location appends the current clock to
that location's snapshot list; assertions read these snapshots back as
``t@l`` terms.

A program is compiled on first use into a :class:`ControlTable`, kept on
the program.  A thread's residue is always the static continuation of its
head statement: the rest of the head's block, then whatever follows the
enclosing statement, which for a loop body is the loop itself.  So the
table interns each statement's continuation and successor residues, holds
where each thread starts and a closure for every expression
(:func:`compile_expr`, the evaluator assertions share).  A step reads
only its head and the store, so the table also keeps, per cost model, the
move :func:`move` found for each (head, store), which every search, the
isolated walk and :func:`step` read.  :func:`move` alone writes it, and a
thread blocked at an await is one of its entries, kept as None.  Beside
the moves it keeps, per cost model, what ``explorer`` found of its
searches (each with its state graph) and isolated walks, so each is
run once per program, and the discharge results of ``proofs``, so a
triple is discharged once per program.

:class:`Configuration`, :func:`initial_configuration`, :func:`enabled` and
:func:`step` are the reference, kept for the tests, which compare the move
table against them, and for the benchmark tracer: no analysis calls them.
Only :func:`step`'s trace holds :class:`Event` records.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

from . import lang
from .errors import BudgetExceeded, DomainError, LeakLabError
from .lang import as_bool, field, record

Value = Union[int, bool]
Store = dict[str, Value]


@record(frozen=True)
class CostModel:
    """Per-action abstract time costs.

    ``overrides`` maps a location to a fixed cost for the action at that
    location (for a delay this replaces the evaluated duration; for an await
    it replaces the entry cost, body actions keep their own costs).
    """

    unit: int = 1
    overrides: dict = field(default_factory=dict)

    def action_cost(self, loc: Optional[lang.LocationId]) -> int:
        if loc is not None and loc in self.overrides:
            return self.overrides[loc]
        return self.unit


class Event(NamedTuple):
    thread: int
    payload: str
    timestamp: int


class Configuration(NamedTuple):
    """Immutable execution state of the whole parallel composition."""

    residues: tuple[tuple[lang.Stmt, ...], ...]
    store: tuple[tuple[str, Value], ...]
    clock: int
    trace: tuple[Event, ...]
    snapshots: tuple[tuple[lang.LocationId, tuple[int, ...]], ...]

    def store_dict(self) -> Store:
        return dict(self.store)

    def snapshot_dict(self) -> dict[lang.LocationId, tuple[int, ...]]:
        return dict(self.snapshots)

    def done(self, thread: int) -> bool:
        return not self.residues[thread]

    def all_done(self) -> bool:
        return all(not r for r in self.residues)


class StepChoice(NamedTuple):
    thread: int


compile_expr = lang.EXPRESSIONS.compile  # ``e`` as a closure ``fn(store)``


def render_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# The control table
# ---------------------------------------------------------------------------

_ACTION, _BRANCH, _REGION = range(3)


class _Node(NamedTuple):
    """A statement's row.  ``run`` is an action's ``fn(store, clock, costs)
    -> clock`` or else the guard; ``succ`` the residue after an action or a
    region, or where a branch's guard holds, and ``alt`` where it fails, or
    a region body's residue, which ends with the body."""

    kind: int
    run: Callable
    succ: tuple
    alt: tuple
    continuation: tuple  # the residue that starts at the statement
    payload: Optional[Callable[[Store], str]] = None  # what a print prints


class ControlTable:
    """Statement rows by ``id`` (``nodes``), each thread's start head id, 0
    if it is empty (``heads``), and the arrivals at clock 0 (``arrivals``),
    and under each cost model the moves :func:`move` found so far
    (:meth:`moves`), None where a thread is blocked at an await, every
    search and walk run so far
    (:meth:`searches`, :meth:`walks`; a scan's search with its graph) and
    the discharge results kept so far (:meth:`proofs`)."""

    def __init__(self, program: lang.Program):
        self._kept: dict[tuple, tuple[dict, dict, dict, dict]] = {}
        self.nodes: dict[int, _Node] = {}
        self.heads = tuple([id(r[0]) if r else 0 for r in
                            [self._block(program, t.body, ()) for t in program.threads]])
        self.arrivals = tuple([(labels[0], (0,)) for labels, _ in program.locations])  # sorted

    def _block(self, program: lang.Program, body: tuple, after: tuple) -> tuple:
        """Enter ``body``, which ``after`` follows; return its first residue."""
        for s in reversed(body):
            here = (s,) + after
            if isinstance(s, lang.If):
                node = _Node(_BRANCH, _guard(s.guard), self._block(program, s.then_body, after),
                             self._block(program, s.else_body, after), here)
            elif isinstance(s, lang.While):
                node = _Node(_BRANCH, _guard(s.guard), self._block(program, s.body, here),
                             after, here)
            elif isinstance(s, lang.Await):
                node = _Node(_REGION, _guard(s.guard), after, self._block(program, s.body, ()),
                             here)
            else:
                node = _Node(_ACTION, self._action(s, program),
                             after, (), here, _payload(s) if isinstance(s, lang.Print) else None)
            self.nodes[id(s)] = node
            after = here
        return after

    def _action(self, s: lang.Stmt, program: lang.Program) -> Callable:
        label, where = s.label, program.location_str(s.label)
        if isinstance(s, (lang.Skip, lang.Print)):
            return lambda store, at, costs: at + costs.action_cost(label)
        if isinstance(s, lang.Assign):
            value, target = compile_expr(s.value), s.target
            domain = {d.name: d.domain for d in program.declarations}[target]

            def assign(store, at, costs):
                v = value(store)
                if v not in domain:
                    raise DomainError(f"assignment at {where} sets {target} to {v}, "
                                      "outside its declared domain")
                store[target] = v
                return at + costs.action_cost(label)
            return assign
        if isinstance(s, lang.Delay):
            duration = compile_expr(s.duration)

            def delay(store, at, costs):
                d = costs.overrides[label] if label in costs.overrides else duration(store)
                if isinstance(d, bool) or not isinstance(d, int):
                    raise DomainError(f"expected int, got {d!r}")
                if d < 0:
                    raise DomainError(f"negative delay {d} at {where}")
                return at + d
            return delay
        raise TypeError(s)

    def _under(self, costs: CostModel) -> tuple[dict, dict, dict, dict]:
        key = (costs.unit, frozenset(costs.overrides.items()))
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = ({}, {}, {}, {})
        return kept

    def moves(self, costs: CostModel) -> dict[tuple, dict]:
        """Store -> head id -> :func:`move`'s entry, under ``costs``."""
        return self._under(costs)[0]

    def searches(self, costs: CostModel) -> dict[tuple, object]:
        """``explorer.kept_search``'s entries under ``costs``, one per
        search, keyed by what the search reads: each is the search's
        record (``explorer.Search``), its state graph included."""
        return self._under(costs)[1]

    def walks(self, costs: CostModel) -> dict[tuple, tuple]:
        """The isolated walks of ``explorer.isolated_durations`` and
        ``explorer.lone_run`` under ``costs``, keyed by what each reads."""
        return self._under(costs)[2]

    def proofs(self, costs: CostModel) -> dict[int, tuple]:
        """Tolerance -> ``proofs.check_proof``'s numbering of assertions
        and statements and the discharge results it keys, under ``costs``."""
        return self._under(costs)[3]


def _guard(e: lang.Expr) -> Callable[[Store], bool]:
    value = compile_expr(e)
    return lambda store: as_bool(value(store))


def _payload(s: lang.Print) -> Callable[[Store], str]:
    if isinstance(s.value, lang.StrLit):
        return lambda store, text=s.value.value: text
    value = compile_expr(s.value)
    return lambda store: render_value(value(store))


def control_table(program: lang.Program) -> ControlTable:
    """The program's control table, built on first use and kept on it."""
    try:
        return program._control_table
    except AttributeError:
        object.__setattr__(program, "_control_table", ControlTable(program))
        return program._control_table


# ---------------------------------------------------------------------------
# Configurations and steps
# ---------------------------------------------------------------------------

def start_store(program: lang.Program, store: Store) -> tuple:
    """``store``, sorted, once checked to hold every declared name within its domain."""
    for d in program.declarations:
        if d.name not in store:
            raise LeakLabError(f"initial store misses {d.name!r}")
        if store[d.name] not in d.domain:
            raise DomainError(f"initial value of {d.name!r} outside domain")
    return tuple(sorted(store.items()))


def head_at(program: lang.Program, loc: lang.LocationId) -> Optional[int]:
    """A thread's head id at ``loc``: its statement's id, 0 at the exit, else None."""
    labels, statements = program.locations[loc.thread]
    return id(statements[loc]) if loc in statements else 0 if loc == labels[-1] else None


def initial_configuration(program: lang.Program, store: Store) -> Configuration:
    """Start state: every thread at its first statement, arrivals at clock 0."""
    checked, table = start_store(program, store), control_table(program)
    return Configuration(tuple([table.nodes[h].continuation if h else () for h in table.heads]),
                         checked, 0, (), table.arrivals)


def enabled(program: lang.Program, config: Configuration) -> frozenset[StepChoice]:
    """Threads that may take a step: not done, and not at an await whose
    guard fails."""
    nodes, store = control_table(program).nodes, config.store_dict()
    heads = [(t, nodes[id(residue[0])]) for t, residue in enumerate(config.residues) if residue]
    return frozenset([StepChoice(t) for t, node in heads
                      if node.kind != _REGION or node.run(store)])


# How many statements one region body may run before it is taken not to
# terminate.
REGION_BUDGET = 100_000


def run_atomic(stmt: lang.Stmt, store: Store, clock: int, costs: CostModel,
               program: lang.Program, hook) -> Optional[int]:
    """Run one atomic action on ``store`` in place; return the clock after
    it, or None for a region whose guard fails.

    The action is a skip, assignment, print or delay, a branch or loop
    head, which only costs its unit, or a region: a region whose guard
    holds costs its entry unit, and its body runs to completion within the
    action, branches resolved against the store as it evolves.  ``hook``,
    unless None, is called as ``hook(s, before, after)`` after every
    statement ``s`` that runs, with the clock before and after it: the
    action itself, or else each statement of the region's body.

    A value outside its declared domain and a negative or non-integer delay
    raise :class:`DomainError`; a body that does not finish within
    ``REGION_BUDGET`` statements raises :class:`BudgetExceeded`.
    """
    nodes = control_table(program).nodes
    node = nodes[id(stmt)]
    if node.kind != _REGION:
        after = (node.run(store, clock, costs) if node.kind == _ACTION
                 else clock + costs.action_cost(stmt.label))
        if hook is not None:
            hook(stmt, clock, after)
        return after
    if not node.run(store):
        return None
    clock += costs.action_cost(stmt.label)  # entry cost
    residue = node.alt
    budget = REGION_BUDGET
    while residue:
        budget -= 1
        if budget <= 0:
            raise BudgetExceeded("await body did not terminate")
        inner = residue[0]
        node = nodes[id(inner)]
        before = clock
        if node.kind == _BRANCH:
            residue = node.succ if node.run(store) else node.alt
            clock += costs.action_cost(inner.label)
        else:
            residue = node.succ
            clock = node.run(store, clock, costs)
        if hook is not None:
            hook(inner, before, clock)
    return clock


def move(program: lang.Program, thread: int, head: int, store: tuple,
         costs: CostModel) -> Optional[tuple]:
    """Step thread ``thread`` from the statement with id ``head`` on a
    configuration's ``store``; keep and return the entry in the table's
    ``moves(costs)``: None if the thread is blocked at an await, its guard
    failing in :func:`run_atomic`, else the move ``(next head or 0 once
    done, store, clock advance, events, arrivals)``, ``(thread, payload,
    timestamp)`` events and sorted ``(location, clocks)`` arrivals timed
    from the step's start, and ``store`` itself if not written.  A step
    that raises keeps nothing.
    This is the table's one writer, and callers read the table first, so
    each call is a miss and makes one entry, a blocked one included."""
    table = control_table(program)
    node = table.nodes[head]
    stmt = node.continuation[0]
    values = dict(store)
    snaps: dict = {}  # location -> arrival clocks
    events: list[tuple] = []

    def record(s: lang.Stmt, before: int, after: int) -> None:
        if s is not stmt:  # control reached s inside a region body
            snaps.setdefault(s.label, []).append(before)
        payload = table.nodes[id(s)].payload
        if payload is not None:
            events.append((thread, payload(values), after))

    if node.kind == _BRANCH:
        residue = node.succ if node.run(values) else node.alt
        clock = costs.action_cost(stmt.label)
    else:
        clock = run_atomic(stmt, values, 0, costs, program,
                           record if node.kind == _REGION or node.payload else None)
        residue = node.succ
    entry = None
    if clock is not None:
        loc = residue[0].label if residue else program.locations[thread][0][-1]
        snaps.setdefault(loc, []).append(clock)
        after = tuple(sorted(values.items()))
        entry = (id(residue[0]) if residue else 0, store if after == store else after,
                 clock, tuple(events),
                 tuple(sorted([(loc, tuple(times)) for loc, times in snaps.items()])))
    table.moves(costs).setdefault(store, {})[head] = entry  # a row comes with its first entry
    return entry


def step(program: lang.Program, config: Configuration, choice: StepChoice,
         costs: CostModel = CostModel()) -> Configuration:
    """Advance one thread by one atomic action: apply its :func:`move`.

    The new residue is the table's continuation of the next head, so a
    residue is always the static continuation of its head statement.
    """
    t_idx = choice.thread
    residue = config.residues[t_idx]
    if not residue:
        raise LeakLabError(f"thread {t_idx} already done")
    table = control_table(program)
    head = id(residue[0])
    row = table.moves(costs).get(config.store) or {}
    entry = row[head] if head in row else move(program, t_idx, head, config.store, costs)
    if entry is None:
        raise LeakLabError("stepping a blocked await")
    head, store, advance, events, arrivals = entry
    clock, snaps = config.clock, dict(config.snapshots)
    for loc, times in arrivals:
        snaps[loc] = snaps.get(loc, ()) + tuple([clock + at for at in times])
    residues = list(config.residues)
    residues[t_idx] = table.nodes[head].continuation if head else ()
    return Configuration(tuple(residues), store, clock + advance, config.trace + tuple(
        [Event(thread, payload, at + clock) for thread, payload, at in events]),
        tuple(sorted(snaps.items())))
