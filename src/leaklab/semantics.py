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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from . import lang
from .errors import BudgetExceeded, DeadlockError, DomainError, LeakLabError

Value = Union[int, bool]
Store = dict[str, Value]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Event:
    thread: int
    payload: str
    timestamp: int


@dataclass(frozen=True)
class Configuration:
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


@dataclass(frozen=True, order=True)
class StepChoice:
    thread: int


def eval_expr(e: lang.Expr, store: Store) -> Value:
    """Strict evaluation; total on stores covering the expression's support."""
    if isinstance(e, lang.IntLit):
        return e.value
    if isinstance(e, lang.BoolLit):
        return e.value
    if isinstance(e, lang.StrLit):
        raise LeakLabError("string literal outside print")
    if isinstance(e, lang.Var):
        try:
            return store[e.name]
        except KeyError:
            raise LeakLabError(f"variable {e.name!r} unbound") from None
    if isinstance(e, lang.UnaryOp):
        v = eval_expr(e.operand, store)
        if e.op == "-":
            return -_as_int(v)
        return not _as_bool(v)
    if isinstance(e, lang.BinOp):
        left = eval_expr(e.left, store)
        if e.op == "and":
            return _as_bool(left) and _as_bool(eval_expr(e.right, store))
        if e.op == "or":
            return _as_bool(left) or _as_bool(eval_expr(e.right, store))
        right = eval_expr(e.right, store)
        if e.op == "=":
            return left == right
        if e.op == "!=":
            return left != right
        if e.op == "<":
            return _as_int(left) < _as_int(right)
        if e.op == "<=":
            return _as_int(left) <= _as_int(right)
        if e.op == ">":
            return _as_int(left) > _as_int(right)
        if e.op == ">=":
            return _as_int(left) >= _as_int(right)
        if e.op == "+":
            return _as_int(left) + _as_int(right)
        if e.op == "-":
            return _as_int(left) - _as_int(right)
        if e.op == "*":
            return _as_int(left) * _as_int(right)
    raise TypeError(e)


def _as_int(v: Value) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise LeakLabError(f"expected int, got {v!r}")
    return v


def _as_bool(v: Value) -> bool:
    if isinstance(v, bool):
        return v
    return v != 0  # int guard means "value != 0"


def eval_guard(e: lang.Expr, store: Store) -> bool:
    return _as_bool(eval_expr(e, store))


def render_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# Configurations and steps
# ---------------------------------------------------------------------------

def initial_configuration(program: lang.Program, store: Store) -> Configuration:
    """Start state: every thread at its first statement, arrivals at clock 0."""
    for d in program.declarations:
        if d.name not in store:
            raise LeakLabError(f"initial store misses {d.name!r}")
        if store[d.name] not in d.domain:
            raise DomainError(f"initial value of {d.name!r} outside domain")
    residues = tuple(t.body for t in program.threads)
    snaps: dict[lang.LocationId, tuple[int, ...]] = {}
    for t_idx, residue in enumerate(residues):
        _record_arrival(snaps, program, t_idx, residue, 0)
    return Configuration(
        residues=residues,
        store=tuple(sorted(store.items())),
        clock=0,
        trace=(),
        snapshots=tuple(sorted(snaps.items())),
    )


def _record_arrival(snaps: dict, program: lang.Program, thread: int,
                    residue: tuple[lang.Stmt, ...], clock: int) -> None:
    loc = residue[0].label if residue else lang.exit_label(program, thread)
    snaps[loc] = snaps.get(loc, ()) + (clock,)


def enabled(program: lang.Program, config: Configuration) -> frozenset[StepChoice]:
    """Threads that may take a step: not done, and not blocked on an await."""
    store = config.store_dict()
    choices = []
    for t_idx, residue in enumerate(config.residues):
        if not residue:
            continue
        head = residue[0]
        if isinstance(head, lang.Await) and not eval_guard(head.guard, store):
            continue
        choices.append(StepChoice(t_idx))
    return frozenset(choices)


# How many statements one region body may run before it is taken not to
# terminate.
REGION_BUDGET = 100_000


def run_atomic(stmt: lang.Stmt, store: Store, clock: int, costs: CostModel,
               program: lang.Program, hook) -> int:
    """Run one atomic action on ``store`` in place; return the clock after it.

    The action is a skip, assignment, print or delay, or a region: a region
    whose guard holds costs its entry unit, and its body runs to completion
    within the action, branches resolved against the store as it evolves.
    ``hook``, unless None, is called as ``hook(s, before, after)`` after
    every statement ``s`` that runs, with the clock before and after it:
    the action itself, or else each statement of the region's body.

    A value outside its declared domain and a negative or non-integer delay
    raise :class:`DomainError`; a body that does not finish within
    ``REGION_BUDGET`` statements raises :class:`BudgetExceeded`.
    """
    if isinstance(stmt, lang.Await):
        if not eval_guard(stmt.guard, store):
            raise LeakLabError("stepping a blocked await")
        clock += costs.action_cost(stmt.label)  # entry cost
        work: list[lang.Stmt] = list(stmt.body)
        budget = REGION_BUDGET
        while work:
            budget -= 1
            if budget <= 0:
                raise BudgetExceeded("await body did not terminate")
            inner = work.pop(0)
            before = clock
            if isinstance(inner, (lang.If, lang.While)):
                work = list(_unfold(inner, store)) + work
                clock += costs.action_cost(inner.label)
            else:
                clock = _run_simple(inner, store, clock, costs, program)
            if hook is not None:
                hook(inner, before, clock)
        return clock
    after = _run_simple(stmt, store, clock, costs, program)
    if hook is not None:
        hook(stmt, clock, after)
    return after


def _unfold(s: lang.Stmt, store: Store) -> tuple[lang.Stmt, ...]:
    """The statements a branch or a loop head passes control to."""
    if isinstance(s, lang.If):
        return s.then_body if eval_guard(s.guard, store) else s.else_body
    return s.body + (s,) if eval_guard(s.guard, store) else ()


def _run_simple(s: lang.Stmt, store: Store, at: int, costs: CostModel,
                program: lang.Program) -> int:
    """One skip, assignment, print or delay; returns the post-action clock."""
    if isinstance(s, (lang.Skip, lang.Print)):
        return at + costs.action_cost(s.label)
    if isinstance(s, lang.Assign):
        value = eval_expr(s.value, store)
        if value not in program.decl(s.target).domain:
            raise DomainError(
                f"assignment at {program.location_str(s.label)} sets "
                f"{s.target} to {value}, outside its declared domain")
        store[s.target] = value
        return at + costs.action_cost(s.label)
    if isinstance(s, lang.Delay):
        if s.label in costs.overrides:
            d = costs.overrides[s.label]
        else:
            d = eval_expr(s.duration, store)
        if isinstance(d, bool) or not isinstance(d, int):
            raise DomainError(f"expected int, got {d!r}")
        if d < 0:
            raise DomainError(f"negative delay {d} at {program.location_str(s.label)}")
        return at + d
    raise TypeError(s)


def step(program: lang.Program, config: Configuration, choice: StepChoice,
         costs: CostModel = CostModel()) -> Configuration:
    """Advance one thread by one atomic action."""
    t_idx = choice.thread
    residue = config.residues[t_idx]
    if not residue:
        raise LeakLabError(f"thread {t_idx} already done")
    head, rest = residue[0], residue[1:]
    store = config.store_dict()
    clock = config.clock
    trace = list(config.trace)
    snaps = config.snapshot_dict()

    def hook(s: lang.Stmt, before: int, after: int) -> None:
        if s is not head:  # control reached s inside a region body
            snaps[s.label] = snaps.get(s.label, ()) + (before,)
        if isinstance(s, lang.Print):
            if isinstance(s.value, lang.StrLit):
                payload = s.value.value
            else:
                payload = render_value(eval_expr(s.value, store))
            trace.append(Event(t_idx, payload, after))

    if isinstance(head, (lang.If, lang.While)):
        new_residue = _unfold(head, store) + rest
        clock += costs.action_cost(head.label)
    else:
        clock = run_atomic(head, store, clock, costs, program, hook)
        new_residue = rest

    _record_arrival(snaps, program, t_idx, new_residue, clock)
    residues = list(config.residues)
    residues[t_idx] = new_residue
    return Configuration(
        residues=tuple(residues),
        store=tuple(sorted(store.items())),
        clock=clock,
        trace=tuple(trace),
        snapshots=tuple(sorted(snaps.items())),
    )


def run_deterministic(program: lang.Program, init: Store,
                      costs: CostModel = CostModel(),
                      max_steps: int = 10_000) -> Configuration:
    """Run a single-thread program to completion."""
    if len(program.threads) != 1:
        raise LeakLabError("deterministic runner requires exactly one thread")
    config = initial_configuration(program, init)
    for _ in range(max_steps):
        if config.all_done():
            return config
        choices = enabled(program, config)
        if not choices:
            raise DeadlockError("single thread blocked on await")
        config = step(program, config, next(iter(choices)), costs)
    raise BudgetExceeded(f"no termination within {max_steps} steps")
