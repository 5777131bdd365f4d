"""Information-flow state machine over a security lattice.

A machine state carries a membership set of (user, variable) tuples, a
label map over users and variables, and a value map over variables.
Commands decompose into read/write input sequences; a read by a user below
the variable's label is a flow violation (a first-class epsilon result,
not an exception), and a write by a user above the variable's label
relabels the variable upward with the join.

Non-interference asks every prefix of the (user-tagged) input sequence to
keep the observer's view at its initial value and never hit the epsilon
outcome; the concurrent variant asks the same of every interleaving of every
prefix pair.  One memoised pass over the cut pairs decides both (a single
sequence pairs with the empty one), and reaches each distinct state once.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Union

from . import lang, semantics
from .errors import LeakLabError
from .lang import record, replace
from .lattice import SecurityLattice

READ = "r"
WRITE = "w"

OUT_VAR = "out"  # distinguished public sink written by print


@record(frozen=True)
class MachineState:
    members: frozenset[tuple[str, str]]
    labels: dict[str, str]  # users and variables -> lattice element
    values: dict[str, semantics.Value]

    def __post_init__(self) -> None:
        for u, v in self.members:
            if u not in self.labels or v not in self.labels:
                raise LeakLabError(f"member ({u}, {v}) lacks a label")
        for v in self.values:
            if v not in self.labels:
                raise LeakLabError(f"variable {v} lacks a label")

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.values))

    def with_value(self, var: str, value: semantics.Value) -> "MachineState":
        values = dict(self.values)
        values[var] = value
        return replace(self, values=values)

    def with_label(self, var: str, label: str) -> "MachineState":
        labels = dict(self.labels)
        labels[var] = label
        return replace(self, labels=labels)


@record(frozen=True)
class FlowViolation:
    """The epsilon outcome: a read broke the can-flow-to constraint."""

    user: str
    variable: str
    op: str
    constraint: str


@record(frozen=True)
class InputOp:
    variable: str
    op: str  # READ or WRITE
    value_expr: Optional[lang.Expr] = None  # for writes: new value

    def __post_init__(self) -> None:
        if self.op not in (READ, WRITE):
            raise LeakLabError(f"bad primitive op {self.op!r}")

    @functools.cached_property
    def new_value(self) -> Callable[[semantics.Store], semantics.Value]:
        """A write's value as a function of the values, compiled once."""
        if self.value_expr is None:
            return lambda values: 0
        if isinstance(self.value_expr, lang.StrLit):
            return lambda values: 1  # the sink records that an output happened
        return semantics.compile_expr(self.value_expr)


Command = Union[lang.Assign, lang.Skip, lang.Print, "GuardEval"]


@record(frozen=True)
class GuardEval:
    guard: lang.Expr


def input_sequence(command: Command) -> tuple[InputOp, ...]:
    """Decompose one command into its primitive reads and writes.

    Assignment reads the expression support left to right then writes the
    target; print reads then writes the public sink; skip is empty; a bare
    guard evaluation only reads.
    """
    def reads(e: lang.Expr) -> list[InputOp]:
        ordered: list[str] = []
        def walk(x: lang.Expr) -> None:
            if isinstance(x, lang.Var):
                if x.name not in ordered:
                    ordered.append(x.name)
            elif isinstance(x, lang.UnaryOp):
                walk(x.operand)
            elif isinstance(x, lang.BinOp):
                walk(x.left)
                walk(x.right)
        walk(e)
        return [InputOp(v, READ) for v in ordered]

    if isinstance(command, lang.Skip):
        return ()
    if isinstance(command, lang.Assign):
        return tuple(reads(command.value) + [InputOp(command.target, WRITE, command.value)])
    if isinstance(command, lang.Print):
        if isinstance(command.value, lang.StrLit):
            return (InputOp(OUT_VAR, WRITE, command.value),)
        return tuple(reads(command.value) + [InputOp(OUT_VAR, WRITE, command.value)])
    if isinstance(command, GuardEval):
        return tuple(reads(command.guard))
    raise LeakLabError(f"unsupported command {type(command).__name__}")


def transition(state: MachineState, lattice: SecurityLattice, user: str,
               op: InputOp) -> Union[MachineState, FlowViolation]:
    """Apply one primitive operation.

    Reads leave the state unchanged but demand label(v) <= label(u); a
    failing read returns the epsilon outcome.  Writes always update the
    value, relabelling the variable to join(label(u), label(v)) when the
    user's label does not already flow to the variable's.
    """
    if user not in state.labels:
        raise LeakLabError(f"unknown user {user!r}")
    if op.variable not in state.values:
        raise LeakLabError(f"unknown variable {op.variable!r}")
    u_label = state.labels[user]
    v_label = state.labels[op.variable]
    if op.op == READ:
        if lattice.leq(v_label, u_label):
            return state
        return FlowViolation(user, op.variable, READ,
                             f"{v_label} cannot flow to {u_label}")
    out = state.with_value(op.variable, op.new_value(state.values))
    if not lattice.leq(u_label, v_label):
        out = out.with_label(op.variable, lattice.join(u_label, v_label))
    return out


@record(frozen=True)
class ViewEntry:
    visible: bool
    label: Optional[str] = None
    value: Optional[semantics.Value] = None
    value_type: Optional[type] = None  # False == 0, but they print apart


def view(state: MachineState, lattice: SecurityLattice, user: str
         ) -> dict[str, ViewEntry]:
    """The observer's projection: label and value where label(v) <= label(u),
    concealed otherwise."""
    if user not in state.labels:
        raise LeakLabError(f"unknown user {user!r}")
    out: dict[str, ViewEntry] = {}
    for v in state.variables():
        if lattice.leq(state.labels[v], state.labels[user]):
            value = state.values[v]
            out[v] = ViewEntry(True, state.labels[v], value, type(value))
        else:
            out[v] = ViewEntry(False)
    return out


# ---------------------------------------------------------------------------
# Non-interference
# ---------------------------------------------------------------------------

TaggedOp = tuple[str, InputOp]  # (issuing user, primitive op)


def expand_commands(commands: list[tuple[str, Command]]) -> list[TaggedOp]:
    ops: list[TaggedOp] = []
    for user, command in commands:
        ops += [(user, op) for op in input_sequence(command)]
    return ops


@record
class NIResult:
    ni: bool
    reason: Optional[str] = None
    violating_prefix: Optional[tuple[TaggedOp, ...]] = None
    flow_violation: Optional[FlowViolation] = None


def check_sequential_ni(commands: list[tuple[str, Command]], observer: str,
                        q0: MachineState, lattice: SecurityLattice) -> NIResult:
    """Every prefix of the program's input sequence must keep the observer's
    view at its initial value and never hit the epsilon outcome."""
    return _check_weaves(expand_commands(commands), [], observer, q0, lattice)


def check_concurrent_ni(s1: list[tuple[str, Command]],
                        s2: list[tuple[str, Command]], observer: str,
                        q0: MachineState, lattice: SecurityLattice) -> NIResult:
    """Both command sequences must be sequentially non-interfering, and every
    interleaving of every prefix pair must preserve the observer's view."""
    for seq in (s1, s2):
        result = check_sequential_ni(seq, observer, q0, lattice)
        if not result.ni:
            return result
    return _check_weaves(expand_commands(s1), expand_commands(s2), observer, q0, lattice)


def _check_weaves(ops1: list[TaggedOp], ops2: list[TaggedOp], observer: str,
                  q0: MachineState, lattice: SecurityLattice) -> NIResult:
    """One pass over the cut pairs ``(i, j)``, ``i`` outer and ``j`` inner.

    Each pair keeps, per distinct state, the least weave (choices ``"0"``
    and ``"1"``, first sequence first) reaching it from ``(i-1, j)`` by
    ``ops1[i-1]`` or from ``(i, j-1)`` by ``ops2[j-1]``.  A weave's proper
    prefixes belong to earlier pairs, so the least failing (or raising) step
    at the first failing pair is the first failing interleaving of the least
    failing prefix pair.  With ``ops2`` empty this is one pass over ``ops1``.
    """
    seen = view(q0, lattice, observer)
    row: list[dict[tuple, tuple[str, MachineState]]] = []
    for i in range(len(ops1) + 1):
        above, row = row, []
        for j in range(len(ops2) + 1):
            steps = [("0", ops1[i - 1], above[j])] if i else []
            steps += [("1", ops2[j - 1], row[j - 1])] if j else []
            stepped = []
            for side, (user, op), before in steps:
                for weave, state in before.values():
                    try:
                        stepped.append((weave + side, transition(state, lattice, user, op)))
                    except LeakLabError as e:
                        stepped.append((weave + side, e))
            cell = {} if i or j else {None: ("", q0)}  # (0, 0) holds q0 alone
            for weave, outcome in sorted(stepped, key=lambda s: s[0]):
                if isinstance(outcome, LeakLabError):
                    raise outcome
                if isinstance(outcome, MachineState) and view(outcome, lattice, observer) == seen:
                    # every dict keeps q0's key order; types stay in the key
                    # since True and 1 hash alike but evaluate apart
                    key = (tuple(outcome.labels.values()),
                           tuple((type(v), v) for v in outcome.values.values()))
                    cell.setdefault(key, (weave, outcome))
                    continue
                sources = (iter(ops1), iter(ops2))
                prefix = tuple(next(sources[int(c)]) for c in weave)
                if isinstance(outcome, FlowViolation):
                    return NIResult(False, "flow violation", prefix, outcome)
                return NIResult(False, "observer view changed", prefix)
            row.append(cell)
    return NIResult(True)
