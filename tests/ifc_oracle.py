"""Test-only reference: the flow machine's non-interference checks by
enumeration.

These are ``ifc.check_sequential_ni`` and ``ifc.check_concurrent_ni`` as
they were before the memoised pass over cut pairs.  The sequential check
runs every prefix again from ``q0``; the concurrent one runs every
interleaving of every prefix pair again from ``q0``, prefix pairs in
``itertools.product`` order and each pair's interleavings first sequence
first.  Its cost grows with the number of interleavings, so it is slow on
purpose and kept only so that tests can compare the memoised checks
against it.
"""

from __future__ import annotations

import itertools
from typing import Union

from leaklab.errors import LeakLabError
from leaklab.ifc import (Command, FlowViolation, MachineState, NIResult, TaggedOp,
                         expand_commands, transition, view)
from leaklab.lattice import SecurityLattice


def indistinguishable(q1: MachineState, q2: MachineState,
                      lattice: SecurityLattice, user: str) -> bool:
    """Whether ``user`` sees the same view of the two states."""
    if q1.variables() != q2.variables():
        raise LeakLabError("states range over different variable universes")
    return view(q1, lattice, user) == view(q2, lattice, user)


def _run(state: MachineState, lattice: SecurityLattice,
         ops: tuple[TaggedOp, ...]) -> Union[MachineState, FlowViolation]:
    for user, op in ops:
        result = transition(state, lattice, user, op)
        if isinstance(result, FlowViolation):
            return result
        state = result
    return state


def check_sequential_ni(commands: list[tuple[str, Command]], observer: str,
                        q0: MachineState, lattice: SecurityLattice) -> NIResult:
    """Every prefix of the program's input sequence must keep the observer's
    view at its initial value and never hit the epsilon outcome."""
    ops = expand_commands(commands)
    for cut in range(len(ops) + 1):
        prefix = tuple(ops[:cut])
        result = _run(q0, lattice, prefix)
        if isinstance(result, FlowViolation):
            return NIResult(False, "flow violation", prefix, result)
        if not indistinguishable(q0, result, lattice, observer):
            return NIResult(False, "observer view changed", prefix)
    return NIResult(True)


def _interleavings(a: tuple, b: tuple):
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in _interleavings(a[1:], b):
        yield (a[0],) + rest
    for rest in _interleavings(a, b[1:]):
        yield (b[0],) + rest


def check_concurrent_ni(s1: list[tuple[str, Command]],
                        s2: list[tuple[str, Command]], observer: str,
                        q0: MachineState, lattice: SecurityLattice) -> NIResult:
    """Both command sequences must be sequentially non-interfering, and every
    interleaving of every prefix pair must preserve the observer's view."""
    for seq in (s1, s2):
        result = check_sequential_ni(seq, observer, q0, lattice)
        if not result.ni:
            return result
    ops1, ops2 = expand_commands(s1), expand_commands(s2)
    for cut1, cut2 in itertools.product(range(len(ops1) + 1), range(len(ops2) + 1)):
        p1, p2 = tuple(ops1[:cut1]), tuple(ops2[:cut2])
        for weave in _interleavings(p1, p2):
            result = _run(q0, lattice, weave)
            if isinstance(result, FlowViolation):
                return NIResult(False, "flow violation", weave, result)
            if not indistinguishable(q0, result, lattice, observer):
                return NIResult(False, "observer view changed", weave)
    return NIResult(True)
