"""Differential tests: the memoised non-interference checks of ``ifc``
against the enumerator of ``ifc_oracle``.

Both must give equal ``NIResult``s (verdict, reason, witness prefix and
flow violation), or raise the same error, on seeded scenarios of at most
three ops per side.  The diamond family is where interleavings matter: a
``top`` writer can relabel a ``b`` variable that a ``b`` reader then reads,
which no single sequence shows.
"""

from __future__ import annotations

import random

import pytest

from leaklab import ifc, lang
from leaklab.errors import LeakLabError
from leaklab.lattice import build_lattice, two_point

import ifc_oracle

CHAIN3 = build_lattice(["low", "mid", "high"], [("low", "mid"), ("mid", "high")])
DIAMOND = build_lattice(
    ["bot", "a", "b", "top"],
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
MAX_OPS = 3


def machine(users: dict[str, str], variables: dict[str, tuple[str, int]]) -> ifc.MachineState:
    labels = dict(users)
    labels.update({v: label for v, (label, _) in variables.items()})
    values = {v: value for v, (_, value) in variables.items()}
    return ifc.MachineState(frozenset((u, v) for u in users for v in values), labels, values)


def random_command(rng: random.Random, variables: list[str], prints: bool) -> ifc.Command:
    var = lambda: lang.Var(rng.choice(variables))  # noqa: E731
    target = rng.choice(variables)
    makers = [
        lambda: lang.Skip(),
        lambda: lang.Assign(target, lang.IntLit(rng.randint(0, 2))),
        lambda: lang.Assign(target, var()),
        lambda: lang.Assign(target, lang.BinOp("+", var(), var())),
        # a bool value makes a later ``+`` raise in some interleavings only
        lambda: lang.Assign(target, lang.BinOp("<", var(), lang.IntLit(1))),
        lambda: ifc.GuardEval(var()),
    ]
    if prints:
        makers += [lambda: lang.Print(var()), lambda: lang.Print(lang.StrLit("tick"))]
    return rng.choice(makers)()


def random_sequence(rng: random.Random, users: list[str], variables: list[str],
                    prints: bool = True) -> list:
    """Commands of up to ``MAX_OPS`` ops in all."""
    seq: list = []
    while True:
        command = (rng.choice(users), random_command(rng, variables, prints))
        if len(ifc.expand_commands(seq + [command])) > MAX_OPS:
            return seq
        seq.append(command)
        if rng.random() < 0.3:
            return seq


def outcome(check, *args):
    try:
        return check(*args)
    except LeakLabError as e:
        return ("error", str(e))


def assert_same(s1, s2, observer, q0, lattice) -> ifc.NIResult:
    for fast, slow, args in (
            (ifc.check_sequential_ni, ifc_oracle.check_sequential_ni, (s1, observer)),
            (ifc.check_sequential_ni, ifc_oracle.check_sequential_ni, (s2, observer)),
            (ifc.check_concurrent_ni, ifc_oracle.check_concurrent_ni, (s1, s2, observer))):
        expected = outcome(slow, *args, q0, lattice)
        assert outcome(fast, *args, q0, lattice) == expected, (s1, s2, observer, q0)
    return expected


def test_diamond_scenarios_match_the_enumerator():
    """One user per element, observer ``a``, variables labelled ``b`` or
    ``bot``, no prints (the ``bot`` sink would show every one); enough of
    these fail only concurrently to keep the comparison honest."""
    rng = random.Random(20261018)
    users = {"ubot": "bot", "ua": "a", "ub": "b", "utop": "top"}
    concurrent_only = 0
    for _ in range(2000):
        q0 = machine(users, {name: (rng.choice(["b", "bot"]), rng.randint(0, 1))
                             for name in ("x", "y")} | {"out": ("bot", 0)})
        s1, s2 = (random_sequence(rng, list(users), ["x", "y"], prints=False)
                  for _ in range(2))
        result = assert_same(s1, s2, "ua", q0, DIAMOND)
        sequential = [ifc.check_sequential_ni(s, "ua", q0, DIAMOND).ni for s in (s1, s2)]
        if all(sequential) and isinstance(result, ifc.NIResult) and not result.ni:
            concurrent_only += 1
    assert concurrent_only >= 20


@pytest.mark.parametrize("lattice", [two_point(), CHAIN3, DIAMOND],
                         ids=["two-point", "chain3", "diamond"])
def test_random_scenarios_match_the_enumerator(lattice):
    rng = random.Random(len(lattice.elements))
    for _ in range(400):
        users = {u: rng.choice(lattice.elements) for u in ("u1", "u2")}
        variables = {v: (rng.choice(lattice.elements), rng.randint(0, 2))
                     for v in ("x", "y", "z")}
        variables["out"] = (rng.choice(lattice.elements), 0)
        q0 = machine(users, variables)
        s1, s2 = (random_sequence(rng, list(users), ["x", "y", "z"]) for _ in range(2))
        assert_same(s1, s2, rng.choice(list(users)), q0, lattice)


def test_relabel_then_read_witness():
    q0 = machine({"ann": "a", "bea": "b", "root": "top"},
                 {"x": ("b", 0), "y": ("b", 0), "out": ("bot", 0)})
    s1 = [("root", lang.Assign("x", lang.IntLit(1)))]
    s2 = [("bea", lang.Assign("y", lang.Var("x")))]
    result = assert_same(s1, s2, "ann", q0, DIAMOND)
    assert result.reason == "flow violation"
    assert [(u, op.variable, op.op) for u, op in result.violating_prefix] == [
        ("root", "x", "w"), ("bea", "x", "r")]


def test_bool_and_int_states_stay_apart():
    """``x`` is ``1`` or ``True`` after ``x = y < 1`` and ``x = 1`` run in
    either order; only the ``True`` state makes ``x + 0`` raise."""
    q0 = machine({"hi": "high", "lo": "low"},
                 {v: ("high", 0) for v in ("x", "y", "z")} | {"out": ("low", 0)})
    s1 = [("hi", lang.Assign("x", lang.BinOp("<", lang.Var("y"), lang.IntLit(1))))]
    s2 = [("hi", lang.Assign("x", lang.IntLit(1))),
          ("hi", lang.Assign("z", lang.BinOp("+", lang.Var("x"), lang.IntLit(0))))]
    assert assert_same(s1, s2, "lo", q0, two_point()) == ("error", "expected int, got True")


def test_least_raising_weave_decides_the_error():
    """Two weaves of the first raising cut pair raise different errors; the
    enumerator meets ``False`` first.  ``x`` and ``y`` are hidden from the
    observer, whose view would otherwise change when ``x`` becomes ``False``."""
    q0 = machine({"u1": "high", "u2": "high", "lo": "low"},
                 {"x": ("high", 0), "y": ("high", 1), "out": ("low", 0)})
    less = lambda a, b: lang.BinOp("<", lang.Var(a), lang.IntLit(b))  # noqa: E731
    s1 = [("u2", lang.Assign("x", less("y", 1)))]
    s2 = [("u1", ifc.GuardEval(lang.Var("y"))), ("u2", lang.Assign("y", less("x", 1)))]
    assert assert_same(s1, s2, "lo", q0, two_point()) == ("error", "expected int, got False")


def test_fifty_non_interfering_commands_per_side():
    """The case with no early exit: 100 ops a side, 10,201 cut pairs."""
    q0 = machine({"alice": "low", "bob": "high"},
                 {"x": ("low", 0), "y": ("high", 0), "out": ("low", 0)})
    plus_zero = lambda v: lang.Assign(v, lang.BinOp("+", lang.Var(v), lang.IntLit(0)))  # noqa: E731
    s1 = [("alice", plus_zero("x"))] * 50
    s2 = [("bob", plus_zero("y"))] * 50
    assert ifc.check_concurrent_ni(s1, s2, "alice", q0, two_point()).ni
