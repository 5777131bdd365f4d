from __future__ import annotations

import random

import pytest

from leaklab import ifc, lang
from leaklab.errors import LeakLabError
from leaklab.lattice import SecurityLattice, build_lattice, two_point

from ifc_oracle import indistinguishable

CHAIN3 = build_lattice(["low", "mid", "high"], [("low", "mid"), ("mid", "high")])
DIAMOND = build_lattice(
    ["bot", "a", "b", "top"],
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])


def state(labels: dict, values: dict) -> ifc.MachineState:
    users = [k for k in labels if k not in values]
    members = frozenset((u, v) for u in users for v in values)
    return ifc.MachineState(members, labels, values)


@pytest.fixture
def q0() -> ifc.MachineState:
    return state(
        {"alice": "low", "bob": "high", "x": "low", "h": "high", "out": "low"},
        {"x": 0, "h": 1, "out": 0})


LAT = two_point()


class TestLattice:
    def test_join_table_and_bounds(self):
        assert CHAIN3.join("low", "mid") == "mid"
        assert CHAIN3.bottom == "low" and CHAIN3.top == "high"
        assert DIAMOND.join("a", "b") == "top"

    def test_rejects_non_lattice(self):
        with pytest.raises(LeakLabError):
            build_lattice(["a", "b", "c"], [])  # no joins, no bottom/top

    def test_rejects_cycle(self):
        with pytest.raises(LeakLabError, match="antisymmetric"):
            build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


class TestInputSequence:
    def test_assignment_reads_then_writes(self):
        cmd = lang.Assign("v", lang.BinOp("+", lang.Var("v"), lang.IntLit(2)))
        assert [(o.variable, o.op) for o in ifc.input_sequence(cmd)] == [
            ("v", "r"), ("v", "w")]

    def test_skip_is_empty(self):
        assert ifc.input_sequence(lang.Skip()) == ()

    def test_print_writes_public_sink(self):
        cmd = lang.Print(lang.Var("h"))
        assert [(o.variable, o.op) for o in ifc.input_sequence(cmd)] == [
            ("h", "r"), ("out", "w")]

    def test_guard_reads_only(self):
        cmd = ifc.GuardEval(lang.BinOp(">", lang.Var("sem"), lang.IntLit(0)))
        assert [(o.variable, o.op) for o in ifc.input_sequence(cmd)] == [("sem", "r")]


class TestTransition:
    def test_low_user_reads_high_is_epsilon(self, q0):
        result = ifc.transition(q0, LAT, "alice", ifc.InputOp("h", "r"))
        assert isinstance(result, ifc.FlowViolation)
        assert result.op == "r"

    def test_high_writer_relabels_low_variable(self, q0):
        result = ifc.transition(q0, LAT, "bob", ifc.InputOp("x", "w", lang.IntLit(5)))
        assert result.labels["x"] == "high"
        assert result.values["x"] == 5

    def test_matching_read_leaves_state(self, q0):
        assert ifc.transition(q0, LAT, "alice", ifc.InputOp("x", "r")) == q0

    def test_unknown_user_or_variable(self, q0):
        with pytest.raises(LeakLabError):
            ifc.transition(q0, LAT, "mallory", ifc.InputOp("x", "r"))
        with pytest.raises(LeakLabError):
            ifc.transition(q0, LAT, "alice", ifc.InputOp("zz", "r"))


class TestView:
    def test_all_low_all_visible(self):
        q = state({"u": "low", "x": "low", "y": "low"}, {"x": 1, "y": 2})
        assert all(entry.visible for entry in ifc.view(q, LAT, "u").values())

    def test_high_concealed_from_low(self, q0):
        assert not ifc.view(q0, LAT, "alice")["h"].visible

    def test_top_sees_everything(self, q0):
        assert all(entry.visible for entry in ifc.view(q0, LAT, "bob").values())


class TestIndistinguishable:
    def test_reflexive(self, q0):
        assert indistinguishable(q0, q0, LAT, "alice")

    def test_high_difference_invisible(self, q0):
        assert indistinguishable(q0, q0.with_value("h", 0), LAT, "alice")

    def test_low_difference_visible(self, q0):
        assert not indistinguishable(q0, q0.with_value("x", 3), LAT, "alice")

    def test_mismatched_universes_rejected(self, q0):
        other = state({"alice": "low", "x": "low"}, {"x": 0})
        with pytest.raises(LeakLabError):
            indistinguishable(q0, other, LAT, "alice")


class TestSequentialNI:
    def test_high_to_high_writes_are_ni(self, q0):
        commands = [("bob", lang.Assign("h", lang.IntLit(0)))]
        assert ifc.check_sequential_ni(commands, "alice", q0, LAT).ni

    def test_empty_sequence_ni(self, q0):
        assert ifc.check_sequential_ni([], "alice", q0, LAT).ni

    def test_relabelling_write_breaks_ni(self, q0):
        commands = [("bob", lang.Assign("x", lang.IntLit(1)))]
        result = ifc.check_sequential_ni(commands, "alice", q0, LAT)
        assert not result.ni
        assert result.reason == "observer view changed"

    def test_flow_violation_reported_with_step(self, q0):
        commands = [("alice", lang.Assign("x", lang.Var("h")))]
        result = ifc.check_sequential_ni(commands, "alice", q0, LAT)
        assert not result.ni
        assert result.flow_violation is not None
        assert result.flow_violation.variable == "h"


class TestConcurrentNI:
    def test_disjoint_readonly_ni(self, q0):
        s1 = [("alice", ifc.GuardEval(lang.Var("x")))]
        s2 = [("alice", lang.Skip())]
        assert ifc.check_concurrent_ni(s1, s2, "alice", q0, LAT).ni

    def test_shared_write_violates_condition_two(self, q0):
        s1 = [("bob", lang.Assign("x", lang.IntLit(1)))]
        s2 = [("alice", ifc.GuardEval(lang.Var("x")))]
        result = ifc.check_concurrent_ni(s1, s2, "alice", q0, LAT)
        assert not result.ni

    def test_interleaving_read_of_relabelled_variable(self):
        # s1 relabels x upward; an interleaving where s2 then reads x as a
        # low user must surface the epsilon path.
        q = state({"writer": "high", "reader": "low", "x": "low", "y": "low"},
                  {"x": 0, "y": 0})
        s1 = [("writer", lang.Assign("x", lang.IntLit(1)))]
        s2 = [("reader", lang.Assign("y", lang.Var("x")))]
        result = ifc.check_concurrent_ni(s1, s2, "reader", q, LAT)
        assert not result.ni


# --- randomized properties over small lattices -------------------------------

def random_state(rng: random.Random, lattice: SecurityLattice) -> ifc.MachineState:
    variables = ["x", "y", "z"]
    users = ["u1", "u2"]
    labels = {name: rng.choice(lattice.elements) for name in variables + users}
    values = {name: rng.randint(0, 3) for name in variables}
    return state(labels, values)


def random_ops(rng: random.Random, variables: list[str], n: int) -> list:
    ops = []
    for _ in range(n):
        var = rng.choice(variables)
        if rng.random() < 0.5:
            ops.append(ifc.InputOp(var, "r"))
        else:
            ops.append(ifc.InputOp(var, "w", lang.IntLit(rng.randint(0, 3))))
    return ops


class TestRandomizedProperties:
    def test_label_monotonicity_and_epsilon_characterisation(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            q = random_state(rng, CHAIN3)
            user = rng.choice(["u1", "u2"])
            for op in random_ops(rng, list(q.values), 6):
                before = dict(q.labels)
                result = ifc.transition(q, CHAIN3, user, op)
                if isinstance(result, ifc.FlowViolation):
                    assert op.op == "r"
                    assert not CHAIN3.leq(q.labels[op.variable], q.labels[user])
                    continue
                if op.op == "r":
                    assert result == q
                    assert CHAIN3.leq(q.labels[op.variable], q.labels[user])
                for v in result.values:
                    assert CHAIN3.leq(before[v], result.labels[v])
                q = result

    def test_indistinguishable_is_equivalence(self):
        rng = random.Random(7)
        for _ in range(200):
            states = [random_state(rng, CHAIN3) for _ in range(3)]
            # Same universe: copy labels of users, keep variables aligned.
            q1, q2, q3 = states
            user = "u1"
            assert indistinguishable(q1, q1, CHAIN3, user)
            if indistinguishable(q1, q2, CHAIN3, user):
                assert indistinguishable(q2, q1, CHAIN3, user)
                if indistinguishable(q2, q3, CHAIN3, user):
                    assert indistinguishable(q1, q3, CHAIN3, user)

    def test_concurrent_ni_implies_sequential_ni(self):
        rng = random.Random(99)
        commands = [
            lambda: lang.Skip(),
            lambda: lang.Assign(rng.choice(["x", "y"]), lang.IntLit(rng.randint(0, 3))),
            lambda: lang.Assign(rng.choice(["x", "y"]), lang.Var(rng.choice(["x", "z"]))),
            lambda: ifc.GuardEval(lang.Var(rng.choice(["x", "y", "z"]))),
        ]
        checked = 0
        for _ in range(250):
            q = random_state(rng, CHAIN3)
            user = rng.choice(["u1", "u2"])
            def seq():
                out = []
                while len(ifc.expand_commands(out)) < rng.randint(1, 3):
                    out.append((rng.choice(["u1", "u2"]), rng.choice(commands)()))
                return [(u, c) for u, c in out][:4]
            s1, s2 = seq(), seq()
            if len(ifc.expand_commands(s1)) > 4 or len(ifc.expand_commands(s2)) > 4:
                continue
            conc = ifc.check_concurrent_ni(s1, s2, user, q, CHAIN3)
            if conc.ni:
                checked += 1
                assert ifc.check_sequential_ni(s1, user, q, CHAIN3).ni
                assert ifc.check_sequential_ni(s2, user, q, CHAIN3).ni
        assert checked > 20

    def test_view_depends_only_on_labels_and_values(self):
        rng = random.Random(5)
        for _ in range(100):
            q = random_state(rng, DIAMOND)
            clone = ifc.MachineState(frozenset(), dict(q.labels), dict(q.values))
            assert ifc.view(q, DIAMOND, "u1") == ifc.view(clone, DIAMOND, "u1")
