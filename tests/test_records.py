"""``lang.record`` against stdlib ``dataclasses`` on the same class bodies.

leaklab's record classes used to be dataclasses; the record maker must keep
what they relied on: fields after those of the record base, keyword-only
fields, defaults and factories, ``compare=False``, ``__post_init__``,
equality within one class only, hashing of frozen records, refused
assignment, the ``repr`` text, ``replace`` and ``fields``.
"""

from __future__ import annotations

import dataclasses
import inspect
from types import SimpleNamespace
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leaklab import explorer, lang
from leaklab.errors import LeakLabError


def hierarchy(make, field) -> SimpleNamespace:
    """One set of class bodies, made into records by ``make``."""

    @make(frozen=True)
    class Node:
        pass

    @make(frozen=True)
    class Leaf(Node):
        value: object

    @make(frozen=True)
    class Other(Node):
        value: object

    @make(frozen=True)
    class Pair(Node):
        left: object
        right: object = None

    @make(frozen=True)
    class Stmt:
        label: Optional[int] = field(default=None, kw_only=True)
        note: Optional[str] = field(default=None, kw_only=True)

    @make(frozen=True)
    class Assign(Stmt):
        target: object
        value: object

    @make(frozen=True)
    class Result:
        value: object
        stats: dict = field(default_factory=dict, compare=False)

    @make
    class Report:
        verdict: object
        notes: list = field(default_factory=list)
        count: int = 0

    @make(frozen=True)
    class Checked:
        value: int

        def __post_init__(self) -> None:
            if self.value < 0:
                raise ValueError("negative")

    class Plain(Leaf):
        """A subclass that is not made a record itself."""

    return SimpleNamespace(**{c.__name__: c for c in (
        Node, Leaf, Other, Pair, Stmt, Assign, Result, Report, Checked, Plain)})


REF = hierarchy(dataclasses.dataclass, dataclasses.field)
OURS = hierarchy(lang.record, lang.field)
VALUES = st.one_of(st.integers(-2, 2), st.booleans(), st.none(), st.sampled_from(("a", "b")))


def make_both(kind: str, a, b) -> tuple:
    """The same construction under both makers."""
    def build(ns):
        if kind == "Node":
            return ns.Node()
        if kind in ("Leaf", "Other", "Plain", "Result"):
            return getattr(ns, kind)(a)
        if kind == "Assign":
            return ns.Assign(a, b, label=1)
        return getattr(ns, kind)(a, b)
    return build(REF), build(OURS)


@given(st.lists(st.tuples(st.sampled_from(("Node", "Leaf", "Other", "Pair", "Assign",
                                           "Result", "Plain")), VALUES, VALUES),
                min_size=1, max_size=6))
def test_equality_hash_and_repr_agree(specs):
    built = [make_both(*spec) for spec in specs]
    for ref, ours in built:
        assert repr(ours) == repr(ref)
        assert hash(ours) == hash(ref)
    for ref_a, ours_a in built:
        for ref_b, ours_b in built:
            assert (ours_a == ours_b) == (ref_a == ref_b), (ref_a, ref_b)
            assert (ours_a != ours_b) == (ref_a != ref_b)
            if ours_a == ours_b:
                assert hash(ours_a) == hash(ours_b)


@pytest.mark.parametrize("ns", (REF, OURS), ids=("dataclasses", "record"))
class TestBothMakers:
    def test_equal_fields_under_other_classes_differ(self, ns):
        assert ns.Leaf(1) != ns.Other(1)
        assert ns.Leaf(1) != ns.Node() and ns.Node() == ns.Node()
        assert ns.Leaf(1) == ns.Leaf(True) and ns.Leaf(1) != ns.Plain(1)
        assert lang.IntLit(1) != lang.BoolLit(True)

    def test_frozen_refuses_assignment_and_deletion(self, ns):
        leaf = ns.Leaf(1)
        with pytest.raises(AttributeError):
            leaf.value = 2
        with pytest.raises(AttributeError):
            del leaf.value
        assert leaf.value == 1

    def test_mutable_records_assign_and_do_not_hash(self, ns):
        report = ns.Report("proven")
        report.verdict = "refuted"
        assert report == ns.Report("refuted")
        assert ns.Report.__hash__ is None
        with pytest.raises(TypeError):
            hash(report)

    def test_keyword_only_fields_follow_the_others(self, ns):
        assign = ns.Assign("x", 1)
        assert (assign.label, assign.note) == (None, None)
        assert ns.Assign("x", 1, label=3).label == 3
        with pytest.raises(TypeError):
            ns.Assign("x", 1, 3)
        P = inspect.Parameter
        assert [(p.name, p.kind) for p in inspect.signature(ns.Assign).parameters.values()] == [
            ("target", P.POSITIONAL_OR_KEYWORD), ("value", P.POSITIONAL_OR_KEYWORD),
            ("label", P.KEYWORD_ONLY), ("note", P.KEYWORD_ONLY)]

    def test_each_instance_gets_a_fresh_factory_value(self, ns):
        a, b = ns.Report("x"), ns.Report("x")
        a.notes.append("n")
        assert b.notes == [] and a.notes is not b.notes
        assert ns.Report("x", ["given"]).notes == ["given"]

    def test_uncompared_fields_leave_equality_and_hash(self, ns):
        a, b = ns.Result(1, {"steps": 3}), ns.Result(1)
        assert a == b and hash(a) == hash(b)
        assert a != ns.Result(2, {"steps": 3})

    def test_post_init_runs_after_the_fields_are_set(self, ns):
        assert ns.Checked(0).value == 0
        with pytest.raises(ValueError, match="negative"):
            ns.Checked(-1)

    def test_class_attributes_hold_the_plain_defaults(self, ns):
        assert ns.Pair.right is None and ns.Stmt.label is None
        assert not hasattr(ns.Report, "notes")


def test_replace_and_fields_agree():
    for ref, ours, changes in ((REF.Assign("x", 1, label=2), OURS.Assign("x", 1, label=2),
                                {"value": 5}),
                               (REF.Pair(1), OURS.Pair(1), {"right": 2, "left": 0}),
                               (REF.Report("a"), OURS.Report("a"), {})):
        assert [f.name for f in lang.fields(ours)] == [f.name for f in dataclasses.fields(ref)]
        assert repr(lang.replace(ours, **changes)) == repr(dataclasses.replace(ref, **changes))
    with pytest.raises(TypeError):
        lang.replace(OURS.Pair(1), middle=2)


def test_leaklab_records_keep_their_checks_and_text():
    with pytest.raises(LeakLabError, match="bounds must be positive"):
        explorer.ExploreBounds(max_steps=0)
    stmt = lang.Print(lang.StrLit("a"), label=lang.LocationId(0, 1))
    assert repr(stmt) == ("Print(label=LocationId(thread=0, index=1), pre_text=None, "
                          "leaky_text=None, value=StrLit(value='a'))")
    assert lang.replace(stmt, label=None) == lang.Print(lang.StrLit("a"))
