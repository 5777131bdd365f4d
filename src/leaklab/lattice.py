"""Finite security lattices: can-flow-to order and join."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from .errors import LeakLabError
from .lang import record


@record(frozen=True)
class SecurityLattice:
    elements: tuple[str, ...]
    order: frozenset[tuple[str, str]]  # reflexive-transitive can-flow-to pairs
    joins: dict[tuple[str, str], str]
    bottom: str
    top: str

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def join(self, a: str, b: str) -> str:
        return self.joins[(a, b)]

    def join_all(self, labels) -> str:
        out = self.bottom
        for label in labels:
            out = self.join(out, label)
        return out


def build_lattice(elements: list[str], leq_pairs: list[tuple[str, str]]
                  ) -> SecurityLattice:
    """Close the given pairs reflexively and transitively, then validate
    that every pair of elements has a least upper bound and that unique
    bottom and top elements exist."""
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise LeakLabError("duplicate lattice elements")
    for a, b in leq_pairs:
        if a not in elems or b not in elems:
            raise LeakLabError(f"unknown element in order pair ({a}, {b})")
    order = {(e, e) for e in elems} | set(leq_pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(order), repeat=2):
            if b == c and (a, d) not in order:
                order.add((a, d))
                changed = True
    for a, b in order:
        if a != b and (b, a) in order:
            raise LeakLabError(f"order is not antisymmetric: {a} and {b}")

    def upper_bounds(a: str, b: str) -> list[str]:
        return [u for u in elems if (a, u) in order and (b, u) in order]

    joins: dict[tuple[str, str], str] = {}
    for a, b in itertools.product(elems, repeat=2):
        ubs = upper_bounds(a, b)
        least = [u for u in ubs if all((u, v) in order for v in ubs)]
        if len(least) != 1:
            raise LeakLabError(f"no unique join for ({a}, {b})")
        joins[(a, b)] = least[0]

    bottoms = [e for e in elems if all((e, x) in order for x in elems)]
    tops = [e for e in elems if all((x, e) in order for x in elems)]
    if len(bottoms) != 1 or len(tops) != 1:
        raise LeakLabError("lattice must have unique bottom and top elements")
    return SecurityLattice(elems, frozenset(order), joins, bottoms[0], tops[0])


def two_point() -> SecurityLattice:
    return build_lattice(["low", "high"], [("low", "high")])


def load_lattice(path: str | Path) -> SecurityLattice:
    """Load a lattice from JSON: {"elements": [...], "order": [[a, b], ...],
    "joins": {"a,b": c, ...} (optional, validated against the computed ones)}.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        lattice = build_lattice(list(data["elements"]),
                                [tuple(p) for p in data.get("order", [])])
        joins = data.get("joins", {}).items()
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise LeakLabError(f"{path}: malformed lattice ({type(e).__name__}: {e})") from None
    for key, value in joins:
        a, _, b = key.partition(",")
        if lattice.joins.get((a.strip(), b.strip())) != value:
            raise LeakLabError(f"declared join {key} = {value} disagrees with "
                               "the computed least upper bound")
    return lattice
