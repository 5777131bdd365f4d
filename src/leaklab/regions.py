"""Snapshot regions: decide difference-form snapshot atoms without
enumerating time.

A snapshot term (``t@l7``, ``t@l7[1]``) is rigid: no statement changes it.
An atom that compares a difference term ``t@a - t@b`` or ``t@a`` with a
constant is a difference constraint, as in the zones of timed-automata
checking (Dill 1989).  Cutting each difference term at the constants it is
compared with splits the non-negative snapshot tuples into regions on
which every such atom keeps its truth value, so one tuple per region
decides them all.  The tuple taken is the region's pointwise-least one,
found by relaxing lower bounds over the slots and a zero node; a region
whose bounds form a negative cycle is empty.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import assertions as asrt
from . import lang


def representatives(atoms, slot_of: Callable[[tuple], int], n_slots: int,
                    limit: int) -> Optional[list[tuple[int, ...]]]:
    """The least snapshot tuple of every non-empty region, sorted.

    ``atoms`` are snapshot atoms as :func:`classify` gives them, and
    ``slot_of`` numbers their snapshot keys 0..n_slots-1; two keys may
    share a slot.  None when some atom is not a difference constraint.
    Stops after ``limit + 1`` tuples.  For a property that is constant on
    each region, the first of these tuples that has it is the
    lexicographically least non-negative tuple that has it.
    """
    cuts: dict[tuple[int, int], set[int]] = {}
    for atom in atoms:
        if atom is None:
            return None
        coefs, values = atom
        slots: dict[int, int] = {}
        for key, c in coefs:
            slot = slot_of(key)
            slots[slot] = slots.get(slot, 0) + c
        nonzero = sorted((slot, c) for slot, c in slots.items() if c)
        # The atom reads sign * (x[pos] - x[neg]) (op) cut values.
        if not nonzero:
            continue  # the snapshots cancel out
        if len(nonzero) == 1 and abs(nonzero[0][1]) == 1:
            (pos, sign), neg = nonzero[0], n_slots
        elif len(nonzero) == 2 and nonzero[0][1] == -nonzero[1][1] and abs(nonzero[0][1]) == 1:
            (neg, _), (pos, sign) = nonzero
        else:
            return None
        cuts.setdefault((pos, neg), set()).update(sign * v for v in values)
    return _least_points(n_slots, cuts, limit)


def classify(atom: lang.Expr, tolerance: int
             ) -> Optional[tuple[tuple[tuple[tuple, int], ...], list[int]]]:
    """A snapshot atom as ``(coefs, cut values)``.

    ``coefs`` pairs each snapshot key ``(location, arrival)`` with its
    integer coefficient in the sum ``E`` that the atom compares with
    constants: its truth is constant wherever ``E`` avoids the cut
    values, and on each cut value.  None when the atom is not a
    comparison or ``approx`` of a linear form in the snapshots.
    """
    if isinstance(atom, lang.BinOp) and atom.op in lang.CMP_OPS:
        tol = None
    elif isinstance(atom, asrt.Approx):
        tol_form = (({}, tolerance) if atom.tolerance is None
                    else _linear(atom.tolerance, _key))
        if tol_form is None or tol_form[0]:
            return None
        tol = tol_form[1]
    else:
        return None
    form = _linear(lang.BinOp("-", atom.left, atom.right), _key)
    if form is None:
        return None
    coefs, const = form
    values = [-const] if tol is None else [-tol - const, tol - const]
    return tuple(coefs.items()), values


def _key(term: asrt.SnapshotTerm) -> tuple:
    return term.resolved, term.arrival


# Snapshot slots are numbered 0..n-1 in enumeration order; node n is the
# constant zero.  A difference term (pos, neg) stands for x[pos] - x[neg].


def _linear(e: lang.Expr, slot_of) -> Optional[tuple[dict[int, int], int]]:
    """``e`` as integer coefficients over ``slot_of`` of its snapshot terms
    plus a constant; None when it mentions anything but integer literals
    and snapshots or multiplies two snapshot terms."""
    if isinstance(e, lang.IntLit):
        return {}, e.value
    if isinstance(e, asrt.SnapshotTerm):
        return {slot_of(e): 1}, 0
    if isinstance(e, lang.UnaryOp) and e.op == "-":
        inner = _linear(e.operand, slot_of)
        return None if inner is None else _scaled(inner, -1)
    if isinstance(e, lang.BinOp) and e.op in ("+", "-", "*"):
        left, right = _linear(e.left, slot_of), _linear(e.right, slot_of)
        if left is None or right is None:
            return None
        if e.op == "*":
            if not left[0]:
                return _scaled(right, left[1])
            return _scaled(left, right[1]) if not right[0] else None
        if e.op == "-":
            right = _scaled(right, -1)
        coefs = dict(left[0])
        for slot, c in right[0].items():
            coefs[slot] = coefs.get(slot, 0) + c
        return coefs, left[1] + right[1]
    return None


def _scaled(form: tuple[dict[int, int], int], k: int) -> tuple[dict[int, int], int]:
    return {slot: k * c for slot, c in form[0].items()}, k * form[1]


def _intervals(cut_values: list[int]) -> list[tuple[Optional[int], Optional[int]]]:
    """The integers split at sorted distinct cut values: each cut value
    alone and the runs between them; None is an open end."""
    out: list[tuple[Optional[int], Optional[int]]] = []
    lo: Optional[int] = None
    for k in cut_values:
        if lo is None or lo <= k - 1:
            out.append((lo, k - 1))
        out.append((k, k))
        lo = k + 1
    out.append((lo, None))
    return out


def _least_solution(n: int, edges: list[tuple[int, int, int]]
                    ) -> Optional[tuple[int, ...]]:
    """The pointwise-least x[0..n-1] >= 0 with x[v] - x[u] <= w for every
    edge (u, v, w) and node n held at 0; None when there is none.

    Lower bounds are relaxed from all zeros, Bellman-Ford style: they
    settle within n + 1 rounds unless a negative cycle keeps raising them.
    """
    low = [0] * (n + 1)
    for _ in range(n + 2):
        changed = False
        for u, v, w in edges:
            if low[v] - w > low[u]:
                low[u] = low[v] - w
                changed = True
        if not changed:
            return tuple(low[:n]) if low[n] == 0 else None
    return None


def _least_points(n: int, cuts: dict[tuple[int, int], set[int]],
                  limit: int) -> list[tuple[int, ...]]:
    """One representative snapshot tuple per feasible region, sorted.

    A region picks one interval per difference term; it is feasible when
    some tuple of non-negative slots lies in all of them, and its
    representative is its pointwise-least tuple.  Stops after ``limit + 1``
    representatives.
    """
    terms = sorted(cuts)
    choices = [_intervals(sorted(cuts[term])) for term in terms]
    out: list[tuple[int, ...]] = []

    def extend(i: int, edges: list[tuple[int, int, int]]) -> None:
        least = _least_solution(n, edges)
        if least is None or len(out) > limit:
            return
        if i == len(terms):
            out.append(least)
            return
        pos, neg = terms[i]
        for lo, hi in choices[i]:
            bounds = []
            if hi is not None:
                bounds.append((neg, pos, hi))
            if lo is not None:
                bounds.append((pos, neg, -lo))
            extend(i + 1, edges + bounds)

    extend(0, [])
    return sorted(out)
