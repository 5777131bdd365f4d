"""Test-only reference: analyse an assertion by separate walks.

``proofs.AssertionTable`` numbers equal assertions alike and analyses each
number once, from the analysed forms of its subterms.  These are the walks
it replaced, each over the whole tree: the free names and snapshot slots
of :func:`assertions.subterms`, the atoms under the connectives with their
snapshot terms, and each snapshot atom cut as a difference term in slot
numbers.  They are kept only so that tests can compare the two.
"""

from __future__ import annotations

from typing import Optional

from leaklab import assertions as asrt
from leaklab import lang, proofs, regions
from leaklab.errors import LeakLabError


def vc_symbols(vc: proofs.VC, program: lang.Program) -> tuple[list, list, bool]:
    """Referenced program/ghost variables as ``(name, domain, type)``,
    snapshot slots, clock usage."""
    nodes = asrt.subterms(vc.pre) + asrt.subterms(vc.post)
    names = asrt.free_names(nodes)
    if vc.stmt is not None:
        names |= lang.free_vars(vc.stmt)
    decls = {d.name: d for d in program.ghosts + program.declarations}
    variables = []
    for n in sorted(names):
        if n not in decls:
            raise LeakLabError(f"undeclared name {n!r} in verification condition")
        variables.append((n, decls[n].domain, decls[n].type))
    if any(isinstance(x, asrt.SnapshotTerm) and x.resolved is None for x, _ in nodes):
        raise LeakLabError("unresolved snapshot term in verification condition")
    return variables, sorted(slots_of(vc.pre, vc.post).items()), uses_clock(vc.pre, vc.post)


def slots_of(*assertions: asrt.Assertion) -> dict:
    """The arrivals each snapshot location needs; None for unresolved terms."""
    slots: dict = {}
    for a in assertions:
        for term in asrt.snapshot_terms(a):
            want = 1 if term.arrival is None else term.arrival + 1
            slots[term.resolved] = max(slots.get(term.resolved, 0), want)
    return slots


def uses_clock(*assertions: asrt.Assertion) -> bool:
    return any(isinstance(x, asrt.ClockTerm) for a in assertions for x, _ in asrt.subterms(a))


def atoms(a: asrt.Assertion) -> list[asrt.Assertion]:
    """The subterms of ``a`` under its connectives (``and``, ``or``,
    ``not``, ``->`` and the quantifiers), left to right."""
    out: list[asrt.Assertion] = []

    def visit(x: asrt.Assertion, _bound: frozenset) -> Optional[asrt.Assertion]:
        if (isinstance(x, (asrt.Implies, asrt.Quantified))
                or isinstance(x, lang.BinOp) and x.op in lang.BOOL_OPS
                or isinstance(x, lang.UnaryOp) and x.op == "not"):
            return None
        out.append(x)
        return x

    asrt.rewrite(a, visit)
    return out


def snapshot_atoms(a: asrt.Assertion) -> list[asrt.Assertion]:
    return [atom for atom in atoms(a) if asrt.snapshot_terms(atom)]


def difference_cuts(atom: lang.Expr, slot_of, zero: int, tolerance: int
                    ) -> Optional[tuple[Optional[tuple[int, int]], list[int]]]:
    """A snapshot atom as ``(term, cuts)`` in slot numbers; None when the
    atom is not a comparison of a difference term with a constant, and the
    term None when the snapshots cancel out."""
    if isinstance(atom, lang.BinOp) and atom.op in lang.CMP_OPS:
        tol = None
    elif isinstance(atom, asrt.Approx):
        tol_form = (({}, tolerance) if atom.tolerance is None
                    else regions._linear(atom.tolerance, slot_of))
        if tol_form is None or tol_form[0]:
            return None
        tol = tol_form[1]
    else:
        return None
    form = regions._linear(lang.BinOp("-", atom.left, atom.right), slot_of)
    if form is None:
        return None
    coefs, const = form
    nonzero = sorted((slot, c) for slot, c in coefs.items() if c)
    if not nonzero:
        return None, []
    if len(nonzero) == 1 and abs(nonzero[0][1]) == 1:
        (pos, sign), neg = nonzero[0], zero
    elif len(nonzero) == 2 and nonzero[0][1] == -nonzero[1][1] and abs(nonzero[0][1]) == 1:
        (neg, _), (pos, sign) = nonzero
    else:
        return None
    values = [-const] if tol is None else [-tol - const, tol - const]
    return (pos, neg), [sign * v for v in values]


def representatives(assertions: tuple[asrt.Assertion, ...], slot_of, n_slots: int,
                    tolerance: int, limit: int) -> Optional[list[tuple[int, ...]]]:
    """:func:`regions.representatives` over whole assertions, with
    ``slot_of`` numbering snapshot terms."""
    cuts: dict[tuple[int, int], set[int]] = {}
    for atom in (atom for a in assertions for atom in snapshot_atoms(a)):
        found = difference_cuts(atom, slot_of, n_slots, tolerance)
        if found is None:
            return None
        term, values = found
        if term is not None:
            cuts.setdefault(term, set()).update(values)
    return regions._least_points(n_slots, cuts, limit)


def slot_numbering(slots: list[tuple[lang.LocationId, int]]):
    """``(slot_of, n_slots)`` for the sorted slots of :func:`vc_symbols`:
    ``slot_of`` numbers a snapshot term, the latest arrival by default."""
    index = {slot: i for i, slot in enumerate(
        (loc, k) for loc, count in slots for k in range(count))}
    latest = dict(slots)

    def slot_of(term: asrt.SnapshotTerm) -> int:
        arrival = latest[term.resolved] - 1 if term.arrival is None else term.arrival
        return index[(term.resolved, arrival)]

    return slot_of, len(index)


def difference_form(vc: proofs.VC, program: lang.Program, tolerance: int = 0) -> bool:
    """Is every snapshot atom of pre and post a difference constraint?"""
    slot_of, n_slots = slot_numbering(vc_symbols(vc, program)[1])
    return representatives((vc.pre, vc.post), slot_of, n_slots, tolerance, 0) is not None
