"""Test-only reference: the two-walk labelling of ``dl``.

These are ``dl.dl_certify`` and ``dl.suggest_snapshot_pairs`` as they were
before the snapshot pairs were collected in the labelling walk itself: one
walk per thread for the labels and flags, then a second walk per thread,
against the declared labels, for the pairs.  Kept only so that tests can
compare the one-walk ``dl.dl_certify`` against them.
"""

from __future__ import annotations

from typing import Optional

from leaklab import lang
from leaklab.dl import (HIGH_DATA_OUTPUT, HIGH_GUARD_DELAY, HIGH_GUARD_OUTPUT, Flag,
                        LabelReport, _expr_label)
from leaklab.errors import LeakLabError
from leaklab.lattice import SecurityLattice, two_point


def dl_certify(program: lang.Program,
               lattice: Optional[SecurityLattice] = None) -> LabelReport:
    """Forward label propagation with flagging of sensitive public statements.

    The output sink is statically labelled bottom, so a print or delay whose
    pc-or-data label cannot flow to bottom is flagged.  Variable labels are
    dynamic: an assignment raises its target to pc join expression label.
    Each thread is analysed independently against the declared labels.
    """
    lattice = lattice or two_point()
    for d in program.declarations:
        if d.security_label not in lattice.elements:
            raise LeakLabError(
                f"variable {d.name} carries label {d.security_label!r} "
                "which is not a lattice element")
    report = LabelReport({}, {}, [], [])

    for t_idx, thread in enumerate(program.threads):
        labels = {d.name: d.security_label for d in program.declarations}

        def high_guard_vars(e: lang.Expr) -> list[str]:
            return [n for n in sorted(lang.free_vars(e))
                    if not lattice.leq(labels[n], lattice.bottom)]

        def walk(body: tuple[lang.Stmt, ...], pc: str, culprits: tuple[str, ...]) -> None:
            for s in body:
                report.pc_labels[s.label] = pc
                if isinstance(s, lang.Assign):
                    new_label = lattice.join(pc, _expr_label(s.value, labels, lattice))
                    labels[s.target] = lattice.join(labels[s.target], new_label)
                    report.var_labels[s.label] = labels[s.target]
                elif isinstance(s, lang.Print):
                    data = _expr_label(s.value, labels, lattice)
                    if not lattice.leq(pc, lattice.bottom):
                        report.flags.append(Flag(s.label, HIGH_GUARD_OUTPUT,
                                                 ", ".join(culprits)))
                    elif not lattice.leq(data, lattice.bottom):
                        report.flags.append(Flag(
                            s.label, HIGH_DATA_OUTPUT, lang.unparse_expr(s.value)))
                elif isinstance(s, lang.Delay):
                    data = _expr_label(s.duration, labels, lattice)
                    if not lattice.leq(lattice.join(pc, data), lattice.bottom):
                        responsible = (", ".join(culprits) if culprits
                                       else lang.unparse_expr(s.duration))
                        report.flags.append(Flag(s.label, HIGH_GUARD_DELAY, responsible))
                elif isinstance(s, lang.If):
                    inner = lattice.join(pc, _expr_label(s.guard, labels, lattice))
                    deeper = culprits + tuple(high_guard_vars(s.guard))
                    walk(s.then_body, inner, deeper)
                    walk(s.else_body, inner, deeper)
                elif isinstance(s, (lang.While, lang.Await)):
                    inner = lattice.join(pc, _expr_label(s.guard, labels, lattice))
                    deeper = culprits + tuple(high_guard_vars(s.guard))
                    walk(s.body, inner, deeper)

        walk(thread.body, lattice.bottom, ())

    report.suggested_pairs = suggest_snapshot_pairs(report, program, lattice)
    if report.suggested_pairs and not report.flags:
        report.notes.append("no direct flag; timing analysis recommended for "
                            "the suggested snapshot pairs")
    return report


def suggest_snapshot_pairs(report: LabelReport, program: lang.Program,
                           lattice: Optional[SecurityLattice] = None
                           ) -> list[tuple[lang.LocationId, lang.LocationId]]:
    """Public statements bracketing a high-guarded statement, per thread.

    A statement group counts as high-guarded when the label of its own guard
    (joined with the pc at that point) does not flow to bottom.  For every
    such group with a public statement before and after it in the same body,
    the surrounding pair of public locations is suggested for duration
    instrumentation.
    """
    lattice = lattice or two_point()
    pairs: list[tuple[lang.LocationId, lang.LocationId]] = []

    for t_idx, thread in enumerate(program.threads):
        labels = {d.name: d.security_label for d in program.declarations}

        def high_guarded(s: lang.Stmt) -> bool:
            if not isinstance(s, (lang.If, lang.While, lang.Await)):
                return False
            return not lattice.leq(_expr_label(s.guard, labels, lattice),
                                   lattice.bottom)

        def walk(body: tuple[lang.Stmt, ...]) -> None:
            last_public: Optional[lang.LocationId] = None
            pending_high = False
            for s in body:
                if isinstance(s, (lang.Print, lang.Delay)):
                    if pending_high and last_public is not None:
                        pairs.append((last_public, s.label))
                    last_public, pending_high = s.label, False
                elif high_guarded(s):
                    pending_high = True
                elif isinstance(s, lang.If):
                    walk(s.then_body)
                    walk(s.else_body)
                elif isinstance(s, (lang.While, lang.Await)):
                    walk(s.body)

        walk(thread.body)
    return pairs
