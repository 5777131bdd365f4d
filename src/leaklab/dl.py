"""Dynamic-labelling pre-pass and leak-postulate synthesis.

A forward pass propagates security labels through each thread: the program
counter picks up the join of the guards of enclosing branches, loops and
regions, assignments relabel their targets with pc join expression label,
and public statements (print, delay) are flagged when the joined label of
the program counter and the data cannot flow to the public sink.

The same walk collects the snapshot pairs, the candidate timing channels.
Within one statement list, a print or delay, then a statement whose own
guard is high by the declared labels, then the next print or delay make a
pair; no pairs are sought inside such a statement.  For each pair the
achievable durations per secret value are measured (thread in isolation,
then composed with the other threads) and, when a threshold separates the
isolated duration sets, a rule-form postulate
``(d < θ -> h = a) and (d >= θ -> h = b)`` is emitted, ready to splice
into the source as a ``@leaky`` annotation.
Overlapping isolated duration sets yield an indeterminate record instead.
"""

from __future__ import annotations

from typing import Optional

from . import assertions as asrt
from . import explorer, lang, semantics
from .errors import LeakLabError
from .lang import field, record
from .lattice import SecurityLattice, two_point

HIGH_GUARD_OUTPUT = "HighGuardOutput"
HIGH_DATA_OUTPUT = "HighDataOutput"
HIGH_GUARD_DELAY = "HighGuardDelay"


@record(frozen=True)
class Flag:
    location: lang.LocationId
    reason: str
    responsible: str  # guard variables or the data expression at fault


@record
class LabelReport:
    pc_labels: dict[lang.LocationId, str]
    var_labels: dict[lang.LocationId, str]  # assignment targets' new labels
    flags: list[Flag]
    suggested_pairs: list[tuple[lang.LocationId, lang.LocationId]]
    notes: list[str] = field(default_factory=list)

    def to_json(self, program: lang.Program) -> dict:
        return {
            "pc": {program.location_str(l): lab
                   for l, lab in sorted(self.pc_labels.items())},
            "assigned": {program.location_str(l): lab
                         for l, lab in sorted(self.var_labels.items())},
            "flags": [{"location": program.location_str(f.location),
                       "reason": f.reason, "responsible": f.responsible}
                      for f in self.flags],
            "snapshot_pairs": [[program.location_str(a), program.location_str(b)]
                               for a, b in self.suggested_pairs],
            "notes": list(self.notes),
        }


def _expr_label(e: lang.Expr, labels: dict[str, str],
                lattice: SecurityLattice) -> str:
    names = sorted(lang.free_vars(e)) if not isinstance(e, lang.StrLit) else []
    return lattice.join_all(labels[n] for n in names)


def dl_certify(program: lang.Program,
               lattice: Optional[SecurityLattice] = None) -> LabelReport:
    """Forward label propagation with flagging of sensitive public statements.

    The output sink is statically labelled bottom, so a print or delay whose
    pc-or-data label cannot flow to bottom is flagged.  Variable labels are
    dynamic: an assignment raises its target to pc join expression label.
    Each thread is analysed independently against the declared labels.
    The same walk collects the snapshot pairs, by the module's pair rule.
    """
    lattice = lattice or two_point()
    for d in program.declarations:
        if d.security_label not in lattice.elements:
            raise LeakLabError(
                f"variable {d.name} carries label {d.security_label!r} "
                "which is not a lattice element")
    report = LabelReport({}, {}, [], [])
    declared = {d.name: d.security_label for d in program.declarations}

    for thread in program.threads:
        labels = dict(declared)

        def high_guard_vars(e: lang.Expr) -> list[str]:
            return [n for n in sorted(lang.free_vars(e))
                    if not lattice.leq(labels[n], lattice.bottom)]

        def walk(body: tuple[lang.Stmt, ...], pc: str, culprits: tuple[str, ...],
                 seek_pairs: bool) -> None:
            last_public: Optional[lang.LocationId] = None
            pending_high = False
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
                elif isinstance(s, (lang.If, lang.While, lang.Await)):
                    inner = lattice.join(pc, _expr_label(s.guard, labels, lattice))
                    deeper = culprits + tuple(high_guard_vars(s.guard))
                    guarded = not lattice.leq(_expr_label(s.guard, declared, lattice),
                                              lattice.bottom)
                    pending_high = pending_high or guarded
                    bodies = ((s.then_body, s.else_body) if isinstance(s, lang.If)
                              else (s.body,))
                    for nested in bodies:
                        walk(nested, inner, deeper, seek_pairs and not guarded)
                if isinstance(s, (lang.Print, lang.Delay)):
                    if seek_pairs and pending_high and last_public is not None:
                        report.suggested_pairs.append((last_public, s.label))
                    last_public, pending_high = s.label, False

        walk(thread.body, lattice.bottom, (), True)

    if report.suggested_pairs and not report.flags:
        report.notes.append("no direct flag; timing analysis recommended for "
                            "the suggested snapshot pairs")
    return report


@record
class SynthesizedAssertion:
    location: lang.LocationId  # the closing public statement, carrying the mark
    assertion: asrt.Assertion
    threshold: int
    isolated: dict
    composed: dict
    composed_separable: bool


@record
class IndeterminateRecord:
    pair: tuple[lang.LocationId, lang.LocationId]
    reason: str
    isolated: dict


@record
class SynthesisReport:
    assertions: list[SynthesizedAssertion]
    indeterminate: list[IndeterminateRecord]
    skipped: list[str]


def _separating_threshold(durations: dict) -> Optional[tuple[int, list, list]]:
    """A threshold splitting per-secret duration sets into a low and a high
    group; the threshold is the floor midpoint of the gap."""
    items = [(val, ds) for val, ds in durations.items() if ds]
    order = sorted(items, key=lambda kv: (min(kv[1]), max(kv[1])))
    for split in range(1, len(order)):
        lows, highs = order[:split], order[split:]
        lo_max = max(max(ds) for _, ds in lows)
        hi_min = min(min(ds) for _, ds in highs)
        if lo_max < hi_min:
            theta = (lo_max + hi_min) // 2  # floor midpoint of the gap
            if theta <= lo_max:  # degenerate one-unit gap: stay above the lows
                theta = lo_max + 1
            return theta, [v for v, _ in lows], [v for v, _ in highs]
    return None


def synthesize_leaky_assertions(program: lang.Program,
                                pairs: list[tuple[lang.LocationId, lang.LocationId]],
                                secret_domain: Optional[tuple] = None,
                                bounds: explorer.ExploreBounds = explorer.ExploreBounds(),
                                costs: semantics.CostModel = semantics.CostModel(),
                                ) -> SynthesisReport:
    """Duration-rule postulates for each snapshot pair.

    Separability is decided on the flagged thread in isolation (the same
    setting in which the region cost is meaningful); the composed analysis
    is attached as metadata so a caller can see whether scheduling noise
    drowns the channel.  Isolated sets that overlap, or that a state cap cut
    short, yield an indeterminate record and no assertion.
    """
    if secret_domain is None:
        secret_domain = explorer.secret_domain_of(program)
    report = SynthesisReport([], [], [])
    if not secret_domain:
        report.skipped.append("no secret variables declared")
        return report

    for loc_from, loc_to in pairs:
        iso = explorer.isolated_durations(program, loc_from, loc_to, secret_domain,
                                          bounds, costs)
        isolated = {str(dict(v)): sorted(ds) for v, ds in iso.durations.items()}
        if not iso.complete:
            report.indeterminate.append(IndeterminateRecord(
                (loc_from, loc_to), f"isolated run exceeds {bounds.max_configs} states "
                "(--bound-configs); duration sets incomplete", isolated))
            continue
        if iso.unreached:
            report.skipped.append(
                f"pair ({program.location_str(loc_from)}, "
                f"{program.location_str(loc_to)}): locations unreached for "
                f"{len(iso.unreached)} secret value(s)")
            continue
        split = _separating_threshold(iso.durations)
        if split is None:
            report.indeterminate.append(IndeterminateRecord(
                (loc_from, loc_to),
                "duration sets overlap; no threshold separates the secrets", isolated))
            continue
        composed = explorer.duration_stats(program, loc_from, loc_to,
                                           secret_domain, bounds, costs)
        theta, low_group, high_group = split
        diff = asrt.duration_term(loc_from, loc_to)
        rule_low = asrt.Implies(lang.BinOp("<", diff, lang.IntLit(theta)),
                                asrt.valuations_assertion(low_group))
        rule_high = asrt.Implies(lang.BinOp(">=", diff, lang.IntLit(theta)),
                                 asrt.valuations_assertion(high_group))
        assertion = lang.BinOp("and", rule_low, rule_high)
        report.assertions.append(SynthesizedAssertion(
            location=loc_to,
            assertion=assertion,
            threshold=theta,
            isolated=isolated,
            composed={str(dict(v)): sorted(ds) for v, ds in composed.durations.items()},
            composed_separable=_separating_threshold(composed.durations) is not None,
        ))
    return report
