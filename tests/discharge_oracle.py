"""Test-only reference: discharge a verification condition by enumerating
every snapshot slot and the clock over ``[0, snapshot_bound]``.

This is ``proofs.discharge_vc`` as it was before snapshot atoms were
decided by difference-constraint regions.  Its cost grows with the bound
to the power of the number of slots, and it misses counterexamples beyond
the bound.  It is kept only so that tests can compare the region-based
discharge against it.
"""

from __future__ import annotations

import itertools

from leaklab import assertions as asrt
from leaklab import lang, proofs, semantics
from leaklab.errors import BudgetExceeded, LeakLabError

import analysis_oracle


def discharge_box(vc: proofs.VC, program: lang.Program,
                  costs: semantics.CostModel = semantics.CostModel(),
                  snapshot_bound: int = 64,
                  max_states: int = 2_000_000,
                  tolerance: int = 0) -> proofs.DischargeResult:
    try:
        variables, slots, uses_clock = analysis_oracle.vc_symbols(vc, program)
    except LeakLabError as e:
        return proofs.DischargeResult("undischarged", reason=str(e))

    axes: list[tuple] = [d for _, d, _ in variables]
    slot_axes = []
    for loc, count in slots:
        for k in range(count):
            slot_axes.append((loc, k))
            axes.append(tuple(range(snapshot_bound + 1)))
    if uses_clock:
        axes.append(tuple(range(snapshot_bound + 1)))

    total = 1
    for axis in axes:
        total *= len(axis)
        if total > max_states:
            return proofs.DischargeResult(
                "undischarged",
                reason=f"state space exceeds budget ({total} > {max_states})")

    pre_fn = asrt.compile_assertion(vc.pre, tolerance)
    post_fn = asrt.compile_assertion(vc.post, tolerance)
    var_names = [name for name, _, _ in variables]
    n_vars = len(var_names)

    checked = 0
    for combo in itertools.product(*axes):
        checked += 1
        store = dict(zip(var_names, combo))
        pos = n_vars
        snaps: dict[lang.LocationId, tuple[int, ...]] = {}
        for loc, _k in slot_axes:
            snaps[loc] = snaps.get(loc, ()) + (combo[pos],)
            pos += 1
        clock = combo[pos] if uses_clock else 0

        try:
            if not pre_fn(store, snaps, clock):
                continue
        except LeakLabError:
            continue
        if vc.stmt is None:
            post_store, post_clock = store, clock
        else:
            try:
                result = proofs._execute_atomic(vc.stmt, store, clock, costs,
                                                program)
            except BudgetExceeded as e:
                return proofs.DischargeResult("undischarged", reason=str(e),
                                              checked=checked)
            if result is None:
                continue  # blocked guard or domain exit: vacuous
            post_store, post_clock = result
        try:
            ok = post_fn(post_store, snaps, post_clock)
        except LeakLabError as e:
            return proofs.DischargeResult("undischarged", reason=str(e),
                                          checked=checked)
        if not ok:
            # A result's counterexample is frozen: (store items, snapshot
            # items, clock or None).
            cx = (tuple(store.items()),
                  tuple((program.location_str(l), tuple(v)) for l, v in snaps.items()),
                  clock if uses_clock else None)
            return proofs.DischargeResult("counterexample", cx=cx, checked=checked)
    return proofs.DischargeResult("valid", checked=checked)
