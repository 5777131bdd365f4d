"""Proof outlines for parallel programs: VC generation and discharge.

Three families of Hoare triples are generated from an annotated program.
Sequential triples form the per-thread chain from the declared initial
store: each atomic statement must carry its outline from its own
pre-assertion to the next one (loop locations carry the loop invariant;
branch entries default to parent-pre plus guard).  One interference rule
protects each thread's post, the pre-assertion of each of its statements
outside region bodies and each leak postulate on it: an atomic action S
of another thread, with its pre-assertion P, interferes with such an
assertion A when it can change what A reads.  Assignments and regions
can change the store; every action, branch and loop heads included,
moves the clock ``t``.  Each such pair gives {A and P} S {A}, and
{pre(T) and A and P} S {A} for a postulate A on a statement T, since
pre(T) holds, protected in turn, wherever A must.  Leaky
triples are the postulates' interference triples, plus {pre(T) and facts and
antecedent} T {consequent} for each rule of a postulate A on an output
statement T (each case of a rule form, or ``true -> A``).  The facts are
``true`` when A names no snapshot, and otherwise the marked thread's own
isolated path timings between two locations of it.

Every triple is discharged by exhaustive enumeration of the referenced
finite domains.  Snapshot terms are rigid: no statement changes them.
When each snapshot atom compares a difference term (``t@a - t@b`` or
``t@a``) with a constant, these are difference constraints, and the
snapshots take one representative per feasible region of their terms,
with no upper bound, so the verdict does not depend on the snapshot
bound.  Otherwise the snapshots, like the clock always, range over
[0, snapshot_bound].  A transition that leaves a declared domain, or a
region whose guard fails, is vacuous for partial correctness.

A program keeps its discharge results on its control table
(``semantics.ControlTable.proofs``), per cost model and tolerance, with
the numbering of assertions and statements that keys them: each result
under its triple and, only when the discharge read it, the snapshot
bound.  So a repeated check, or a check at a second bound, discharges
only the triples it has not met and those that read the bound.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from . import assertions as asrt
from . import explorer, lang, semantics
from .errors import AnnotationError, BudgetExceeded, DomainError, LeakLabError
from .lang import field, record

SEQUENTIAL = "sequential"
INTERFERENCE = "interference"
LEAKY = "leaky"
STATE_BUDGET = 2_000_000  # states one discharge may enumerate


@record(frozen=True)
class VC:
    """One verification condition {pre} stmt {post}.

    ``stmt`` is an atomic unit (assignment, skip, print, delay, branch or
    loop head, or a non-nested region); None marks a pure consequence
    obligation pre=>post with no state change.
    """

    pre: asrt.Assertion
    stmt: Optional[lang.Stmt]
    post: asrt.Assertion
    kind: str
    provenance: str


class FactlessVC(VC):
    """A rule condition without its underivable path facts: valid
    carries over to the condition with them, a counterexample does not."""


@record(frozen=True)
class DischargeResult:
    """One discharge, kept by the program and shared by its later checks,
    so nothing in it can change: ``cx`` is the counterexample as (store
    items, snapshot items, clock or None), which :attr:`counterexample`
    hands out as a new dict.  ``bounded`` says whether the discharge read
    the snapshot bound: the clock or a snapshot slot ranged over
    [0, snapshot_bound]."""

    status: str  # "valid" | "counterexample" | "undischarged"
    cx: Optional[tuple] = None
    reason: Optional[str] = None
    checked: int = 0
    bounded: bool = False

    @property
    def counterexample(self) -> Optional[dict]:
        """``store``, ``snapshots`` by location and, when the VC reads the
        clock, ``clock``; None unless the status is ``counterexample``."""
        if self.cx is None:
            return None
        store, snapshots, clock = self.cx
        out = {"store": dict(store),
               "snapshots": {loc: list(times) for loc, times in snapshots}}
        if clock is not None:
            out["clock"] = clock
        return out


@record
class ProofResult:
    entries: list[tuple[VC, DischargeResult]]
    overall: str  # "proven" | "refuted" | "incomplete"
    message: str
    certified: tuple[lang.LocationId, ...]
    warnings: list[str] = field(default_factory=list)
    assertions: int = 0  # distinct assertion terms numbered, subterms included

    def by_status(self, status: str) -> list[tuple[VC, DischargeResult]]:
        return [(vc, r) for vc, r in self.entries if r.status == status]

    def discharged(self) -> list[DischargeResult]:
        """One result per distinct triple, in first-use order: entries
        whose VCs are the same triple share one result object."""
        return list({id(r): r for _, r in self.entries}.values())


def _conj(*parts: asrt.Assertion) -> asrt.Assertion:
    out: Optional[asrt.Assertion] = None
    for p in parts:
        if isinstance(p, lang.BoolLit) and p.value:
            continue
        out = p if out is None else lang.BinOp("and", out, p)
    return out if out is not None else asrt.TRUE


def _negate(a: asrt.Assertion) -> asrt.Assertion:
    return lang.UnaryOp("not", a)


def _guard_assertion(guard: lang.Expr, program: lang.Program) -> asrt.Assertion:
    decls = {d.name: d for d in program.declarations}
    if lang.expr_type(guard, decls) == lang.INT:
        return lang.BinOp("!=", guard, lang.IntLit(0))
    return guard


def _reads(a: asrt.Assertion) -> tuple[frozenset[str], bool]:
    """The variables ``a`` reads, and whether it reads the clock ``t``."""
    nodes = asrt.subterms(a)
    return asrt.free_names(nodes), any(isinstance(x, asrt.ClockTerm) for x, _ in nodes)


# ---------------------------------------------------------------------------
# Outline walking
# ---------------------------------------------------------------------------

WRITERS = (lang.Assign, lang.Await)

# A thread's outline, as its chain walked it: each atomic action, the
# statements outside region bodies, by location in program order, with its
# effective pre-assertion.
OutlineMap = dict[lang.LocationId, tuple[lang.Stmt, asrt.Assertion]]


def gen_sequential_vcs(annotated: asrt.AnnotatedProgram, thread: int,
                       ) -> tuple[list[VC], OutlineMap]:
    """Chain VCs for one thread's proof outline, and the outline the chain
    walked, as ``{location: (statement, pre-assertion)}``.

    Every statement needs a pre-assertion, except the first statement of a
    branch or loop body, which defaults to the parent assertion conjoined
    with the (possibly negated) guard.  Loop annotations are invariants.
    """
    program = annotated.program
    name = program.threads[thread].name
    if thread not in annotated.posts:
        raise AnnotationError(f"thread {name} lacks a post assertion")
    outline: OutlineMap = {}
    vcs: list[VC] = []

    def ann(s: lang.Stmt) -> Optional[asrt.Assertion]:
        return annotated.pre.get(s.label)

    def where(s: lang.Stmt) -> str:
        return program.location_str(s.label)

    def chain(body: tuple[lang.Stmt, ...], entry: Optional[asrt.Assertion],
              exit_assertion: asrt.Assertion, exit_note: str) -> None:
        """Emit VCs for a statement list given the computed entry assertion
        (None when an explicit annotation is mandatory) and the assertion
        that must hold after the list."""
        for i, s in enumerate(body):
            explicit = ann(s)
            if explicit is None and entry is None:
                raise AnnotationError(f"missing pre-assertion at {where(s)}")
            if explicit is not None and entry is not None:
                vcs.append(VC(entry, None, explicit, SEQUENTIAL,
                              f"{name}: consequence at {where(s)}"))
            pre = explicit if explicit is not None else entry
            entry = None  # only the first statement inherits a computed entry
            nxt = body[i + 1] if i + 1 < len(body) else None
            if nxt is not None:
                post = ann(nxt)
                if post is None:
                    raise AnnotationError(f"missing pre-assertion at {where(nxt)}")
                post_note = f"pre of {where(nxt)}"
            else:
                post, post_note = exit_assertion, exit_note
            outline[s.label] = s, pre
            if isinstance(s, lang.If):
                g = _guard_assertion(s.guard, program)
                chain(s.then_body, _conj(pre, g), post, post_note)
                if not s.then_body:
                    vcs.append(VC(_conj(pre, g), None, post, SEQUENTIAL,
                                  f"{name}: empty then-branch of {where(s)}"))
                chain(s.else_body, _conj(pre, _negate(g)), post, post_note)
                if not s.else_body:
                    vcs.append(VC(_conj(pre, _negate(g)), None, post, SEQUENTIAL,
                                  f"{name}: else of {where(s)}"))
            elif isinstance(s, lang.While):
                g = _guard_assertion(s.guard, program)
                inv = pre  # the loop location's annotation is its invariant
                chain(s.body, _conj(inv, g), inv, f"invariant of {where(s)}")
                if not s.body:
                    vcs.append(VC(_conj(inv, g), None, inv, SEQUENTIAL,
                                  f"{name}: empty loop body of {where(s)}"))
                vcs.append(VC(_conj(inv, _negate(g)), None, post, SEQUENTIAL,
                              f"{name}: loop exit of {where(s)}"))
            else:
                vcs.append(VC(pre, s, post, SEQUENTIAL,
                              f"{name}: {where(s)} establishes {post_note}"))

    body = program.threads[thread].body
    post = annotated.posts[thread]
    if not body:
        return vcs, outline
    chain(body, None, post, f"{name} post")
    return vcs, outline


def thread_outlines(annotated: asrt.AnnotatedProgram) -> dict[int, OutlineMap]:
    """Every thread's outline, by thread index."""
    return {t: gen_sequential_vcs(annotated, t)[1]
            for t in range(len(annotated.program.threads))}


def _protect(program: lang.Program, outlines: dict[int, OutlineMap],
             protected: dict[int, list[tuple]], kind: str,
             given: asrt.Assertion = asrt.TRUE) -> list[VC]:
    """The interference rule of the module docstring: each ``(assertion,
    name)`` protected for thread i against each action of another thread,
    read from its outline, that can change what it reads, by action, then
    in the order given.  ``given`` holds wherever the protected assertions
    do."""
    clocked = {id(a): _reads(a)[1] for items in protected.values() for a, _ in items}
    return [VC(_conj(given, a, pre), s, a, kind,
               f"{program.location_str(loc)} preserves {what}")
            for j in sorted(outlines) for loc, (s, pre) in outlines[j].items()
            for i, items in protected.items() if i != j
            for a, what in items if isinstance(s, WRITERS) or clocked[id(a)]]


def gen_interference_vcs(annotated: asrt.AnnotatedProgram,
                         outlines: Optional[dict[int, OutlineMap]] = None) -> list[VC]:
    """Freedom-from-interference conditions between every thread pair:
    each action of thread j against every other thread i's post, then the
    pre-assertion of each statement of i outside region bodies in program
    order.  ``outlines`` are the threads' outlines, built here when not
    given.
    """
    program = annotated.program
    if outlines is None:
        outlines = thread_outlines(annotated)
    return _protect(program, outlines, {
        i: [(annotated.posts[i], f"post of {thread.name}")]
        + [(a, f"pre of {program.location_str(loc)}") for loc, (_, a) in outlines[i].items()]
        for i, thread in enumerate(program.threads)}, INTERFERENCE)


# ---------------------------------------------------------------------------
# Leak postulates
# ---------------------------------------------------------------------------

def isolated_path_duration(program: lang.Program, loc_from: lang.LocationId,
                           loc_to: lang.LocationId, secret_domain: tuple,
                           costs: semantics.CostModel = semantics.CostModel()
                           ) -> Optional[dict[explorer.SecretValuation, frozenset[int]]]:
    """:func:`explorer.isolated_durations` over ``secret_domain``, as ``dl``
    synthesis reads them, one search per class of valuations; None when a
    run never pairs the two locations, leaves a domain, overruns a region
    budget, or passes ``ExploreBounds().max_configs`` distinct states."""
    try:
        stats = explorer.isolated_durations(program, loc_from, loc_to, secret_domain,
                                            explorer.ExploreBounds(), costs)
    except (DomainError, BudgetExceeded):
        return None
    if stats.unreached or not stats.complete:
        return None
    return stats.durations


def path_fact_assertion(program: lang.Program, loc_from: lang.LocationId,
                        loc_to: lang.LocationId, secret_domain: tuple,
                        costs: semantics.CostModel) -> Optional[asrt.Assertion]:
    """Per-secret isolated durations, as one conjunction of rules.

    ``(h = v) -> (t@to - t@from = D)`` for every valuation v, with one
    equation per duration D the isolated thread achieves, joined by ``or``;
    None when the durations of any valuation are underivable.
    """
    # without secrets the conjunction is empty, and nothing need be measured
    durations = (isolated_path_duration(program, loc_from, loc_to, secret_domain, costs)
                 if secret_domain else {})
    if durations is None:
        return None
    diff = asrt.duration_term(loc_from, loc_to)
    parts: list[asrt.Assertion] = []
    for valuation in secret_domain:
        equations = [lang.BinOp("=", diff, lang.IntLit(d))
                     for d in sorted(durations[valuation])]
        parts.append(asrt.Implies(asrt.valuations_assertion([valuation]), functools.reduce(
            functools.partial(lang.BinOp, "or"), equations)))
    return _conj(*parts)


def gen_leaky_vcs(annotated: asrt.AnnotatedProgram,
                  costs: semantics.CostModel = semantics.CostModel(),
                  outlines: Optional[dict[int, OutlineMap]] = None,
                  ) -> tuple[list[VC], list[str]]:
    """Interference and rule conditions for every leak postulate, as stated
    in the module docstring; ``outlines`` as for :func:`gen_interference_vcs`.
    A rule whose postulate names snapshots but not exactly two locations
    of its own thread, or whose path facts are underivable, is a
    :class:`FactlessVC`."""
    program = annotated.program
    notices: list[str] = []
    if not annotated.leaky:
        return [], ["no leak postulates present"]
    vcs: list[VC] = []
    if outlines is None:
        outlines = thread_outlines(annotated)

    for loc, postulate in sorted(annotated.leaky.items()):
        t_thread = loc.thread
        t_where = program.location_str(loc)
        # a postulate in a region body has no outline entry of its own
        output_stmt, pre = (outlines[t_thread].get(loc)
                            or (program.statement_at(loc), asrt.TRUE))
        vcs += _protect(program, outlines,
                        {t_thread: [(postulate, f"postulate at {t_where}")]}, LEAKY, pre)

        rules = (asrt.decompose_rules(postulate, frozenset(program.secret_names()))
                 or [asrt.Implies(asrt.TRUE, postulate)])
        locs = {term.resolved for term in asrt.snapshot_terms(postulate)}
        pair = sorted(l for l in locs if l.thread == t_thread)
        facts = asrt.TRUE
        if locs:
            facts = None if len(pair) != 2 else path_fact_assertion(
                program, *pair, explorer.secret_domain_of(program), costs)
        if facts is None:
            notices.append(f"postulate at {t_where}: isolated path timings "
                           "underivable; its rules must hold without them")
        for k, rule in enumerate(rules):
            where = f"rule {k} of postulate at {t_where}"
            if facts is None:
                vcs.append(FactlessVC(_conj(pre, rule.antecedent), output_stmt,
                                      rule.consequent, LEAKY,
                                      f"{where} without isolated path timings"))
            else:
                vcs.append(VC(_conj(pre, facts, rule.antecedent), output_stmt,
                              rule.consequent, LEAKY,
                              where + (" against isolated path timings" if locs else "")))
    return vcs, notices


# ---------------------------------------------------------------------------
# Discharge by enumeration
# ---------------------------------------------------------------------------

def _execute_atomic(stmt: lang.Stmt, store: dict, clock: int,
                    costs: semantics.CostModel,
                    program: lang.Program) -> Optional[tuple[dict, int]]:
    """Big-step of one atomic unit over a copy of ``store``.

    None when the transition is vacuous: a region whose guard fails, a
    value outside its declared domain, or a negative or non-integer delay.
    A region body past the budget raises :class:`BudgetExceeded`.
    """
    store = dict(store)
    try:
        clock = semantics.run_atomic(stmt, store, clock, costs, program, None)
    except DomainError:
        return None
    return None if clock is None else (store, clock)


class AssertionTable:
    """Hash-consed assertions of one proof check or one ``emit-smt`` run.

    :meth:`number` numbers assertion nodes bottom-up: a node's key is its
    type with its fields, each subterm replaced by its number, so two
    nodes get one number exactly when they are equal.  Statements are
    numbered by value the same way.  The numbering is ``numbers``, which
    :func:`check_proof` keeps with the program so that a triple's key
    means the same in every check of it; all else is the table's own.
    Lookups are memoised by identity, and the table keeps every node and
    statement it has seen alive so that no identity is reused.  Each
    number the table meets is analysed once (:func:`assertions.analyse`);
    its evaluator and the classification of a snapshot atom are built on
    first use.  A table must not outlive the call that made it: it holds
    every assertion of that call.
    """

    def __init__(self, program: lang.Program, tolerance: int = 0,
                 numbers: Optional[dict] = None) -> None:
        self.program = program
        self.tolerance = tolerance
        self.decls = {d.name: d for d in program.ghosts + program.declarations}
        self.nodes: dict[int, asrt.Assertion] = {}  # number -> first node seen
        self.forms: dict[int, tuple] = {}  # number -> analysed form
        self._numbers = {} if numbers is None else numbers  # key or statement -> number
        self._by_id: dict[int, int] = {}
        self._seen: list = []  # every node and statement memoised by identity
        self._evaluators: dict[int, object] = {}
        self._classified: dict[int, Optional[tuple]] = {}
        self._stmts: dict[int, tuple[int, frozenset[str]]] = {}  # number, free names

    def number(self, a: asrt.Assertion) -> int:
        n = self._by_id.get(id(a))
        if n is not None:
            return n
        values: list = [type(a)]
        parts: list[tuple] = []
        for name in asrt.field_names(type(a)):
            value = getattr(a, name)
            if isinstance(value, lang.Expr):
                value = self.number(value)
                parts.append(self.forms[value])
            values.append(value)
        n = self._numbers.setdefault(tuple(values), len(self._numbers))
        if n not in self.forms:
            self.nodes[n] = a
            self.forms[n] = asrt.analyse(a, n, parts)
        self._by_id[id(a)] = n
        self._seen.append(a)
        return n

    def _statement(self, stmt: lang.Stmt) -> tuple[int, frozenset[str]]:
        found = self._stmts.get(id(stmt))
        if found is None:
            n = self._numbers.setdefault(stmt, len(self._numbers))
            # A branch or loop head only moves the clock: it reads nothing.
            names = (frozenset() if isinstance(stmt, (lang.If, lang.While))
                     else lang.free_vars(stmt))
            found = self._stmts[id(stmt)] = n, names
            self._seen.append(stmt)
        return found

    def key(self, vc: VC) -> tuple:
        """VCs with equal keys are the same triple and discharge alike."""
        stmt = None if vc.stmt is None else self._statement(vc.stmt)[0]
        return type(vc), self.number(vc.pre), stmt, self.number(vc.post)

    def evaluator(self, a: asrt.Assertion):
        """:func:`assertions.compile_assertion` of ``a``, once per number."""
        n = self.number(a)
        fn = self._evaluators.get(n)
        if fn is None:
            fn = self._evaluators[n] = asrt.compile_assertion(self.nodes[n], self.tolerance)
        return fn

    def snapshot_atoms(self, vc: VC) -> list[Optional[tuple]]:
        """The snapshot atoms of pre and post, each classified once by
        :func:`regions.classify`."""
        from . import regions
        out = []
        for n in self.forms[self.number(vc.pre)][3] | self.forms[self.number(vc.post)][3]:
            if n not in self._classified:
                self._classified[n] = regions.classify(self.nodes[n], self.tolerance)
            out.append(self._classified[n])
        return out

    def symbols(self, vc: VC) -> tuple[list, list, bool]:
        """Referenced program/ghost variables as ``(name, domain, type)``,
        snapshot slots, clock usage."""
        names, slots, uses_clock, _ = asrt.join_forms(
            (self.forms[self.number(vc.pre)], self.forms[self.number(vc.post)]))
        if vc.stmt is not None:
            names |= self._statement(vc.stmt)[1]
        variables = []
        for n in sorted(names):
            if n not in self.decls:
                raise LeakLabError(f"undeclared name {n!r} in verification condition")
            variables.append((n, self.decls[n].domain, self.decls[n].type))
        if None in slots:
            raise LeakLabError("unresolved snapshot term in verification condition")
        return variables, sorted(slots.items()), uses_clock


def _table_for(program: lang.Program, tolerance: int,
               table: Optional[AssertionTable]) -> AssertionTable:
    if table is None:
        return AssertionTable(program, tolerance)
    if table.program is not program or table.tolerance != tolerance:
        raise ValueError("assertion table made for another program or tolerance")
    return table


def _snapshot_map(slot_axes: list[tuple[lang.LocationId, int]],
                  point: tuple[int, ...]) -> dict[lang.LocationId, tuple[int, ...]]:
    snaps: dict[lang.LocationId, tuple[int, ...]] = {}
    for (loc, _k), value in zip(slot_axes, point):
        snaps[loc] = snaps.get(loc, ()) + (value,)
    return snaps


def _clock_box(snapshot_bound: int) -> range:
    """[0, snapshot_bound]; a negative bound would empty it and prove anything."""
    if snapshot_bound < 0:
        raise LeakLabError(f"snapshot bound {snapshot_bound} is negative")
    return range(snapshot_bound + 1)


def discharge_vc(vc: VC, program: lang.Program,
                 costs: semantics.CostModel = semantics.CostModel(),
                 snapshot_bound: int = 64,
                 max_states: int = STATE_BUDGET,
                 tolerance: int = 0,
                 table: Optional[AssertionTable] = None) -> DischargeResult:
    """Enumerate all relevant states; valid iff no pre-state breaks the post.

    Only symbols actually referenced by the triple are enumerated;
    unreferenced variables cannot influence the verdict.  Variables range
    over their declared domains and the clock over [0, snapshot_bound].
    When every snapshot atom of pre and post compares a difference term
    (``t@a - t@b`` or ``t@a``) with a constant, the snapshot slots take one
    representative per feasible region of those terms, with no upper bound:
    the verdict is exact, and the first counterexample is the one that
    enumerating every slot over [0, snapshot_bound] finds whenever that one
    lies inside the bound.  Otherwise every slot does range over
    [0, snapshot_bound].  ``checked`` counts the enumerated states; the
    transition runs once per store and clock.  ``bounded`` is set when the
    clock or a slot ranged over [0, snapshot_bound]; otherwise the result
    is the same at every bound.

    Pre and post are read through ``table``, which analyses and compiles
    each distinct assertion once; it must have been made for ``program``
    and ``tolerance``.  Without one, the VC gets a table of its own.
    """
    from . import regions  # local import to keep module load cheap

    table = _table_for(program, tolerance, table)
    box = _clock_box(snapshot_bound)
    try:
        variables, slots, uses_clock = table.symbols(vc)
    except LeakLabError as e:
        return DischargeResult("undischarged", reason=str(e))

    slot_axes = [(loc, k) for loc, count in slots for k in range(count)]
    index = {slot: i for i, slot in enumerate(slot_axes)}
    latest = dict(slots)

    def slot_of(key: tuple) -> int:
        loc, arrival = key
        return index[(loc, latest[loc] - 1 if arrival is None else arrival)]

    clock_axis = box if uses_clock else (0,)
    others = len(clock_axis)
    for _, domain, _ in variables:
        others *= len(domain)
    points = regions.representatives(table.snapshot_atoms(vc), slot_of, len(slot_axes),
                                     max_states // max(others, 1))
    if points is not None:
        snap_maps = [_snapshot_map(slot_axes, point) for point in points]
        total = others * len(points)
    else:
        snap_maps = None
        total = others * len(box) ** len(slot_axes)
    bounded = uses_clock or points is None
    if total > max_states:
        return DischargeResult(
            "undischarged",
            reason=f"state space exceeds budget ({total} > {max_states})", bounded=bounded)

    pre_fn = table.evaluator(vc.pre)
    post_fn = table.evaluator(vc.post)
    var_names = [name for name, _, _ in variables]

    checked = 0
    for values in itertools.product(*(domain for _, domain, _ in variables)):
        store = dict(zip(var_names, values))
        after: dict[int, Optional[tuple[dict, int]]] = {}  # clock -> post state
        snapshots = snap_maps if snap_maps is not None else (
            _snapshot_map(slot_axes, point)
            for point in itertools.product(box, repeat=len(slot_axes)))
        for snaps in snapshots:
            for clock in clock_axis:
                checked += 1
                try:
                    if not pre_fn(store, snaps, clock):
                        continue
                except LeakLabError:
                    continue
                if clock not in after:
                    if vc.stmt is None:
                        after[clock] = store, clock
                    else:
                        try:
                            after[clock] = _execute_atomic(vc.stmt, store, clock,
                                                           costs, program)
                        except BudgetExceeded as e:
                            return DischargeResult("undischarged", reason=str(e),
                                                   checked=checked, bounded=bounded)
                result = after[clock]
                if result is None:
                    continue  # blocked guard or domain exit: vacuous
                post_store, post_clock = result
                try:
                    ok = post_fn(post_store, snaps, post_clock)
                except LeakLabError as e:
                    return DischargeResult("undischarged", reason=str(e),
                                           checked=checked, bounded=bounded)
                if not ok and isinstance(vc, FactlessVC):
                    return DischargeResult("undischarged", checked=checked, bounded=bounded,
                                           reason=("the rule fails without the "
                                                   "underivable isolated path timings"))
                if not ok:
                    cx = (tuple(store.items()),
                          tuple((program.location_str(l), v) for l, v in snaps.items()),
                          clock if uses_clock else None)
                    return DischargeResult("counterexample", cx=cx,
                                           checked=checked, bounded=bounded)
    return DischargeResult("valid", checked=checked, bounded=bounded)


# ---------------------------------------------------------------------------
# SMT-LIB emission
# ---------------------------------------------------------------------------

def emit_smtlib(vc: VC, program: lang.Program,
                costs: semantics.CostModel = semantics.CostModel(),
                snapshot_bound: int = 64,
                tolerance: int = 0,
                table: Optional[AssertionTable] = None) -> str:
    """SMT-LIB v2 script asserting pre, the transition, and not-post.

    ``unsat`` means the triple is valid.  Region bodies must be loop free;
    bounded quantifiers are expanded.  Snapshot constants are only
    non-negative; the clock ranges over [0, snapshot_bound].  A ``table``
    made for ``program`` shares the analysis of pre and post between the
    scripts of one run.
    """
    _clock_box(snapshot_bound)
    table = _table_for(program, tolerance, table)
    try:
        variables, slots, uses_clock = table.symbols(vc)
    except LeakLabError as e:
        raise LeakLabError(f"cannot emit: {e}") from None
    decls = {d.name: d for d in program.declarations}
    lines = [f"; {vc.kind} VC: {vc.provenance}", "(set-logic ALL)"]

    def snap_name(loc: lang.LocationId, k: int) -> str:
        return f"snap_{program.threads[loc.thread].name}_l{loc.index}_{k}"

    term_of: dict[str, str] = {}
    for name, domain, vtype in variables:
        if vtype == lang.BOOL:
            lines.append(f"(declare-const {name} Bool)")
        else:
            lines.append(f"(declare-const {name} Int)")
            lines.append(f"(assert (and (>= {name} {domain[0]}) (<= {name} {domain[-1]})))")
        term_of[name] = name
    slot_latest: dict[lang.LocationId, str] = {}
    slot_terms: dict[tuple[lang.LocationId, int], str] = {}
    for loc, count in slots:
        for k in range(count):
            sym = snap_name(loc, k)
            lines.append(f"(declare-const {sym} Int)")
            lines.append(f"(assert (>= {sym} 0))")
            slot_terms[(loc, k)] = sym
            slot_latest[loc] = sym
    clock_term = "tclock"
    if uses_clock:
        lines.append(f"(declare-const {clock_term} Int)")
        lines.append(f"(assert (and (>= {clock_term} 0) (<= {clock_term} {snapshot_bound})))")

    def smt_value(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v) if v >= 0 else f"(- {-v})"

    def expr_smt(e: lang.Expr, env: dict[str, str], clock: str) -> str:
        if isinstance(e, lang.IntLit):
            return smt_value(e.value)
        if isinstance(e, lang.BoolLit):
            return smt_value(e.value)
        if isinstance(e, lang.Var):
            if e.name not in env:
                raise LeakLabError(f"unsupported construct: unknown name {e.name!r}")
            return env[e.name]
        if isinstance(e, asrt.ClockTerm):
            return clock
        if isinstance(e, asrt.SnapshotTerm):
            if e.arrival is None:
                return slot_latest[e.resolved]
            return slot_terms[(e.resolved, e.arrival)]
        if isinstance(e, lang.UnaryOp):
            inner = expr_smt(e.operand, env, clock)
            return f"(- {inner})" if e.op == "-" else f"(not {inner})"
        if isinstance(e, asrt.Implies):
            return (f"(=> {expr_smt(e.antecedent, env, clock)} "
                    f"{expr_smt(e.consequent, env, clock)})")
        if isinstance(e, asrt.Approx):
            tol = (expr_smt(e.tolerance, env, clock) if e.tolerance is not None
                   else str(tolerance))
            return (f"(<= (abs (- {expr_smt(e.left, env, clock)} "
                    f"{expr_smt(e.right, env, clock)})) {tol})")
        if isinstance(e, asrt.Quantified):
            parts = [expr_smt(e.body, {**env, e.var: smt_value(v)}, clock)
                     for v in range(e.lo, e.hi + 1)]
            if not parts:
                return "true" if e.kind == "forall" else "false"
            op = "and" if e.kind == "forall" else "or"
            return f"({op} {' '.join(parts)})" if len(parts) > 1 else parts[0]
        if isinstance(e, lang.BinOp):
            ls = expr_smt(e.left, env, clock)
            rs = expr_smt(e.right, env, clock)
            op = {"=": "=", "!=": "distinct", "and": "and", "or": "or",
                  "<": "<", "<=": "<=", ">": ">", ">=": ">=",
                  "+": "+", "-": "-", "*": "*"}[e.op]
            return f"({op} {ls} {rs})"
        if isinstance(e, lang.StrLit):
            raise LeakLabError("unsupported construct: string literal in VC")
        raise LeakLabError(f"unsupported construct: {type(e).__name__}")

    lines.append(f"(assert {expr_smt(vc.pre, term_of, clock_term)})")

    env = dict(term_of)
    clock_now = clock_term
    fresh = itertools.count(1)

    def guard_smt(guard: lang.Expr) -> str:
        g = _guard_assertion(guard, program)
        return expr_smt(g, env, clock_now)

    def shift_clock(amount: str) -> None:
        nonlocal clock_now
        if not uses_clock:
            return
        sym = f"tclock__{next(fresh)}"
        lines.append(f"(declare-const {sym} Int)")
        lines.append(f"(assert (= {sym} (+ {clock_now} {amount})))")
        clock_now = sym

    def transition(s: lang.Stmt) -> None:
        if isinstance(s, (lang.Skip, lang.Print)):
            shift_clock(str(costs.action_cost(s.label)))
            return
        if isinstance(s, lang.Assign):
            d = decls[s.target]
            sort = "Bool" if d.type == lang.BOOL else "Int"
            sym = f"{s.target}__{next(fresh)}"
            lines.append(f"(declare-const {sym} {sort})")
            lines.append(f"(assert (= {sym} {expr_smt(s.value, env, clock_now)}))")
            if sort == "Int":
                lines.append(f"(assert (and (>= {sym} {d.domain[0]}) "
                             f"(<= {sym} {d.domain[-1]})))")
            env[s.target] = sym
            shift_clock(str(costs.action_cost(s.label)))
            return
        if isinstance(s, lang.Delay):
            if s.label in costs.overrides:
                amount = str(costs.overrides[s.label])
            else:
                amount = expr_smt(s.duration, env, clock_now)
                lines.append(f"(assert (>= {amount} 0))")
            shift_clock(amount)
            return
        if isinstance(s, lang.If) or isinstance(s, lang.While):
            raise LeakLabError(
                "unsupported construct: branch or loop inside an emitted region")
        raise LeakLabError(f"unsupported construct: {type(s).__name__}")

    if vc.stmt is not None:
        if isinstance(vc.stmt, lang.Await):
            lines.append(f"(assert {guard_smt(vc.stmt.guard)})")
            shift_clock(str(costs.action_cost(vc.stmt.label)))
            for inner in vc.stmt.body:
                transition(inner)
        elif isinstance(vc.stmt, (lang.If, lang.While)):
            shift_clock(str(costs.action_cost(vc.stmt.label)))
        else:
            transition(vc.stmt)

    lines.append(f"(assert (not {expr_smt(vc.post, env, clock_now)}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Whole-proof checking
# ---------------------------------------------------------------------------

def _initial_vc(annotated: asrt.AnnotatedProgram, thread: int) -> VC:
    """The declared initial store establishes the thread's first
    pre-assertion, or its post when the body is empty.  The pre pins each
    non-secret variable that assertion reads to its initializer, and the
    clock to 0 when it reads the clock; secrets and ghosts range freely."""
    program = annotated.program
    name, body = program.threads[thread].name, program.threads[thread].body
    first, what = ((annotated.pre[body[0].label], f"pre of {program.location_str(body[0].label)}")
                   if body else (annotated.posts[thread], f"{name} post"))
    names, reads_clock = _reads(first)
    pre = asrt.valuations_assertion([tuple(
        (d.name, d.init) for d in program.declarations if not d.secret and d.name in names)])
    clock = lang.BinOp("=", asrt.ClockTerm(), lang.IntLit(0)) if reads_clock else asrt.TRUE
    return VC(_conj(pre, clock), None, first, SEQUENTIAL,
              f"{name}: initial store establishes {what}")


def gen_vcs(annotated: asrt.AnnotatedProgram,
            costs: semantics.CostModel = semantics.CostModel(),
            ) -> tuple[list[VC], list[str]]:
    """All three VC families in report order, with the leak notices: per
    thread its :func:`_initial_vc` and its chain, then interference, then
    the leak conditions.  Each thread's outline is built once."""
    vcs: list[VC] = []
    outlines: dict[int, OutlineMap] = {}
    for t in range(len(annotated.program.threads)):
        seq, outlines[t] = gen_sequential_vcs(annotated, t)
        vcs += [_initial_vc(annotated, t)] + seq
    vcs += gen_interference_vcs(annotated, outlines)
    leaky_vcs, notices = gen_leaky_vcs(annotated, costs, outlines)
    return vcs + leaky_vcs, notices


def check_proof(annotated: asrt.AnnotatedProgram,
                costs: semantics.CostModel = semantics.CostModel(),
                snapshot_bound: int = 64,
                tolerance: int = 0) -> ProofResult:
    """Generate all three VC families, discharge them, and aggregate.

    Each distinct triple is discharged once per program: VCs that differ
    only in kind and provenance share one :class:`DischargeResult`.  The
    class stays in the key because a :class:`FactlessVC` judges a failing
    rule apart.  The program keeps, per cost model and tolerance, each
    result under its triple and, only when the discharge read it
    (``bounded``), the snapshot bound, with the numbering that keys the
    triples; so a later check of the program discharges only the triples
    it has not met and, at another bound, those that read the bound.  One
    :class:`AssertionTable`, local to this call, numbers the triples'
    assertions and analyses and compiles each distinct one once.
    """
    program = annotated.program
    vcs, notices = gen_vcs(annotated, costs)
    _clock_box(snapshot_bound)  # a kept result must not pass a negative bound
    numbers, kept = semantics.control_table(program).proofs(costs).setdefault(
        tolerance, ({}, {}))
    table = AssertionTable(program, tolerance, numbers)
    entries = []
    for vc in vcs:
        key = table.key(vc)
        result = kept.get((key, None)) or kept.get((key, snapshot_bound))
        if result is None:
            result = discharge_vc(vc, program, costs, snapshot_bound,
                                  STATE_BUDGET, tolerance, table)
            kept[key, snapshot_bound if result.bounded else None] = result
        entries.append((vc, result))
    statuses = [r.status for _, r in entries]
    if any(s == "counterexample" for s in statuses):
        overall = "refuted"
    elif any(s == "undischarged" for s in statuses):
        overall = "incomplete"
    else:
        overall = "proven"

    certified: tuple[lang.LocationId, ...] = ()
    if annotated.leaky:
        leaky_bad = [r.status for vc, r in entries
                     if vc.kind == LEAKY and r.status != "valid"]
        if overall == "proven":
            certified = tuple(sorted(annotated.leaky))
            locs = ", ".join(program.location_str(l) for l in certified)
            message = f"program certified leaky at {locs}"
        elif leaky_bad:
            message = "leak not established"
        else:
            message = "outline not established; leak postulates unjudged"
    else:
        if overall == "proven":
            message = "functionally non-interfering; no leak assertions checked"
        else:
            message = "outline not established"
    return ProofResult(entries, overall, message, certified,
                       annotated.warnings + notices, len(table.nodes))
