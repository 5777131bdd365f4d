"""Assertions over program variables, the clock, and clock snapshots.

The assertion language extends program expressions with:

* ``t``: the current clock;
* ``t@l7`` / ``t@T2.l7`` / ``t@l7[0]``: the clock recorded when control
  arrived at a location (latest arrival by default, i-th arrival with an
  index);
* ``->`` implication, bounded ``forall``/``exists`` quantifiers, and
  ``approx(a, b, tol)`` for tolerance comparisons (|a-b| <= tol).

Everything else is parsed, typed, printed and evaluated by
:class:`lang.ExprLanguage`, so an expression means the same in an assertion
as in the program.

Assertions attach to programs through :class:`AnnotatedProgram`: a pre
assertion per location, one post assertion per thread, and a separate map
of leak-postulate assertions at output statements.  The leak postulates are
deliberately not part of the sequential proof chain; they are judged by the
stability and rule-support conditions in :mod:`leaklab.proofs` and by the
reachability test :func:`is_leaky_assertion` here.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import explorer, lang, semantics
from .errors import AnnotationError, LeakLabError, ParseError, SnapshotUndefined
from .lang import field, fields, record, replace

Assertion = lang.Expr  # assertion ASTs extend the expression node family


@record(frozen=True)
class ClockTerm(lang.Expr):
    """The current value of the global clock (written ``t``)."""


@record(frozen=True)
class SnapshotTerm(lang.Expr):
    """Clock recorded at an arrival of control at a location.

    ``arrival`` selects the i-th arrival (0-based); None means the latest.
    ``thread_name`` is None until resolved against a program.
    """

    thread_name: Optional[str]
    index: int
    arrival: Optional[int] = None
    resolved: Optional[lang.LocationId] = None


@record(frozen=True)
class Implies(lang.Expr):
    antecedent: lang.Expr
    consequent: lang.Expr


@record(frozen=True)
class Approx(lang.Expr):
    """|left - right| <= tolerance; tolerance defaults to the configured one."""

    left: lang.Expr
    right: lang.Expr
    tolerance: Optional[lang.Expr] = None


@record(frozen=True)
class Quantified(lang.Expr):
    kind: str  # "forall" | "exists"
    var: str
    lo: int
    hi: int
    body: lang.Expr


TRUE = lang.BoolLit(True)


# ---------------------------------------------------------------------------
# The assertion language: expressions plus the forms above
# ---------------------------------------------------------------------------

class _AssertionLanguage(lang.ExprLanguage):
    """``lang``'s expression language with ``->`` loosest of all, quantifiers
    beside ``not``, and ``approx``, ``t`` and ``t@...`` as atoms.

    Typing extends the expression rules: ``t``, ``t@...`` and quantified
    variables are ints, ``->`` and quantifier bodies take booleans, and
    ``approx`` takes ints.

    A compiled assertion reads the clock, the snapshots and the default
    ``approx`` tolerance from the instance that compiled it; a quantifier
    binds its variable in a copy of the store.
    """

    noun = "assertion term"

    def __init__(self, tolerance: int = 0):
        self.tolerance = tolerance
        self.snapshots: dict[lang.LocationId, tuple[int, ...]] = {}
        self.clock = 0

    def parse(self, ts: lang.TokenStream) -> Assertion:
        left = self.parse_or(ts)
        if ts.at("sym", "->"):
            ts.next()
            return Implies(left, self.parse(ts))
        return left

    def parse_not(self, ts: lang.TokenStream) -> Assertion:
        if ts.at("keyword", "forall") or ts.at("keyword", "exists"):
            kind = ts.next().text
            var = ts.expect("ident").text
            ts.expect("keyword", "in")
            lo = int(ts.expect("int").text)
            ts.expect("sym", "..")
            hi = int(ts.expect("int").text)
            ts.expect("sym", ":")
            return Quantified(kind, var, lo, hi, self.parse(ts))
        return super().parse_not(ts)

    def parse_atom(self, ts: lang.TokenStream) -> Assertion:
        if ts.at("keyword", "approx"):
            ts.next()
            ts.expect("sym", "(")
            left = self.parse_add(ts)
            ts.expect("sym", ",")
            right = self.parse_add(ts)
            tol = None
            if ts.at("sym", ","):
                ts.next()
                tol = self.parse_add(ts)
            ts.expect("sym", ")")
            return Approx(left, right, tol)
        if ts.at("ident", "t"):
            ts.next()
            if ts.at("sym", "@"):
                ts.next()
                return _parse_snapshot_ref(ts)
            return ClockTerm()
        return super().parse_atom(ts)

    def type_of(self, x: Assertion, decls: dict[str, lang.Decl]) -> str:
        if isinstance(x, (ClockTerm, SnapshotTerm)):
            return lang.INT
        if isinstance(x, Implies):
            if (self.type_of(x.antecedent, decls) != lang.BOOL
                    or self.type_of(x.consequent, decls) != lang.BOOL):
                raise ParseError("implication '->' on non-bool operands")
            return lang.BOOL
        if isinstance(x, Approx):
            parts = (x.left, x.right) + ((x.tolerance,) if x.tolerance is not None else ())
            if any(self.type_of(part, decls) != lang.INT for part in parts):
                raise ParseError("approx on non-int operands")
            return lang.BOOL
        if isinstance(x, Quantified):
            var = lang.Decl(x.var, lang.INT, "low", range(x.lo, x.hi + 1), None, False)
            if self.type_of(x.body, {**decls, x.var: var}) != lang.BOOL:
                raise ParseError(f"{x.kind} over a non-bool body")
            return lang.BOOL
        return super().type_of(x, decls)

    def show(self, x: Assertion, parent_prec: int = 0) -> str:
        if isinstance(x, ClockTerm):
            return "t"
        if isinstance(x, SnapshotTerm):
            where = f"{x.thread_name}.l{x.index}" if x.thread_name is not None else f"l{x.index}"
            return f"t@{where}" + (f"[{x.arrival}]" if x.arrival is not None else "")
        if isinstance(x, Implies):
            text = f"{self.show(x.antecedent, 1)} -> {self.show(x.consequent, 0)}"
            return f"({text})" if parent_prec >= 1 else text
        if isinstance(x, Approx):
            args = (x.left, x.right) + ((x.tolerance,) if x.tolerance is not None else ())
            return f"approx({', '.join(self.show(arg) for arg in args)})"
        if isinstance(x, Quantified):
            text = f"{x.kind} {x.var} in {x.lo}..{x.hi} : {self.show(x.body)}"
            return f"({text})" if parent_prec >= 1 else text
        return super().show(x, parent_prec)

    def compile(self, x: Assertion):
        if isinstance(x, ClockTerm):
            return lambda store: self.clock
        if isinstance(x, SnapshotTerm):
            if x.resolved is None:
                raise LeakLabError("unresolved snapshot term; bind it to a program first")
            loc, arrival = x.resolved, x.arrival

            def snapshot(store):
                arrivals = self.snapshots.get(loc, ())
                idx = arrival if arrival is not None else len(arrivals) - 1
                if idx < 0 or idx >= len(arrivals):
                    raise SnapshotUndefined(f"no arrival recorded at l{loc.index}")
                return arrivals[idx]
            return snapshot
        if isinstance(x, Implies):
            left, right = self.compile(x.antecedent), self.compile(x.consequent)
            return lambda store: (not left(store)) or right(store)
        if isinstance(x, Approx):
            left, right = self.compile(x.left), self.compile(x.right)
            tol = (self.compile(x.tolerance) if x.tolerance is not None
                   else lambda store: self.tolerance)
            return lambda store: abs(left(store) - right(store)) <= tol(store)
        if isinstance(x, Quantified):
            body, var = self.compile(x.body), x.var
            values = range(x.lo, x.hi + 1)
            if x.kind == "forall":
                return lambda store: all(body({**store, var: v}) for v in values)
            return lambda store: any(body({**store, var: v}) for v in values)
        return super().compile(x)


_ASSERTIONS = _AssertionLanguage()


def parse_assertion(text: str) -> Assertion:
    """Parse assertion text; snapshot terms stay unresolved until bound."""
    ts = lang.TokenStream(lang.tokenize(text))
    a = _ASSERTIONS.parse(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after assertion", tok.line, tok.col)
    return a


def _parse_snapshot_ref(ts: lang.TokenStream) -> SnapshotTerm:
    first = ts.expect("ident").text
    thread_name: Optional[str] = None
    label = first
    if ts.at("sym", "."):
        ts.next()
        thread_name = first
        label = ts.expect("ident").text
    if not (len(label) > 1 and label[0] == "l" and label[1:].isdigit()):
        raise ts.error(f"expected location label like 'l7', found {label!r}")
    arrival = None
    if ts.at("sym", "["):
        ts.next()
        arrival = int(ts.expect("int").text)
        ts.expect("sym", "]")
    return SnapshotTerm(thread_name, int(label[1:]), arrival)


def unparse_assertion(a: Assertion, program: Optional[lang.Program] = None) -> str:
    """Source text of ``a``; with ``program``, resolved snapshot terms are
    written with their thread's name."""
    def name_thread(x: Assertion, _bound: frozenset) -> Optional[Assertion]:
        if isinstance(x, SnapshotTerm) and x.resolved is not None:
            return replace(x, thread_name=program.threads[x.resolved.thread].name)
        return None

    return _ASSERTIONS.show(rewrite(a, name_thread) if program is not None else a)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def rewrite(a: Assertion, fn, bound: frozenset = frozenset()) -> Assertion:
    """The structural walk over assertions, top-down.

    ``fn(node, bound)`` sees every node, with ``bound`` the quantifier
    variables in scope there.  A node it returns replaces the subtree; on
    None the walk descends into the node's subterms and rebuilds the node
    only when one of them changed.
    """
    new = fn(a, bound)
    if new is not None:
        return new
    if isinstance(a, Quantified):
        bound = bound | {a.var}
    changed = {}
    for name in field_names(type(a)):
        child = getattr(a, name)
        if isinstance(child, lang.Expr):
            new_child = rewrite(child, fn, bound)
            if new_child is not child:
                changed[name] = new_child
    return replace(a, **changed) if changed else a


@functools.cache
def field_names(node_type: type) -> tuple[str, ...]:
    """The record field names of an assertion node type, in order.  Cached
    because :func:`rewrite` asks at every node: a cached call takes about
    0.17 us against 0.78 us to walk ``lang.fields`` (2-core host, Python
    3.11.7)."""
    return tuple(f.name for f in fields(node_type))


def subterms(a: Assertion) -> list[tuple[Assertion, frozenset]]:
    """Every node of ``a`` in pre-order, with the quantifier variables bound there."""
    out: list[tuple[Assertion, frozenset]] = []
    rewrite(a, lambda x, bound: out.append((x, bound)))
    return out


def free_names(nodes: list[tuple[Assertion, frozenset]]) -> frozenset[str]:
    """The variable names among the nodes of :func:`subterms` that no quantifier binds."""
    return frozenset(x.name for x, bound in nodes
                     if isinstance(x, lang.Var) and x.name not in bound)


def assertion_vars(a: Assertion) -> frozenset[str]:
    """Variable names (program or ghost) appearing free in the assertion."""
    return free_names(subterms(a))


def snapshot_terms(a: Assertion) -> list[SnapshotTerm]:
    return [x for x, _ in subterms(a) if isinstance(x, SnapshotTerm)]


def join_forms(forms) -> tuple:
    """The analysed form of a conjunction of parts with the given
    analysed forms (see :func:`analyse`)."""
    free: frozenset[str] = frozenset()
    slots: dict = {}
    clock = False
    atoms: frozenset[int] = frozenset()
    for f_free, f_slots, f_clock, f_atoms in forms:
        free |= f_free
        for loc, want in f_slots.items():
            if want > slots.get(loc, 0):
                slots[loc] = want
        clock = clock or f_clock
        atoms |= f_atoms
    return free, slots, clock, atoms


def analyse(x: Assertion, n: int, parts: list[tuple]) -> tuple:
    """The analysed form of node ``x``, numbered ``n``, from the analysed
    forms of its subterms in field order.

    The form is ``(free, slots, clock, atoms)``: the variable names no
    quantifier binds, the arrivals each snapshot location needs (the key
    None collects unresolved snapshot terms), whether the clock ``t``
    occurs, and the numbers of the snapshot atoms: the subterms under the
    connectives (``and``, ``or``, ``not``, ``->`` and the quantifiers)
    that mention a snapshot.  Equal nodes have equal forms, so a table
    that numbers equal nodes alike analyses each number once.
    """
    if isinstance(x, lang.Var):
        return frozenset((x.name,)), {}, False, frozenset()
    if isinstance(x, SnapshotTerm):
        want = 1 if x.arrival is None else x.arrival + 1
        return frozenset(), {x.resolved: want}, False, frozenset((n,))
    if isinstance(x, ClockTerm):
        return frozenset(), {}, True, frozenset()
    free, slots, clock, atoms = join_forms(parts)
    if isinstance(x, Quantified):
        free -= {x.var}
    elif not (isinstance(x, Implies)
              or isinstance(x, lang.BinOp) and x.op in lang.BOOL_OPS
              or isinstance(x, lang.UnaryOp) and x.op == "not"):
        atoms = frozenset((n,)) if slots else frozenset()
    return free, slots, clock, atoms


def resolve_assertion(a: Assertion, program: lang.Program,
                      default_thread: int) -> Assertion:
    """Bind snapshot terms to concrete locations, validating they exist."""
    def bind(term: Assertion, _bound: frozenset) -> Optional[SnapshotTerm]:
        if not isinstance(term, SnapshotTerm):
            return None
        if term.resolved is not None:
            return term
        thread = (program.thread_index(term.thread_name)
                  if term.thread_name is not None else default_thread)
        loc = lang.LocationId(thread, term.index)
        if loc not in program.labels_of_thread(thread):
            raise AnnotationError(
                f"snapshot location {program.threads[thread].name}.l{term.index}"
                " does not exist")
        return replace(term, resolved=loc)

    return rewrite(a, bind)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_assertion(a: Assertion, store: semantics.Store,
                   snapshots: dict[lang.LocationId, tuple[int, ...]],
                   clock: int, tolerance: int = 0) -> bool:
    """Evaluate ``a`` once against a runtime state; see :func:`compile_assertion`."""
    return compile_assertion(a, tolerance)(store, snapshots, clock)


def compile_assertion(a: Assertion, tolerance: int = 0):
    """Build an evaluator ``fn(store, snapshots, clock) -> bool``.

    The AST is translated once into nested closures by the one evaluator,
    :meth:`lang.ExprLanguage.compile`, so discharge loops avoid per-state
    dispatch.  A snapshot of a location never reached raises
    :class:`SnapshotUndefined`, which is distinct from evaluating to False.
    """
    compiler = _AssertionLanguage(tolerance)
    fn = compiler.compile(a)

    def run(store, snapshots, clock) -> bool:
        compiler.snapshots, compiler.clock = snapshots, clock
        value = fn(store)
        if not isinstance(value, bool):
            raise LeakLabError("assertion does not evaluate to a boolean")
        return value

    return run


# ---------------------------------------------------------------------------
# Annotated programs
# ---------------------------------------------------------------------------

def check_vars(a: Assertion, program: lang.Program, where: str) -> None:
    """Raise :class:`AnnotationError` unless every free name of ``a`` is a
    variable or ghost of ``program`` and ``a`` is a well-typed boolean."""
    decls = {d.name: d for d in program.declarations + program.ghosts}
    undeclared = assertion_vars(a) - decls.keys()
    if undeclared:
        raise AnnotationError(
            f"undeclared name(s) {sorted(undeclared)} in assertion at {where}")
    try:
        if _ASSERTIONS.type_of(a, decls) != lang.BOOL:
            raise ParseError("assertion is not boolean")
    except ParseError as e:
        raise AnnotationError(f"ill-typed assertion at {where}: {e}") from None


@record
class AnnotatedProgram:
    program: lang.Program
    pre: dict[lang.LocationId, Assertion]
    posts: dict[int, Assertion]  # thread index -> post assertion
    leaky: dict[lang.LocationId, Assertion]
    warnings: list[str] = field(default_factory=list)


def annotate_program(program: lang.Program,
                     extra_pre: Optional[dict[lang.LocationId, Assertion]] = None,
                     extra_leaky: Optional[dict[lang.LocationId, Assertion]] = None,
                     ) -> AnnotatedProgram:
    """Parse the annotation texts carried by a program into assertion ASTs.

    ``extra_pre``/``extra_leaky`` override or add programmatic annotations,
    e.g. assertions produced by synthesis; each distinct one is resolved and
    checked once per thread.
    """
    pre: dict[lang.LocationId, Assertion] = {}
    leaky: dict[lang.LocationId, Assertion] = {}
    posts: dict[int, Assertion] = {}
    warnings: list[str] = []

    for t_idx, thread in enumerate(program.threads):
        for stmt in lang.iter_statements(thread.body):
            where = program.location_str(stmt.label)
            if stmt.pre_text is not None:
                a = resolve_assertion(parse_assertion(stmt.pre_text), program, t_idx)
                check_vars(a, program, where)
                pre[stmt.label] = a
            if stmt.leaky_text is not None:
                a = resolve_assertion(parse_assertion(stmt.leaky_text), program, t_idx)
                check_vars(a, program, where)
                leaky[stmt.label] = a
        if thread.post_text is not None:
            a = resolve_assertion(parse_assertion(thread.post_text), program, t_idx)
            check_vars(a, program, f"{thread.name} post")
            posts[t_idx] = a

    resolved: dict[tuple, Assertion] = {}  # (extra assertion, thread) -> checked form

    def extra(loc: lang.LocationId, a: Assertion) -> Assertion:
        if (a, loc.thread) not in resolved:
            checked = resolve_assertion(a, program, loc.thread)
            check_vars(checked, program, program.location_str(loc))
            resolved[a, loc.thread] = checked
        return resolved[a, loc.thread]

    for loc, a in (extra_pre or {}).items():
        pre[loc] = extra(loc, a)
    for loc, a in (extra_leaky or {}).items():
        leaky[loc] = extra(loc, a)

    secrets = set(program.secret_names())
    for loc, a in leaky.items():
        stmt = program.statement_at(loc)
        names = assertion_vars(a)
        if not names & secrets:
            raise AnnotationError(
                f"leak postulate at {program.location_str(loc)} references no secret")
        if isinstance(stmt, lang.Delay):
            warnings.append(
                f"leak postulate on delay at {program.location_str(loc)}; "
                "delays are public but carry no output payload")
        elif not isinstance(stmt, lang.Print):
            raise AnnotationError(
                f"leak postulate must sit on an output statement, not at "
                f"{program.location_str(loc)}")
    return AnnotatedProgram(program, pre, posts, leaky, warnings)


# ---------------------------------------------------------------------------
# Leakiness of an assertion at a location
# ---------------------------------------------------------------------------

@record
class CaseResult:
    antecedent: Optional[Assertion]  # None for a bare (rule-free) assertion
    consequent: Optional[Assertion]
    satisfying_secrets: tuple
    excluded: dict[str, tuple]
    determinizes: bool
    consequent_holds: bool


@record
class LeakinessVerdict:
    verdict: str  # "leaky" | "not-leaky" | "vacuous"
    witness: dict[str, tuple]  # secret name -> excluded values
    cases: list[CaseResult]
    complete: bool


def valuations_assertion(valuations: list[explorer.SecretValuation]) -> Assertion:
    """``n = v and ...`` over each valuation's bindings, joined by ``or``;
    the empty valuation is ``true``."""
    def conj(valuation: explorer.SecretValuation) -> Assertion:
        return functools.reduce(functools.partial(lang.BinOp, "and"), [
            lang.BinOp("=", lang.Var(n),
                       lang.BoolLit(v) if isinstance(v, bool) else lang.IntLit(v))
            for n, v in valuation]) if valuation else TRUE

    return functools.reduce(functools.partial(lang.BinOp, "or"), map(conj, valuations))


def duration_term(loc_from: lang.LocationId, loc_to: lang.LocationId) -> Assertion:
    """``t@to - t@from``: the latest arrivals at two locations, resolved."""
    return lang.BinOp("-", SnapshotTerm(None, loc_to.index, None, loc_to),
                      SnapshotTerm(None, loc_from.index, None, loc_from))


def decompose_rules(a: Assertion, secrets: frozenset[str]) -> Optional[list[Implies]]:
    """Split a rule-form assertion into its implication cases.

    A rule form is an and/or combination of implications whose consequents
    constrain secret variables and whose antecedents do not mention any
    secret.  Returns None when the assertion has no such shape; the caller
    then falls back to the plain satisfying-state test.
    """
    leaves: list[lang.Expr] = []

    def flatten(x: lang.Expr) -> None:
        if isinstance(x, lang.BinOp) and x.op in ("and", "or"):
            flatten(x.left)
            flatten(x.right)
        else:
            leaves.append(x)

    flatten(a)
    if not leaves or not all(isinstance(leaf, Implies) for leaf in leaves):
        return None
    cases: list[Implies] = []
    for leaf in leaves:
        if not (assertion_vars(leaf.consequent) & secrets):
            return None
        if assertion_vars(leaf.antecedent) & secrets:
            return None
        cases.append(leaf)
    return cases


def states_at_location(program: lang.Program, loc: lang.LocationId,
                       watch: frozenset, secret_domain: tuple,
                       bounds: explorer.ExploreBounds,
                       costs: semantics.CostModel = semantics.CostModel(),
                       ) -> tuple[list[tuple], bool]:
    """Every distinct reachable state with control at ``loc``, plus a
    completeness flag.

    A state is a (store, snapshots, clock, secret valuation) tuple whose
    snapshots hold the arrivals at the locations in ``watch`` and at no
    others.  The states are read from the program's kept search that
    watches those locations (:func:`explorer.kept_search`), run timed even
    when ``bounds`` is timing-blind: a state holds its clock, which an
    assertion reads as ``t``, even when nothing is watched.  So a call at
    another location, or a ``duration_stats`` call that watches the same
    locations, reads the same search.  States that differ only in the
    steps used to reach them are listed once.  The first secret valuation
    of each class (``explorer.secret_classes``) is searched, and every
    member gets its states with its own secret values in the store.
    """
    bounds = replace(bounds, timing_blind=False)
    watch = frozenset(watch)
    head = semantics.head_at(program, loc)
    classes = explorer.secret_classes(program, {}, secret_domain)
    searched: dict[tuple, list[tuple]] = {}
    complete = True
    for first, store in dict(classes.values()).items():
        found = explorer.kept_search(program, store, bounds, costs, watch)
        complete = complete and found.complete
        at_loc = dict.fromkeys((s, watched, clock)
                               for (heads, s, clock, watched), _ in found.reached
                               if heads[loc.thread] == head)
        searched[first] = [(s, found.arrivals(watched), clock)
                           for s, watched, clock in at_loc]
    states = [(dict(s, **dict(valuation)), dict(snaps), clock, valuation)
              for valuation, (first, _) in classes.items() for s, snaps, clock in searched[first]]
    return states, complete


def is_leaky_assertion(a: Assertion, loc: lang.LocationId, program: lang.Program,
                       secret_domain: Optional[tuple] = None,
                       bounds: explorer.ExploreBounds = explorer.ExploreBounds(),
                       costs: semantics.CostModel = semantics.CostModel(),
                       tolerance: int = 0) -> LeakinessVerdict:
    """Does the assertion, where satisfiable at ``loc``, pin down a secret?

    For a plain assertion the test is over the reachable states at the
    location that satisfy it: leaky when the values some secret variable
    takes among them form a nonempty strict subset of its domain.  For a
    rule-form assertion (implications with secret-free antecedents and
    secret consequents) each case is tested the same way over the states
    satisfying its antecedent, and the case must also verify its own
    consequent; one determinizing case suffices.  An assertion that
    :func:`annotate_program` would reject raises the same
    :class:`AnnotationError`, and so does one that names a ghost: a ghost
    has no value at a reachable state.
    """
    if secret_domain is None:
        secret_domain = explorer.secret_domain_of(program)
    secrets = frozenset(program.secret_names())
    a = resolve_assertion(a, program, loc.thread)
    check_vars(a, program, program.location_str(loc))
    ghosts = sorted(assertion_vars(a) & {g.name for g in program.ghosts})
    if ghosts:
        raise AnnotationError(f"ghost(s) {ghosts} in leakiness assertion at "
                              f"{program.location_str(loc)}")
    watch = frozenset(term.resolved for term in snapshot_terms(a))
    states, complete = states_at_location(
        program, loc, watch, secret_domain, bounds, costs)

    per_var_domain = {d.name: d.domain for d in program.declarations if d.secret}

    def satisfying(pred: Assertion) -> list[tuple]:
        pred_fn = compile_assertion(pred, tolerance)
        out = []
        for store, snaps, clock, valuation in states:
            try:
                ok = pred_fn(store, snaps, clock)
            except SnapshotUndefined:
                continue
            if ok:
                out.append((store, snaps, clock, valuation))
        return out

    def excluded_values(sat_states: list[tuple]) -> dict[str, tuple]:
        """Per secret variable, its domain values missing among
        ``sat_states``, when some are present and some missing."""
        excluded: dict[str, tuple] = {}
        for name, domain in per_var_domain.items():
            seen = {store[name] for store, _, _, _ in sat_states}
            missing = tuple(v for v in domain if v not in seen)
            if seen and missing:
                excluded[name] = missing
        return excluded

    # A plain assertion is one case with no consequent, over its own states.
    rules = decompose_rules(a, secrets)
    cases: list[CaseResult] = []
    for antecedent, consequent in ([(None, None)] if rules is None else
                                   [(r.antecedent, r.consequent) for r in rules]):
        sat = satisfying(a if antecedent is None else antecedent)
        excluded = excluded_values(sat)
        holds = True
        if consequent is not None:
            check = compile_assertion(consequent, tolerance)
            holds = all(check(store, snaps, clock) for store, snaps, clock, _ in sat)
        cases.append(CaseResult(
            antecedent=antecedent, consequent=consequent,
            satisfying_secrets=tuple(sorted({v for _, _, _, v in sat})),
            excluded=excluded, determinizes=bool(sat) and bool(excluded) and holds,
            consequent_holds=holds))

    if all(not c.satisfying_secrets for c in cases):
        verdict = "vacuous"
    elif any(c.determinizes for c in cases):
        verdict = "leaky"
    else:
        verdict = "not-leaky"
    witness: dict[str, tuple] = {}
    for c in cases:
        if c.determinizes:
            for name, vals in c.excluded.items():
                witness.setdefault(name, vals)
    return LeakinessVerdict(verdict, witness, cases, complete)
