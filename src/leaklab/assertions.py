"""Assertions over program variables, the clock, and clock snapshots.

The assertion language extends program expressions with:

* ``t``: the current clock;
* ``t@l7`` / ``t@T2.l7`` / ``t@l7[0]``: the clock recorded when control
  arrived at a location (latest arrival by default, i-th arrival with an
  index);
* ``->`` implication, bounded ``forall``/``exists`` quantifiers, and
  ``approx(a, b, tol)`` for tolerance comparisons (|a-b| <= tol).

Assertions attach to programs through :class:`AnnotatedProgram`: a pre
assertion per location, one post assertion per thread, and a separate map
of leak-postulate assertions at output statements.  The leak postulates are
deliberately not part of the sequential proof chain; they are judged by the
stability and rule-support conditions in :mod:`leaklab.proofs` and by the
reachability test :func:`is_leaky_assertion` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from . import explorer, lang, semantics
from .errors import AnnotationError, LeakLabError, ParseError, SnapshotUndefined

Assertion = lang.Expr  # assertion ASTs extend the expression node family


@dataclass(frozen=True)
class ClockTerm(lang.Expr):
    """The current value of the global clock (written ``t``)."""


@dataclass(frozen=True)
class SnapshotTerm(lang.Expr):
    """Clock recorded at an arrival of control at a location.

    ``arrival`` selects the i-th arrival (0-based); None means the latest.
    ``thread_name`` is None until resolved against a program.
    """

    thread_name: Optional[str]
    index: int
    arrival: Optional[int] = None
    resolved: Optional[lang.LocationId] = None


@dataclass(frozen=True)
class Implies(lang.Expr):
    antecedent: lang.Expr
    consequent: lang.Expr


@dataclass(frozen=True)
class Approx(lang.Expr):
    """|left - right| <= tolerance; tolerance defaults to the configured one."""

    left: lang.Expr
    right: lang.Expr
    tolerance: Optional[lang.Expr] = None


@dataclass(frozen=True)
class Quantified(lang.Expr):
    kind: str  # "forall" | "exists"
    var: str
    lo: int
    hi: int
    body: lang.Expr


TRUE = lang.BoolLit(True)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_assertion(text: str) -> Assertion:
    """Parse assertion text; snapshot terms stay unresolved until bound."""
    ts = lang.TokenStream(lang.tokenize(text))
    a = _parse_implication(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after assertion", tok.line, tok.col)
    return a


def _parse_implication(ts: lang.TokenStream) -> Assertion:
    left = _parse_or(ts)
    if ts.at("sym", "->"):
        ts.next()
        return Implies(left, _parse_implication(ts))
    return left


def _parse_or(ts: lang.TokenStream) -> Assertion:
    left = _parse_and(ts)
    while ts.at("keyword", "or"):
        ts.next()
        left = lang.BinOp("or", left, _parse_and(ts))
    return left


def _parse_and(ts: lang.TokenStream) -> Assertion:
    left = _parse_not(ts)
    while ts.at("keyword", "and"):
        ts.next()
        left = lang.BinOp("and", left, _parse_not(ts))
    return left


def _parse_not(ts: lang.TokenStream) -> Assertion:
    if ts.at("keyword", "not"):
        ts.next()
        return lang.UnaryOp("not", _parse_not(ts))
    if ts.at("keyword", "forall") or ts.at("keyword", "exists"):
        kind = ts.next().text
        var = ts.expect("ident").text
        ts.expect("keyword", "in")
        lo = int(ts.expect("int").text)
        ts.expect("sym", "..")
        hi = int(ts.expect("int").text)
        ts.expect("sym", ":")
        return Quantified(kind, var, lo, hi, _parse_implication(ts))
    return _parse_cmp(ts)


def _parse_cmp(ts: lang.TokenStream) -> Assertion:
    left = _parse_add(ts)
    if ts.at("sym") and ts.peek().text in lang.CMP_OPS:
        op = ts.next().text
        return lang.BinOp(op, left, _parse_add(ts))
    return left


def _parse_add(ts: lang.TokenStream) -> Assertion:
    left = _parse_mul(ts)
    while ts.at("sym") and ts.peek().text in lang.ADD_OPS:
        op = ts.next().text
        left = lang.BinOp(op, left, _parse_mul(ts))
    return left


def _parse_mul(ts: lang.TokenStream) -> Assertion:
    left = _parse_unary(ts)
    while ts.at("sym", "*"):
        ts.next()
        left = lang.BinOp("*", left, _parse_unary(ts))
    return left


def _parse_unary(ts: lang.TokenStream) -> Assertion:
    if ts.at("sym", "-"):
        ts.next()
        return lang.UnaryOp("-", _parse_unary(ts))
    return _parse_atom(ts)


def _parse_atom(ts: lang.TokenStream) -> Assertion:
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return lang.IntLit(int(tok.text))
    if tok.kind == "keyword" and tok.text in ("true", "false"):
        ts.next()
        return lang.BoolLit(tok.text == "true")
    if tok.kind == "keyword" and tok.text == "approx":
        ts.next()
        ts.expect("sym", "(")
        left = _parse_add(ts)
        ts.expect("sym", ",")
        right = _parse_add(ts)
        tol = None
        if ts.at("sym", ","):
            ts.next()
            tol = _parse_add(ts)
        ts.expect("sym", ")")
        return Approx(left, right, tol)
    if tok.kind == "ident" and tok.text == "t":
        ts.next()
        if ts.at("sym", "@"):
            ts.next()
            return _parse_snapshot_ref(ts)
        return ClockTerm()
    if tok.kind == "ident":
        ts.next()
        return lang.Var(tok.text)
    if tok.kind == "sym" and tok.text == "(":
        ts.next()
        inner = _parse_implication(ts)
        ts.expect("sym", ")")
        return inner
    raise ts.error(f"expected assertion term, found {tok.text!r}")


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


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def assertion_vars(a: Assertion) -> frozenset[str]:
    """Variable names (program or ghost) appearing free in the assertion."""
    if isinstance(a, lang.Var):
        return frozenset((a.name,))
    if isinstance(a, (lang.IntLit, lang.BoolLit, ClockTerm, SnapshotTerm)):
        return frozenset()
    if isinstance(a, lang.UnaryOp):
        return assertion_vars(a.operand)
    if isinstance(a, lang.BinOp):
        return assertion_vars(a.left) | assertion_vars(a.right)
    if isinstance(a, Implies):
        return assertion_vars(a.antecedent) | assertion_vars(a.consequent)
    if isinstance(a, Approx):
        tol = assertion_vars(a.tolerance) if a.tolerance is not None else frozenset()
        return assertion_vars(a.left) | assertion_vars(a.right) | tol
    if isinstance(a, Quantified):
        return assertion_vars(a.body) - {a.var}
    raise TypeError(a)


def snapshot_terms(a: Assertion) -> list[SnapshotTerm]:
    if isinstance(a, SnapshotTerm):
        return [a]
    if isinstance(a, (lang.IntLit, lang.BoolLit, lang.Var, ClockTerm)):
        return []
    if isinstance(a, lang.UnaryOp):
        return snapshot_terms(a.operand)
    if isinstance(a, lang.BinOp):
        return snapshot_terms(a.left) + snapshot_terms(a.right)
    if isinstance(a, Implies):
        return snapshot_terms(a.antecedent) + snapshot_terms(a.consequent)
    if isinstance(a, Approx):
        out = snapshot_terms(a.left) + snapshot_terms(a.right)
        if a.tolerance is not None:
            out += snapshot_terms(a.tolerance)
        return out
    if isinstance(a, Quantified):
        return snapshot_terms(a.body)
    raise TypeError(a)


def references_clock(a: Assertion) -> bool:
    if isinstance(a, ClockTerm):
        return True
    if isinstance(a, (lang.IntLit, lang.BoolLit, lang.Var, SnapshotTerm)):
        return False
    if isinstance(a, lang.UnaryOp):
        return references_clock(a.operand)
    if isinstance(a, lang.BinOp):
        return references_clock(a.left) or references_clock(a.right)
    if isinstance(a, Implies):
        return references_clock(a.antecedent) or references_clock(a.consequent)
    if isinstance(a, Approx):
        return (references_clock(a.left) or references_clock(a.right)
                or (a.tolerance is not None and references_clock(a.tolerance)))
    if isinstance(a, Quantified):
        return references_clock(a.body)
    raise TypeError(a)


def _map_terms(a: Assertion, fn) -> Assertion:
    if isinstance(a, SnapshotTerm):
        return fn(a)
    if isinstance(a, (lang.IntLit, lang.BoolLit, lang.Var, ClockTerm)):
        return a
    if isinstance(a, lang.UnaryOp):
        return lang.UnaryOp(a.op, _map_terms(a.operand, fn))
    if isinstance(a, lang.BinOp):
        return lang.BinOp(a.op, _map_terms(a.left, fn), _map_terms(a.right, fn))
    if isinstance(a, Implies):
        return Implies(_map_terms(a.antecedent, fn), _map_terms(a.consequent, fn))
    if isinstance(a, Approx):
        tol = _map_terms(a.tolerance, fn) if a.tolerance is not None else None
        return Approx(_map_terms(a.left, fn), _map_terms(a.right, fn), tol)
    if isinstance(a, Quantified):
        return Quantified(a.kind, a.var, a.lo, a.hi, _map_terms(a.body, fn))
    raise TypeError(a)


def resolve_assertion(a: Assertion, program: lang.Program,
                      default_thread: int) -> Assertion:
    """Bind snapshot terms to concrete locations, validating they exist."""
    def bind(term: SnapshotTerm) -> SnapshotTerm:
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

    return _map_terms(a, bind)


def unparse_assertion(a: Assertion, program: Optional[lang.Program] = None) -> str:
    def go(x: Assertion, prec: int = 0) -> str:
        if isinstance(x, lang.IntLit):
            return str(x.value)
        if isinstance(x, lang.BoolLit):
            return "true" if x.value else "false"
        if isinstance(x, lang.Var):
            return x.name
        if isinstance(x, ClockTerm):
            return "t"
        if isinstance(x, SnapshotTerm):
            if x.resolved is not None and program is not None:
                name = program.threads[x.resolved.thread].name
                text = f"t@{name}.l{x.resolved.index}"
            elif x.thread_name is not None:
                text = f"t@{x.thread_name}.l{x.index}"
            else:
                text = f"t@l{x.index}"
            if x.arrival is not None:
                text += f"[{x.arrival}]"
            return text
        if isinstance(x, lang.UnaryOp):
            inner = go(x.operand, 7)
            text = f"-{inner}" if x.op == "-" else f"not {inner}"
            return f"({text})" if prec >= 7 else text
        if isinstance(x, lang.BinOp):
            p = lang._PRECEDENCE[x.op]
            text = f"{go(x.left, p - 1)} {x.op} {go(x.right, p)}"
            return f"({text})" if prec >= p else text
        if isinstance(x, Implies):
            text = f"{go(x.antecedent, 1)} -> {go(x.consequent, 0)}"
            return f"({text})" if prec >= 1 else text
        if isinstance(x, Approx):
            args = f"{go(x.left)}, {go(x.right)}"
            if x.tolerance is not None:
                args += f", {go(x.tolerance)}"
            return f"approx({args})"
        if isinstance(x, Quantified):
            text = f"{x.kind} {x.var} in {x.lo}..{x.hi} : {go(x.body)}"
            return f"({text})" if prec >= 1 else text
        raise TypeError(x)

    return go(a)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_assertion(a: Assertion, store: semantics.Store,
                   snapshots: dict[lang.LocationId, tuple[int, ...]],
                   clock: int, tolerance: int = 0) -> bool:
    """First-order evaluation against a runtime state.

    Raises :class:`SnapshotUndefined` when a referenced location has not
    been reached (distinct from evaluating to False).
    """
    def term(x: lang.Expr, env: dict) -> semantics.Value:
        if isinstance(x, ClockTerm):
            return clock
        if isinstance(x, SnapshotTerm):
            if x.resolved is None:
                raise LeakLabError("unresolved snapshot term; bind it to a program first")
            arrivals = snapshots.get(x.resolved, ())
            idx = x.arrival if x.arrival is not None else len(arrivals) - 1
            if idx < 0 or idx >= len(arrivals):
                raise SnapshotUndefined(
                    f"no arrival #{x.arrival if x.arrival is not None else 'latest'}"
                    f" recorded at l{x.resolved.index}")
            return arrivals[idx]
        if isinstance(x, lang.Var) and x.name in env:
            return env[x.name]
        if isinstance(x, Implies):
            return (not go(x.antecedent, env)) or go(x.consequent, env)
        if isinstance(x, Approx):
            tol = term(x.tolerance, env) if x.tolerance is not None else tolerance
            return abs(term(x.left, env) - term(x.right, env)) <= tol
        if isinstance(x, Quantified):
            values = range(x.lo, x.hi + 1)
            if x.kind == "forall":
                return all(go(x.body, {**env, x.var: v}) for v in values)
            return any(go(x.body, {**env, x.var: v}) for v in values)
        if isinstance(x, lang.UnaryOp):
            v = term(x.operand, env)
            return -v if x.op == "-" else not v
        if isinstance(x, lang.BinOp):
            if x.op == "and":
                return go(x.left, env) and go(x.right, env)
            if x.op == "or":
                return go(x.left, env) or go(x.right, env)
            left, right = term(x.left, env), term(x.right, env)
            return {
                "=": lambda: left == right,
                "!=": lambda: left != right,
                "<": lambda: left < right,
                "<=": lambda: left <= right,
                ">": lambda: left > right,
                ">=": lambda: left >= right,
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
            }[x.op]()
        if isinstance(x, (lang.IntLit, lang.BoolLit)):
            return x.value
        if isinstance(x, lang.Var):
            try:
                return store[x.name]
            except KeyError:
                raise LeakLabError(f"variable {x.name!r} unbound in assertion") from None
        raise TypeError(x)

    def go(x: lang.Expr, env: dict) -> bool:
        v = term(x, env)
        if not isinstance(v, bool):
            raise LeakLabError("assertion does not evaluate to a boolean")
        return v

    return go(a, {})


def compile_assertion(a: Assertion, tolerance: int = 0):
    """Build a fast evaluator ``fn(store, snapshots, clock) -> bool``.

    Semantically identical to :func:`eval_assertion`; the AST is translated
    once into nested closures so discharge loops avoid per-state dispatch.
    """
    def comp(x: lang.Expr):
        if isinstance(x, lang.IntLit) or isinstance(x, lang.BoolLit):
            v = x.value
            return lambda s, n, c, e: v
        if isinstance(x, lang.Var):
            name = x.name
            def var_fn(s, n, c, e, name=name):
                if name in e:
                    return e[name]
                try:
                    return s[name]
                except KeyError:
                    raise LeakLabError(f"variable {name!r} unbound in assertion") from None
            return var_fn
        if isinstance(x, ClockTerm):
            return lambda s, n, c, e: c
        if isinstance(x, SnapshotTerm):
            if x.resolved is None:
                raise LeakLabError("unresolved snapshot term; bind it to a program first")
            loc, arrival = x.resolved, x.arrival
            def snap_fn(s, n, c, e, loc=loc, arrival=arrival):
                arrivals = n.get(loc, ())
                idx = arrival if arrival is not None else len(arrivals) - 1
                if idx < 0 or idx >= len(arrivals):
                    raise SnapshotUndefined(f"no arrival recorded at l{loc.index}")
                return arrivals[idx]
            return snap_fn
        if isinstance(x, lang.UnaryOp):
            inner = comp(x.operand)
            if x.op == "-":
                return lambda s, n, c, e: -inner(s, n, c, e)
            return lambda s, n, c, e: not inner(s, n, c, e)
        if isinstance(x, Implies):
            left, right = comp(x.antecedent), comp(x.consequent)
            return lambda s, n, c, e: (not left(s, n, c, e)) or right(s, n, c, e)
        if isinstance(x, Approx):
            left, right = comp(x.left), comp(x.right)
            tol = comp(x.tolerance) if x.tolerance is not None else (
                lambda s, n, c, e: tolerance)
            return lambda s, n, c, e: abs(left(s, n, c, e) - right(s, n, c, e)) <= tol(s, n, c, e)
        if isinstance(x, Quantified):
            body = comp(x.body)
            values = tuple(range(x.lo, x.hi + 1))
            var = x.var
            if x.kind == "forall":
                return lambda s, n, c, e: all(
                    body(s, n, c, {**e, var: v}) for v in values)
            return lambda s, n, c, e: any(
                body(s, n, c, {**e, var: v}) for v in values)
        if isinstance(x, lang.BinOp):
            left, right = comp(x.left), comp(x.right)
            op = x.op
            table = {
                "and": lambda s, n, c, e: left(s, n, c, e) and right(s, n, c, e),
                "or": lambda s, n, c, e: left(s, n, c, e) or right(s, n, c, e),
                "=": lambda s, n, c, e: left(s, n, c, e) == right(s, n, c, e),
                "!=": lambda s, n, c, e: left(s, n, c, e) != right(s, n, c, e),
                "<": lambda s, n, c, e: left(s, n, c, e) < right(s, n, c, e),
                "<=": lambda s, n, c, e: left(s, n, c, e) <= right(s, n, c, e),
                ">": lambda s, n, c, e: left(s, n, c, e) > right(s, n, c, e),
                ">=": lambda s, n, c, e: left(s, n, c, e) >= right(s, n, c, e),
                "+": lambda s, n, c, e: left(s, n, c, e) + right(s, n, c, e),
                "-": lambda s, n, c, e: left(s, n, c, e) - right(s, n, c, e),
                "*": lambda s, n, c, e: left(s, n, c, e) * right(s, n, c, e),
            }
            return table[op]
        raise TypeError(x)

    fn = comp(a)

    def run(store, snapshots, clock) -> bool:
        value = fn(store, snapshots, clock, {})
        if not isinstance(value, bool):
            raise LeakLabError("assertion does not evaluate to a boolean")
        return value

    return run


# ---------------------------------------------------------------------------
# Annotated programs
# ---------------------------------------------------------------------------

@dataclass
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
    e.g. assertions produced by synthesis.
    """
    declared = {d.name for d in program.declarations} | {g.name for g in program.ghosts}
    pre: dict[lang.LocationId, Assertion] = {}
    leaky: dict[lang.LocationId, Assertion] = {}
    posts: dict[int, Assertion] = {}
    warnings: list[str] = []

    def check_vars(a: Assertion, where: str) -> None:
        quantified_ok = assertion_vars(a) - declared
        if quantified_ok:
            raise AnnotationError(
                f"undeclared name(s) {sorted(quantified_ok)} in assertion at {where}")

    for t_idx, thread in enumerate(program.threads):
        for stmt in lang.iter_statements(thread.body):
            where = program.location_str(stmt.label)
            if stmt.pre_text is not None:
                a = resolve_assertion(parse_assertion(stmt.pre_text), program, t_idx)
                check_vars(a, where)
                pre[stmt.label] = a
            if stmt.leaky_text is not None:
                a = resolve_assertion(parse_assertion(stmt.leaky_text), program, t_idx)
                check_vars(a, where)
                leaky[stmt.label] = a
        if thread.post_text is not None:
            a = resolve_assertion(parse_assertion(thread.post_text), program, t_idx)
            check_vars(a, f"{thread.name} post")
            posts[t_idx] = a

    if extra_pre:
        for loc, a in extra_pre.items():
            a = resolve_assertion(a, program, loc.thread)
            check_vars(a, program.location_str(loc))
            pre[loc] = a
    if extra_leaky:
        for loc, a in extra_leaky.items():
            a = resolve_assertion(a, program, loc.thread)
            check_vars(a, program.location_str(loc))
            leaky[loc] = a

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

@dataclass
class CaseResult:
    antecedent: Optional[Assertion]  # None for a bare (rule-free) assertion
    consequent: Optional[Assertion]
    satisfying_secrets: tuple
    excluded: dict[str, tuple]
    determinizes: bool
    consequent_holds: bool


@dataclass
class LeakinessVerdict:
    verdict: str  # "leaky" | "not-leaky" | "vacuous"
    witness: dict[str, tuple]  # secret name -> excluded values
    cases: list[CaseResult]
    complete: bool


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
                       init_public: Optional[semantics.Store] = None,
                       ) -> tuple[list[tuple], bool]:
    """Every distinct reachable state with control at ``loc``, plus a
    completeness flag.

    A state is a (store, snapshots, clock, secret valuation) tuple whose
    snapshots hold the arrivals at the locations in ``watch`` and at no
    others.  The states come from :func:`explorer.search`, which watches
    those locations and keeps the clock even when ``bounds`` is
    timing-blind; states that differ only in the steps used to reach them
    are listed once.
    """
    base = dict(program.initial_store())
    if init_public:
        base.update(init_public)
    bounds = replace(bounds, timing_blind=False)
    exit_loc = lang.exit_label(program, loc.thread)
    states: list[tuple] = []
    complete = True
    for valuation in (secret_domain or ((),)):
        store = dict(base)
        store.update(dict(valuation))
        at_loc: dict[tuple, None] = {}

        def record(key: tuple, config: semantics.Configuration, outcome) -> None:
            residue = config.residues[loc.thread]
            if (residue[0].label == loc) if residue else (loc == exit_loc):
                at_loc[(config.store, key[4], config.clock)] = None

        found = explorer.search(program, store, bounds, costs, frozenset(watch), record)
        complete = complete and found.complete
        states.extend((dict(s), found.arrivals(watched), clock, valuation)
                      for s, watched, clock in at_loc)
    return states, complete


def is_leaky_assertion(a: Assertion, loc: lang.LocationId, program: lang.Program,
                       secret_domain: Optional[tuple] = None,
                       bounds: explorer.ExploreBounds = explorer.ExploreBounds(),
                       costs: semantics.CostModel = semantics.CostModel(),
                       init_public: Optional[semantics.Store] = None,
                       tolerance: int = 0) -> LeakinessVerdict:
    """Does the assertion, where satisfiable at ``loc``, pin down a secret?

    For a plain assertion the test is over the reachable states at the
    location that satisfy it: leaky when the values some secret variable
    takes among them form a nonempty strict subset of its domain.  For a
    rule-form assertion (implications with secret-free antecedents and
    secret consequents) each case is tested the same way over the states
    satisfying its antecedent, and the case must also verify its own
    consequent; one determinizing case suffices.
    """
    if secret_domain is None:
        secret_domain = explorer.secret_domain_of(program)
    secrets = frozenset(program.secret_names())
    a = resolve_assertion(a, program, loc.thread)
    watch = frozenset(term.resolved for term in snapshot_terms(a))
    states, complete = states_at_location(
        program, loc, watch, secret_domain, bounds, costs, init_public)

    per_var_domain = {d.name: tuple(d.domain) for d in program.declarations if d.secret}

    def satisfying(pred: Assertion) -> list[tuple]:
        out = []
        for store, snaps, clock, valuation in states:
            try:
                ok = eval_assertion(pred, store, snaps, clock, tolerance)
            except SnapshotUndefined:
                continue
            if ok:
                out.append((store, snaps, clock, valuation))
        return out

    def analyse(sat_states: list[tuple]) -> tuple[dict, bool]:
        excluded: dict[str, tuple] = {}
        for name, domain in per_var_domain.items():
            seen = {store[name] for store, _, _, _ in sat_states}
            missing = tuple(v for v in domain if v not in seen)
            if seen and missing:
                excluded[name] = missing
        return excluded, bool(excluded)

    rules = decompose_rules(a, secrets)
    cases: list[CaseResult] = []
    if rules is None:
        sat = satisfying(a)
        excluded, determinizes = analyse(sat)
        cases.append(CaseResult(
            antecedent=None, consequent=None,
            satisfying_secrets=tuple(sorted({v for _, _, _, v in sat})),
            excluded=excluded, determinizes=bool(sat) and determinizes,
            consequent_holds=True))
    else:
        for rule in rules:
            sat = satisfying(rule.antecedent)
            excluded, determinizes = analyse(sat)
            holds = all(
                eval_assertion(rule.consequent, store, snaps, clock, tolerance)
                for store, snaps, clock, _ in sat)
            cases.append(CaseResult(
                antecedent=rule.antecedent, consequent=rule.consequent,
                satisfying_secrets=tuple(sorted({v for _, _, _, v in sat})),
                excluded=excluded,
                determinizes=bool(sat) and determinizes and holds,
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
