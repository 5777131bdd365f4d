"""Test-only reference: evaluate an assertion by walking its AST.

``assertions.compile_assertion`` is the evaluator leaklab uses; this is the
direct interpreter it replaced, kept only so that tests can compare the
two.  It checks at every boolean position that the value is a boolean,
where the compiled evaluator, which evaluates the expression part of an
assertion as a program expression, reads an int there as ``!= 0`` and
checks only the result.  The two agree on well-typed assertions, and this
one fails loudly on the rest.
"""

from __future__ import annotations

from leaklab import assertions as asrt
from leaklab import lang
from leaklab.errors import LeakLabError, SnapshotUndefined


def evaluate(a: asrt.Assertion, store: dict,
             snapshots: dict[lang.LocationId, tuple[int, ...]],
             clock: int, tolerance: int = 0) -> bool:
    """Raises :class:`SnapshotUndefined` when a referenced location has not
    been reached (distinct from evaluating to False)."""
    def term(x: lang.Expr, env: dict):
        if isinstance(x, asrt.ClockTerm):
            return clock
        if isinstance(x, asrt.SnapshotTerm):
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
        if isinstance(x, asrt.Implies):
            return (not go(x.antecedent, env)) or go(x.consequent, env)
        if isinstance(x, asrt.Approx):
            tol = term(x.tolerance, env) if x.tolerance is not None else tolerance
            return abs(term(x.left, env) - term(x.right, env)) <= tol
        if isinstance(x, asrt.Quantified):
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
