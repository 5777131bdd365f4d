"""Test-only reference: expressions evaluated by walking their AST.

This is ``semantics.eval_expr`` as it was before expressions were compiled
into closures.  The compiled evaluator is now ``lang.ExprLanguage.compile``,
which assertions extend and ``semantics.compile_expr`` calls, so comparing
against this interpreter checks the evaluation of program expressions and
of the expression part of assertions alike.  It dispatches on the node type
at every visit, which is slow on purpose; it is kept only so that tests can
compare the compiled evaluator against it, on values and on errors.
"""

from __future__ import annotations

from leaklab import lang
from leaklab.errors import LeakLabError


def eval_expr(e: lang.Expr, store: dict):
    """Strict evaluation; total on stores covering the expression's support."""
    if isinstance(e, lang.IntLit):
        return e.value
    if isinstance(e, lang.BoolLit):
        return e.value
    if isinstance(e, lang.StrLit):
        raise LeakLabError("string literal outside print")
    if isinstance(e, lang.Var):
        try:
            return store[e.name]
        except KeyError:
            raise LeakLabError(f"variable {e.name!r} unbound") from None
    if isinstance(e, lang.UnaryOp):
        v = eval_expr(e.operand, store)
        if e.op == "-":
            return -_as_int(v)
        return not _as_bool(v)
    if isinstance(e, lang.BinOp):
        left = eval_expr(e.left, store)
        if e.op == "and":
            return _as_bool(left) and _as_bool(eval_expr(e.right, store))
        if e.op == "or":
            return _as_bool(left) or _as_bool(eval_expr(e.right, store))
        right = eval_expr(e.right, store)
        if e.op == "=":
            return left == right
        if e.op == "!=":
            return left != right
        if e.op == "<":
            return _as_int(left) < _as_int(right)
        if e.op == "<=":
            return _as_int(left) <= _as_int(right)
        if e.op == ">":
            return _as_int(left) > _as_int(right)
        if e.op == ">=":
            return _as_int(left) >= _as_int(right)
        if e.op == "+":
            return _as_int(left) + _as_int(right)
        if e.op == "-":
            return _as_int(left) - _as_int(right)
        if e.op == "*":
            return _as_int(left) * _as_int(right)
    raise TypeError(e)


def eval_guard(e: lang.Expr, store: dict) -> bool:
    return _as_bool(eval_expr(e, store))


def _as_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise LeakLabError(f"expected int, got {v!r}")
    return v


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    return v != 0  # int guard means "value != 0"
