"""Test-only reader for the SMT-LIB subset ``proofs.emit_smtlib`` writes.

It decides a script by bounded enumeration, so that tests can check the
emitter without an SMT solver.  The subset:

* commands ``set-logic`` (ignored), ``declare-const`` of ``Int`` or
  ``Bool``, ``assert`` and one final ``check-sat``;
* terms: integer literals, ``true``, ``false``, constants, ``and``, ``or``,
  ``not``, ``=>``, ``=``, ``distinct``, ``abs``, ``+``, ``-``, ``*`` and
  ``< <= > >=``.

An assertion ``(= c e)`` whose ``e`` names only constants declared before
``c`` defines ``c``: its value is computed, not enumerated, and a ``Bool``
so defined must still be false or true.  Every other constant is
enumerated over a box: a ``Bool`` is false or true, and an ``Int`` takes
the bounds that top-level assertions ``(>= c k)`` and ``(<= c k)`` give
it.  A side left open is closed at ``n * (2L + 1)``, with ``n`` the number
of open sides and ``L`` the largest literal of the script; the least
solutions of difference constraints lie inside.

Every assertion must be a well-sorted ``Bool`` term: ``and``, ``or``,
``not`` and ``=>`` take ``Bool``s, arithmetic and ``< <= > >=`` take
``Int``s, and ``=`` and ``distinct`` take terms of one sort.  A script
that breaks this raises, as a solver would reject it; only then is a
term evaluated as a Python value, where False and True compare equal to
0 and 1.
"""

from __future__ import annotations

import re
from typing import Optional

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_INFIX = ("<", "<=", ">", ">=", "*", "+")


def parse(text: str) -> list:
    """The script's commands as nested lists of atoms."""
    tokens = _TOKEN.findall("\n".join(line.split(";", 1)[0] for line in text.splitlines()))
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return stack[0]


def _consts(term, declared: dict) -> set[str]:
    if isinstance(term, str):
        return {term} if term in declared else set()
    return set().union(*(_consts(t, declared) for t in term[1:]))


def _literals(term) -> list[int]:
    if isinstance(term, str):
        return [abs(int(term))] if term.isdigit() else []
    return [n for t in term for n in _literals(t)]


def _py(term, names: dict[str, str]) -> str:
    """``term`` as a Python expression over the variables in ``names``."""
    if isinstance(term, str):
        if term in names:
            return names[term]
        if term in ("true", "false"):
            return str(term == "true")
        if term.isdigit():
            return term
        raise ValueError(f"unknown symbol {term!r}")
    op, *args = term
    parts = [_py(a, names) for a in args]
    if op in ("and", "or"):
        return "(" + f" {op} ".join(parts) + ")" if parts else str(op == "and")
    if op == "not":
        return f"(not {parts[0]})"
    if op == "=>":
        return f"((not {parts[0]}) or {parts[1]})"
    if op == "abs":
        return f"abs({parts[0]})"
    if op == "-":
        return f"(-{parts[0]})" if len(parts) == 1 else "(" + " - ".join(parts) + ")"
    if op == "=":
        return "(" + " == ".join(parts) + ")"
    if op == "distinct":
        pairs = [f"{a} != {b}" for i, a in enumerate(parts) for b in parts[i + 1:]]
        return "(" + " and ".join(pairs) + ")"
    if op in _INFIX and len(parts) >= 2:
        return "(" + f" {op} ".join(parts) + ")"
    raise ValueError(f"unsupported operator {op!r}")


def _sort(term, declared: dict[str, str]) -> str:
    """The sort of ``term``; raises on an ill-sorted one."""
    if isinstance(term, str):
        if term in declared:
            return declared[term]
        if term in ("true", "false"):
            return "Bool"
        if term.isdigit():
            return "Int"
        raise ValueError(f"unknown symbol {term!r}")
    op, *args = term
    sorts = [_sort(a, declared) for a in args]
    if op in ("and", "or", "not", "=>"):
        want, result = "Bool", "Bool"
    elif op in ("=", "distinct"):
        want, result = sorts[0] if sorts else "Int", "Bool"
    elif op in ("<", "<=", ">", ">="):
        want, result = "Int", "Bool"
    elif op in ("abs", "+", "-", "*"):
        want, result = "Int", "Int"
    else:
        raise ValueError(f"unsupported operator {op!r}")
    if any(s != want for s in sorts):
        raise ValueError(f"ill-sorted term {term!r}: {op!r} on {', '.join(sorts)}")
    return result


def _conjuncts(term) -> list:
    if isinstance(term, list) and term and term[0] == "and":
        return [c for t in term[1:] for c in _conjuncts(t)]
    return [term]


def decide(text: str) -> tuple[str, Optional[dict]]:
    """``("sat", model)`` or ``("unsat", None)`` within the box."""
    declared: dict[str, str] = {}
    asserts: list = []
    commands = parse(text)
    if not commands or commands[-1] != ["check-sat"]:
        raise ValueError("the script must end with one check-sat")
    for cmd in commands[:-1]:
        if cmd[0] == "set-logic":
            continue
        if cmd[0] == "declare-const" and len(cmd) == 3 and cmd[2] in ("Int", "Bool"):
            declared[cmd[1]] = cmd[2]
        elif cmd[0] == "assert" and len(cmd) == 2:
            if _sort(cmd[1], declared) != "Bool":
                raise ValueError(f"asserting a non-Bool term {cmd[1]!r}")
            asserts.extend(_conjuncts(cmd[1]))
        else:
            raise ValueError(f"unsupported command {cmd!r}")

    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    for a in asserts:
        if (isinstance(a, list) and len(a) == 3 and a[0] in (">=", "<=")
                and isinstance(a[1], str) and declared.get(a[1]) == "Int"
                and isinstance(a[2], str) and a[2].isdigit()):
            (lo if a[0] == ">=" else hi)[a[1]] = int(a[2])
    definitions: dict[str, list] = {}  # constant -> its defining assertion
    known: set[str] = set()
    for name in declared:
        for a in asserts:
            if (isinstance(a, list) and a[0] == "=" and len(a) == 3 and a[1] == name
                    and name not in _consts(a[2], declared)
                    and _consts(a[2], declared) <= known):
                definitions[name] = a
                break
        known.add(name)
    free_ints = [n for n in declared if declared[n] == "Int" and n not in definitions]
    literal = max((n for a in asserts for n in _literals(a)), default=0)
    reach = sum((n not in lo) + (n not in hi) for n in free_ints) * (2 * literal + 1)

    # One nested loop per enumerated constant; each assertion is checked as
    # soon as its constants are known.  The outer one-pass loop lets every
    # failed check be a ``continue``.
    names = {n: f"c{i}" for i, n in enumerate(declared)}
    pending = [a for a in asserts if not any(a is d for d in definitions.values())]
    lines = ["def search():", "    for _ in (None,):"]
    indent = "        "
    ready: set[str] = set()
    for name in [None, *declared]:
        if name is not None:
            var = names[name]
            if name in definitions:
                lines.append(f"{indent}{var} = {_py(definitions[name][2], names)}")
                if declared[name] == "Bool":
                    lines.append(f"{indent}if {var} not in (False, True): continue")
            elif declared[name] == "Bool":
                lines.append(f"{indent}for {var} in (False, True):")
                indent += "    "
            else:
                lines.append(f"{indent}for {var} in range({lo.get(name, -reach)}, "
                             f"{hi.get(name, reach) + 1}):")
                indent += "    "
            ready.add(name)
        for a in [a for a in pending if _consts(a, declared) <= ready]:
            lines.append(f"{indent}if not {_py(a, names)}: continue")
            pending.remove(a)
    model = ", ".join(f"{n!r}: {names[n]}" for n in declared)
    lines += [f"{indent}return {{{model}}}", "    return None"]
    scope: dict = {}
    exec("\n".join(lines), scope)
    found = scope["search"]()
    return ("sat", found) if found is not None else ("unsat", None)
