"""The concurrent while-language: AST, parser, location labelling, and the
one evaluator of expressions (:meth:`ExprLanguage.compile`).

A program is a list of variable declarations followed by one or more
``thread NAME { ... }`` blocks executed in parallel.  Statement bodies are
plain Python lists (sequencing carries no label of its own); every
executable or control statement carries a :class:`LocationId` that the
parser assigns as it reads the statement, in source order, and each thread
owns one exit label past its last, all computed once (:attr:`Program.locations`).

Proof-outline annotations (``{| ... |}`` before a statement, ``@leaky
{| ... |}`` markers, ``post {| ... |}`` after a thread block) are captured
here as raw text and parsed into assertion ASTs by
:mod:`leaklab.assertions`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .errors import LeakLabError, ParseError

INT = "int"
BOOL = "bool"

# Binary operators, in increasing precedence tiers; ``*`` alone binds tighter.
BOOL_OPS = ("or", "and")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
ADD_OPS = ("+", "-")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_MISSING = object()


class Field:
    """One field of a :func:`record` class, as ``name: type = field(...)``
    declares it."""

    __slots__ = ("name", "default", "default_factory", "kw_only", "compare")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 kw_only: bool = False, compare: bool = True) -> None:
        self.name: Optional[str] = None
        self.default, self.default_factory = default, default_factory
        self.kw_only, self.compare = kw_only, compare


field = Field


def _frozen_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _record_repr(self) -> str:
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__)
    return f"{self.__class__.__qualname__}({shown})"


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: the fields are those of the nearest record base, then
    the class's own annotated names.  Adds ``__init__`` (keyword-only fields
    after the others, then ``__post_init__`` if the class has one),
    ``__eq__`` (within one class, over the compared fields) and
    ``__repr__``.  A ``frozen`` record hashes the compared fields and
    refuses assignment; any other is unhashable.  ``__init__``, ``__eq__``
    and ``__hash__`` come from one source text per class."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    by_name = {f.name: f for f in getattr(cls, "__record_fields__", ())}
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            if value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
        else:
            value = Field(default=value)
        value.name = name
        by_name[name] = value
    env = {"_setattr": object.__setattr__, "_MISSING": _MISSING}
    params, kw_params, body = [], [], []
    for f in by_name.values():
        n = param = arg = f.name
        if f.default_factory is not _MISSING:
            env[f"_factory_{n}"] = f.default_factory
            param, arg = f"{n}=_MISSING", f"_factory_{n}() if {n} is _MISSING else {n}"
        elif f.default is not _MISSING:
            env[f"_default_{n}"] = f.default
            param = f"{n}=_default_{n}"
        (kw_params if f.kw_only else params).append(param)
        body.append(f"_setattr(self, {n!r}, {arg})" if frozen else f"self.{n} = {arg}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    compared = "".join(f"self.{f.name}," for f in by_name.values() if f.compare)
    source = [f"def __init__(self, {', '.join(params + ['*'] * bool(kw_params) + kw_params)}):",
              *(f" {line}" for line in body or ["pass"]),
              "def __eq__(self, other):",
              " if other.__class__ is self.__class__:",
              f"  return ({compared}) == ({compared.replace('self.', 'other.')})",
              " return NotImplemented"]
    if frozen:
        source += ["def __hash__(self):", f" return hash(({compared}))"]
    exec("\n".join(source), env)
    for name in ("__init__", "__eq__", "__hash__"):
        method = env.get(name)
        if method is not None:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__repr__ = _record_repr
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__record_fields__ = tuple(by_name.values())
    return cls


def fields(record_or_class) -> tuple[Field, ...]:
    """The fields of a :func:`record` class or instance, in order."""
    return record_or_class.__record_fields__


def replace(obj, /, **changes):
    """A new record of ``obj``'s class: ``changes`` over ``obj``'s fields."""
    for f in obj.__record_fields__:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@record(frozen=True)
class Expr:
    pass


@record(frozen=True)
class IntLit(Expr):
    value: int


@record(frozen=True)
class BoolLit(Expr):
    value: bool


@record(frozen=True)
class StrLit(Expr):
    """String literal; legal only as the argument of print."""

    value: str


@record(frozen=True)
class Var(Expr):
    name: str


@record(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "not"
    operand: Expr


@record(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Locations and statements
# ---------------------------------------------------------------------------

class LocationId(NamedTuple):
    """Control location: thread index plus statement index within the thread."""

    thread: int
    index: int

    def __str__(self) -> str:
        return f"l{self.index}"


@record(frozen=True)
class Stmt:
    """Base statement.  ``label`` is None only on a statement parsed alone
    (:func:`parse_statement`) or built outside the parser."""

    label: Optional[LocationId] = field(default=None, kw_only=True)
    pre_text: Optional[str] = field(default=None, kw_only=True)
    leaky_text: Optional[str] = field(default=None, kw_only=True)


@record(frozen=True)
class Skip(Stmt):
    pass


@record(frozen=True)
class Assign(Stmt):
    target: str
    value: Expr


@record(frozen=True)
class Print(Stmt):
    value: Expr


@record(frozen=True)
class Delay(Stmt):
    duration: Expr


@record(frozen=True)
class If(Stmt):
    guard: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...]


@record(frozen=True)
class While(Stmt):
    guard: Expr
    body: tuple["Stmt", ...]


@record(frozen=True)
class Await(Stmt):
    """Conditional critical region: guard test plus body fire as one action."""

    guard: Expr
    body: tuple["Stmt", ...]


@record(frozen=True)
class Decl:
    name: str
    type: str  # INT or BOOL
    security_label: str
    domain: Union[range, tuple]  # range(lo, hi + 1), or (False, True)
    init: Union[int, bool, None]  # None means the variable is secret
    secret: bool


@record(frozen=True)
class Thread:
    name: str
    body: tuple[Stmt, ...]
    post_text: Optional[str] = None


@record(frozen=True)
class Program:
    declarations: tuple[Decl, ...]
    threads: tuple[Thread, ...]
    ghosts: tuple[Decl, ...] = ()  # rigid logical constants for proof outlines

    def decl(self, name: str) -> Decl:
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)

    def secret_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.declarations if d.secret)

    def thread_index(self, name: str) -> int:
        for i, t in enumerate(self.threads):
            if t.name == name:
                return i
        raise KeyError(name)

    def initial_store(self) -> dict:
        """Declared initializers; secret variables are left out."""
        return {d.name: d.init for d in self.declarations if not d.secret}

    @functools.cached_property
    def locations(self) -> tuple[tuple[tuple, dict], ...]:
        """Per thread, its labels in pre-order, its exit label last, and the
        first statement at each label; computed on first read and kept."""
        found = []
        for t_idx, thread in enumerate(self.threads):
            stmts = list(iter_statements(thread.body))
            found.append(((*[s.label for s in stmts], LocationId(t_idx, len(stmts))),
                          {s.label: s for s in reversed(stmts)}))  # the first one wins
        return tuple(found)

    def labels_of_thread(self, thread: int) -> list[LocationId]:
        """All statement labels of a thread plus its exit label, in order."""
        return list(self.locations[thread][0])

    def statement_at(self, loc: LocationId) -> Optional[Stmt]:
        return self.locations[loc.thread][1].get(loc)

    def location_str(self, loc: LocationId) -> str:
        return f"{self.threads[loc.thread].name}.l{loc.index}"


def iter_statements(body: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Pre-order walk over a body, descending into branches and regions."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from iter_statements(s.then_body)
            yield from iter_statements(s.else_body)
        elif isinstance(s, (While, Await)):
            yield from iter_statements(s.body)


def exit_label(program: Program, thread: int) -> LocationId:
    return program.locations[thread][0][-1]


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

def free_vars(node: Union[Expr, Stmt, tuple]) -> frozenset[str]:
    """Exact syntactic variable support of an expression or statement."""
    if isinstance(node, tuple):
        out: frozenset[str] = frozenset()
        for s in node:
            out |= free_vars(s)
        return out
    if isinstance(node, (IntLit, BoolLit, StrLit)):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, UnaryOp):
        return free_vars(node.operand)
    if isinstance(node, BinOp):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Skip):
        return frozenset()
    if isinstance(node, Assign):
        return frozenset((node.target,)) | free_vars(node.value)
    if isinstance(node, Print):
        return free_vars(node.value)
    if isinstance(node, Delay):
        return free_vars(node.duration)
    if isinstance(node, If):
        return free_vars(node.guard) | free_vars(node.then_body) | free_vars(node.else_body)
    if isinstance(node, (While, Await)):
        return free_vars(node.guard) | free_vars(node.body)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Lexer (shared with the assertion sub-language)
# ---------------------------------------------------------------------------

KEYWORDS = {
    "var", "ghost", "int", "bool", "label", "secret", "thread", "post",
    "skip", "if", "then", "else", "while", "do", "await", "print", "delay",
    "true", "false", "and", "or", "not",
    "forall", "exists", "in", "approx",
}

TWO_CHAR = ("{|", "|}", "!=", "<=", ">=", "->", "..")
ONE_CHAR = "{}()[]=<>+-*;:,@."


@record(frozen=True)
class Token:
    kind: str  # "ident", "keyword", "int", "string", "sym", "annotation", "eof"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def error(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("{|", i):
            # Annotation block: capture raw text, parsed later as an assertion.
            start_line, start_col = line, col
            j = source.find("|}", i + 2)
            if j < 0:
                raise error("unterminated annotation block '{|'")
            text = source[i + 2:j]
            for c in source[i:j + 2]:
                if c == "\n":
                    line, col = line + 1, 1
                else:
                    col += 1
            tokens.append(Token("annotation", text.strip(), start_line, start_col))
            i = j + 2
            continue
        if ch == "'":
            j = source.find("'", i + 1)
            if j < 0 or "\n" in source[i + 1:j]:
                raise error("unterminated string literal")
            tokens.append(Token("string", source[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        matched = False
        for two in TWO_CHAR:
            if source.startswith(two, i):
                tokens.append(Token("sym", two, line, col))
                i += 2
                col += 2
                matched = True
                break
        if matched:
            continue
        if ch in ONE_CHAR:
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def error(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg, tok.line, tok.col)


# ---------------------------------------------------------------------------
# The expression language: parsing, typing, printing and evaluation
# ---------------------------------------------------------------------------

_PRECEDENCE = {"or": 1, "and": 2, "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4,
               ">=": 4, "+": 5, "-": 5, "*": 6}


class ExprLanguage:
    """Parser, type checker, printer and evaluator of expressions.

    The assertion language of :mod:`leaklab.assertions` subclasses it and
    adds its own forms.  Every method reaches the others through ``self``,
    so an overridden level takes effect wherever the expression levels
    recurse: inside parentheses, under ``not``, in operands.
    """

    noun = "expression"

    # Parsing: one method per precedence level, loosest first.

    def parse(self, ts: TokenStream) -> Expr:
        return self.parse_or(ts)

    def parse_or(self, ts: TokenStream) -> Expr:
        left = self.parse_and(ts)
        while ts.at("keyword", "or"):
            ts.next()
            left = BinOp("or", left, self.parse_and(ts))
        return left

    def parse_and(self, ts: TokenStream) -> Expr:
        left = self.parse_not(ts)
        while ts.at("keyword", "and"):
            ts.next()
            left = BinOp("and", left, self.parse_not(ts))
        return left

    def parse_not(self, ts: TokenStream) -> Expr:
        if ts.at("keyword", "not"):
            ts.next()
            return UnaryOp("not", self.parse_not(ts))
        return self.parse_cmp(ts)

    def parse_cmp(self, ts: TokenStream) -> Expr:
        left = self.parse_add(ts)
        if ts.at("sym") and ts.peek().text in CMP_OPS:
            op = ts.next().text
            return BinOp(op, left, self.parse_add(ts))
        return left

    def parse_add(self, ts: TokenStream) -> Expr:
        left = self.parse_mul(ts)
        while ts.at("sym") and ts.peek().text in ADD_OPS:
            op = ts.next().text
            left = BinOp(op, left, self.parse_mul(ts))
        return left

    def parse_mul(self, ts: TokenStream) -> Expr:
        left = self.parse_unary(ts)
        while ts.at("sym", "*"):
            ts.next()
            left = BinOp("*", left, self.parse_unary(ts))
        return left

    def parse_unary(self, ts: TokenStream) -> Expr:
        if ts.at("sym", "-"):
            ts.next()
            return UnaryOp("-", self.parse_unary(ts))
        return self.parse_atom(ts)

    def parse_atom(self, ts: TokenStream) -> Expr:
        tok = ts.peek()
        if tok.kind == "int":
            ts.next()
            return IntLit(int(tok.text))
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            ts.next()
            return BoolLit(tok.text == "true")
        if tok.kind == "ident":
            ts.next()
            return Var(tok.text)
        if tok.kind == "sym" and tok.text == "(":
            ts.next()
            inner = self.parse(ts)
            ts.expect("sym", ")")
            return inner
        raise ts.error(f"expected {self.noun}, found {tok.text!r}")

    # Typing: INT or BOOL ("string" for a print literal); ParseError if ill-typed.

    def type_of(self, e: Expr, decls: dict[str, Decl]) -> str:
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, StrLit):
            return "string"
        if isinstance(e, Var):
            return decls[e.name].type
        if isinstance(e, UnaryOp):
            want = INT if e.op == "-" else BOOL
            if self.type_of(e.operand, decls) != want:
                raise ParseError(f"operator {e.op!r} applied to {self.show(e.operand)}")
            return want
        if isinstance(e, BinOp):
            lt, rt = self.type_of(e.left, decls), self.type_of(e.right, decls)
            if e.op in BOOL_OPS:
                if lt != BOOL or rt != BOOL:
                    raise ParseError(f"boolean operator {e.op!r} on non-bool operands")
                return BOOL
            if e.op in ("=", "!="):
                if lt != rt:
                    raise ParseError(f"comparison {e.op!r} between {lt} and {rt}")
                return BOOL
            if e.op in ("<", "<=", ">", ">="):
                if lt != INT or rt != INT:
                    raise ParseError(f"ordering {e.op!r} on non-int operands")
                return BOOL
            if lt != INT or rt != INT:
                raise ParseError(f"arithmetic {e.op!r} on non-int operands")
            return INT
        raise TypeError(e)

    # Printing: parenthesize where the parent binds at least as tightly.

    def show(self, e: Expr, parent_prec: int = 0) -> str:
        if isinstance(e, IntLit):
            return str(e.value)
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, StrLit):
            return f"'{e.value}'"
        if isinstance(e, Var):
            return e.name
        if isinstance(e, UnaryOp):
            inner = self.show(e.operand, 7)
            text = f"-{inner}" if e.op == "-" else f"not {inner}"
            return f"({text})" if parent_prec >= 7 else text
        if isinstance(e, BinOp):
            prec = _PRECEDENCE[e.op]
            text = f"{self.show(e.left, prec - 1)} {e.op} {self.show(e.right, prec)}"
            return f"({text})" if parent_prec >= prec else text
        raise TypeError(e)

    # Evaluation: the one evaluator, compiled once into closures.

    def compile(self, e: Expr) -> Callable[[dict], Union[int, bool]]:
        """``e`` as a closure ``fn(store)``.

        Evaluation is strict; an unbound variable, a string literal outside
        print and a bool where an int is expected raise :class:`LeakLabError`.
        """
        if isinstance(e, (IntLit, BoolLit)):
            value = e.value
            return lambda store: value
        if isinstance(e, StrLit):
            def string(store):
                raise LeakLabError("string literal outside print")
            return string
        if isinstance(e, Var):
            name = e.name

            def var(store):
                try:
                    return store[name]
                except KeyError:
                    raise LeakLabError(f"variable {name!r} unbound") from None
            return var
        if isinstance(e, UnaryOp):
            inner = self.compile(e.operand)
            if e.op == "-":
                return lambda store: -_as_int(inner(store))
            return lambda store: not as_bool(inner(store))
        left, right = self.compile(e.left), self.compile(e.right)
        if e.op == "and":
            return lambda store: as_bool(left(store)) and as_bool(right(store))
        if e.op == "or":
            return lambda store: as_bool(left(store)) or as_bool(right(store))
        op = _OPS[e.op]
        if e.op in ("=", "!="):
            return lambda store: op(left(store), right(store))

        def on_ints(store):
            a, b = left(store), right(store)
            return op(a if type(a) is int else _as_int(a), b if type(b) is int else _as_int(b))
        return on_ints


_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge, "+": operator.add, "-": operator.sub,
        "*": operator.mul}


def _as_int(v: Union[int, bool]) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise LeakLabError(f"expected int, got {v!r}")
    return v


def as_bool(v: Union[int, bool]) -> bool:
    if isinstance(v, bool):
        return v
    return v != 0  # int guard means "value != 0"


EXPRESSIONS = ExprLanguage()
parse_expr = EXPRESSIONS.parse
expr_type = EXPRESSIONS.type_of
unparse_expr = EXPRESSIONS.show


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------

def parse_program(text: str) -> Program:
    """Parse source text into a labelled, validated Program."""
    ts = TokenStream(tokenize(text))
    decls: list[Decl] = []
    ghosts: list[Decl] = []
    while ts.at("keyword", "var") or ts.at("keyword", "ghost"):
        (ghosts if ts.at("keyword", "ghost") else decls).append(_parse_decl(ts))
    threads: list[Thread] = []
    while ts.at("keyword", "thread"):
        threads.append(_parse_thread(ts, len(threads)))
    tok = ts.peek()
    if tok.kind != "eof":
        raise ts.error(f"unexpected {tok.text!r} at top level")
    if not threads:
        raise ParseError("program has no threads", tok.line, tok.col)
    program = Program(tuple(decls), tuple(threads), tuple(ghosts))
    _validate(program)
    return program


def _parse_decl(ts: TokenStream) -> Decl:
    """``var NAME : TYPE [label L] = INIT;``, or ``ghost NAME : TYPE;``, a
    rigid logical constant with no label or initializer."""
    ghost = ts.next().text == "ghost"
    name = ts.expect("ident").text
    if name == "t":
        raise ts.error("'t' is reserved for the clock")
    ts.expect("sym", ":")
    if ts.at("keyword", "int"):
        ts.next()
        ts.expect("sym", "[")
        lo = int(ts.expect("int").text)
        ts.expect("sym", "..")
        hi = int(ts.expect("int").text)
        ts.expect("sym", "]")
        if hi < lo:
            raise ts.error(f"empty domain [{lo}..{hi}] for {name}")
        if hi - lo >= sys.maxsize:  # len() of a wider range overflows
            raise ts.error(f"domain [{lo}..{hi}] for {name} has too many values")
        vtype, domain = INT, range(lo, hi + 1)
    elif ts.at("keyword", "bool"):
        ts.next()
        vtype, domain = BOOL, (False, True)
    else:
        raise ts.error("expected type 'int[lo..hi]' or 'bool'")
    security = "low"
    if ghost:
        ts.expect("sym", ";")
        return Decl(name, vtype, security, domain, None, False)
    if ts.at("keyword", "label"):
        ts.next()
        tok = ts.peek()
        if tok.kind not in ("ident", "keyword"):
            raise ts.error("expected security label name")
        security = ts.next().text
    ts.expect("sym", "=")
    init: Union[int, bool, None]
    secret = False
    if ts.at("keyword", "secret"):
        ts.next()
        init, secret = None, True
    elif ts.at("int"):
        init = int(ts.next().text)
        if vtype != INT or init not in domain:
            raise ts.error(f"initializer {init} outside domain of {name}")
    elif ts.at("keyword", "true") or ts.at("keyword", "false"):
        init = ts.next().text == "true"
        if vtype != BOOL:
            raise ts.error(f"boolean initializer for int variable {name}")
    else:
        raise ts.error("expected initializer or 'secret'")
    ts.expect("sym", ";")
    return Decl(name, vtype, security, domain, init, secret)


def _parse_thread(ts: TokenStream, thread: int) -> Thread:
    ts.expect("keyword", "thread")
    name = ts.expect("ident").text
    body = _parse_block(ts, False, (LocationId(thread, i) for i in itertools.count()))
    post_text = None
    if ts.at("keyword", "post"):
        ts.next()
        post_text = ts.expect("annotation").text
    return Thread(name, body, post_text)


def _parse_block(ts: TokenStream, in_await: bool, labels: Iterator[Optional[LocationId]]
                 ) -> tuple[Stmt, ...]:
    ts.expect("sym", "{")
    stmts: list[Stmt] = []
    while not ts.at("sym", "}"):
        stmts.append(_parse_stmt(ts, in_await, labels))
    ts.expect("sym", "}")
    return tuple(stmts)


def _parse_stmt(ts: TokenStream, in_await: bool, labels: Iterator[Optional[LocationId]]
                ) -> Stmt:
    """One statement with its annotations and its closing ``;``.  Its label
    is the thread's next one, taken before its body's: labels run in
    source order, and only statements take one (sequencing is transparent)."""
    pre_text = leaky_text = None
    while True:
        if ts.at("annotation"):
            pre_text = ts.next().text
        elif ts.at("sym", "@"):
            at_tok = ts.next()
            marker = ts.expect("ident")
            if marker.text != "leaky":
                raise ParseError(f"unknown marker '@{marker.text}'", at_tok.line, at_tok.col)
            leaky_text = ts.expect("annotation").text
        else:
            break
    stmt = _parse_bare_stmt(ts, in_await, labels,
                            dict(label=next(labels), pre_text=pre_text, leaky_text=leaky_text))
    ts.expect("sym", ";")
    return stmt


def parse_statement(text: str) -> Stmt:
    """Parse text holding exactly one statement, without its closing ``;``;
    it has no label."""
    ts = TokenStream(tokenize(text))
    stmt = _parse_bare_stmt(ts, False, itertools.repeat(None), {})
    ts.expect("eof")
    return stmt


def _parse_bare_stmt(ts: TokenStream, in_await: bool, labels: Iterator[Optional[LocationId]],
                     marks: dict) -> Stmt:
    """A statement without its annotations and its ``;``, built with
    ``marks``, its label and annotation fields, as keywords."""
    tok = ts.peek()
    if ts.at("keyword", "skip"):
        ts.next()
        return Skip(**marks)
    if ts.at("keyword", "print"):
        ts.next()
        ts.expect("sym", "(")
        if ts.at("string"):
            value: Expr = StrLit(ts.next().text)
        else:
            value = parse_expr(ts)
        ts.expect("sym", ")")
        return Print(value, **marks)
    if ts.at("keyword", "delay"):
        ts.next()
        ts.expect("sym", "(")
        duration = parse_expr(ts)
        ts.expect("sym", ")")
        return Delay(duration, **marks)
    if ts.at("keyword", "if"):
        ts.next()
        guard = parse_expr(ts)
        ts.expect("keyword", "then")
        then_body = _parse_block(ts, in_await, labels)
        else_body: tuple[Stmt, ...] = ()
        if ts.at("keyword", "else"):
            ts.next()
            else_body = _parse_block(ts, in_await, labels)
        return If(guard, then_body, else_body, **marks)
    if ts.at("keyword", "while"):
        ts.next()
        guard = parse_expr(ts)
        ts.expect("keyword", "do")
        return While(guard, _parse_block(ts, in_await, labels), **marks)
    if ts.at("keyword", "await"):
        if in_await:
            raise ParseError("nested await rejected", tok.line, tok.col)
        ts.next()
        guard = parse_expr(ts)
        ts.expect("keyword", "then")
        return Await(guard, _parse_block(ts, True, labels), **marks)
    if ts.at("ident"):
        target = ts.next().text
        ts.expect("sym", "=")
        value = parse_expr(ts)
        return Assign(target, value, **marks)
    raise ts.error(f"expected statement, found {tok.text!r}")


def _validate(program: Program) -> None:
    seen: dict[str, Decl] = {}
    for d in program.declarations + program.ghosts:
        if d.name in seen:
            raise ParseError(f"duplicate declaration of {d.name!r}")
        seen[d.name] = d
    seen = {d.name: d for d in program.declarations}
    names: set[str] = set()
    for t in program.threads:
        if t.name in names:
            raise ParseError(f"duplicate thread name {t.name!r}")
        names.add(t.name)
    for t in program.threads:
        for s in iter_statements(t.body):
            for v in free_vars(s):
                if v not in seen:
                    raise ParseError(f"undeclared variable {v!r} in thread {t.name}")
            _typecheck_stmt(s, seen)


def _typecheck_stmt(s: Stmt, decls: dict[str, Decl]) -> None:
    if isinstance(s, Assign):
        vt = expr_type(s.value, decls)
        if vt != decls[s.target].type:
            raise ParseError(f"assigning {vt} value to {decls[s.target].type} variable {s.target!r}")
    elif isinstance(s, Print):
        expr_type(s.value, decls)
    elif isinstance(s, Delay):
        if expr_type(s.duration, decls) != INT:
            raise ParseError("delay duration must be an int expression")
    elif isinstance(s, (If, While, Await)):
        # Guards may be bool or int; an int guard means "value != 0".
        gt = expr_type(s.guard, decls)
        if gt not in (BOOL, INT):
            raise ParseError("guard must be bool or int")


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

def unparse(program: Program, show_labels: bool = False) -> str:
    """Canonical source form; with show_labels=True, prefix locations."""
    lines: list[str] = []
    for d in program.declarations:
        if d.type == INT:
            ty = f"int[{d.domain[0]}..{d.domain[-1]}]"
        else:
            ty = "bool"
        init = "secret" if d.secret else (
            str(d.init) if d.type == INT else ("true" if d.init else "false"))
        lines.append(f"var {d.name} : {ty} label {d.security_label} = {init};")
    for g in program.ghosts:
        ty = f"int[{g.domain[0]}..{g.domain[-1]}]" if g.type == INT else "bool"
        lines.append(f"ghost {g.name} : {ty};")
    for t_idx, t in enumerate(program.threads):
        lines.append("")
        lines.append(f"thread {t.name} {{")
        _unparse_body(t.body, lines, indent=1, show_labels=show_labels)
        if show_labels:
            lines.append(f"  l{exit_label(program, t_idx).index}:")
        close = "}"
        if t.post_text is not None:
            close += f" post {{| {t.post_text} |}}"
        lines.append(close)
    return "\n".join(lines) + "\n"


def _unparse_body(body: tuple[Stmt, ...], lines: list[str], indent: int,
                  show_labels: bool) -> None:
    pad = "  " * indent
    for s in body:
        if s.pre_text is not None:
            lines.append(f"{pad}{{| {s.pre_text} |}}")
        if s.leaky_text is not None:
            lines.append(f"{pad}@leaky {{| {s.leaky_text} |}}")
        tag = f"l{s.label.index}: " if show_labels and s.label is not None else ""
        if isinstance(s, Skip):
            lines.append(f"{pad}{tag}skip;")
        elif isinstance(s, Assign):
            lines.append(f"{pad}{tag}{s.target} = {unparse_expr(s.value)};")
        elif isinstance(s, Print):
            lines.append(f"{pad}{tag}print({unparse_expr(s.value)});")
        elif isinstance(s, Delay):
            lines.append(f"{pad}{tag}delay({unparse_expr(s.duration)});")
        elif isinstance(s, If):
            lines.append(f"{pad}{tag}if {unparse_expr(s.guard)} then {{")
            _unparse_body(s.then_body, lines, indent + 1, show_labels)
            if s.else_body:
                lines.append(f"{pad}}} else {{")
                _unparse_body(s.else_body, lines, indent + 1, show_labels)
            lines.append(f"{pad}}};")
        elif isinstance(s, While):
            lines.append(f"{pad}{tag}while {unparse_expr(s.guard)} do {{")
            _unparse_body(s.body, lines, indent + 1, show_labels)
            lines.append(f"{pad}}};")
        elif isinstance(s, Await):
            lines.append(f"{pad}{tag}await {unparse_expr(s.guard)} then {{")
            _unparse_body(s.body, lines, indent + 1, show_labels)
            lines.append(f"{pad}}};")
        else:
            raise TypeError(s)
