"""Abstract syntax, S-expression reader/printer, and term utilities.

The term language is a lambda calculus with explicitly annotated binders,
integer and boolean literals, a fixed set of primitive operations, and a
three-armed conditional.  Types include a top type, numbers, singleton
booleans, latent-predicate arrows, finite untagged unions, and refinements
of a base type by a built-in predicate.

Types are hash-consed: a live type is the only object of its structure, so
types are equal exactly when identical and hash in O(1).  The table of live
types holds them weakly.  Every type is built in normal form: a union's
members are flattened and deduplicated, first occurrences kept in order,
and a one-member union is that member.  So two spellings of a type, such
as (U Number (U Number Boolean)) and (U Number Boolean), are one object,
and the reader and printer deal in normal forms only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from weakref import WeakValueDictionary


class Constant(Enum):
    """The seven built-in operations; there are no user-defined constants."""

    ADD1 = "add1"
    NOT = "not"
    NUMBER_P = "number?"
    BOOLEAN_P = "boolean?"
    PROCEDURE_P = "procedure?"
    EVEN_P = "even?"
    ODD_P = "odd?"


CONSTANT_BY_NAME = {c.value: c for c in Constant}


# ---------------------------------------------------------------------------
# Types


class _HashConsed(type):
    live: WeakValueDictionary = WeakValueDictionary()

    def __call__(cls, *fields):
        # A live twin is returned without running the initialiser again.  A
        # missing trailing field is Arrow's latent, None.
        key = (cls, *fields, *(None,) * (len(cls.__match_args__) - len(fields)))
        t = _HashConsed.live.get(key)
        if t is None:
            if cls is UnionT:
                # Only normal forms are keys, so a miss may be a respelling.
                # Members are normal, so one level of flattening suffices.
                members = tuple(dict.fromkeys(
                    n for m in fields[0] for n in (m.members if isinstance(m, UnionT) else (m,))))
                if len(members) == 1:
                    return members[0]
                if members != fields[0]:
                    return UnionT(members)
            t = _HashConsed.live[key] = super().__call__(*fields)
        return t


class Type(metaclass=_HashConsed):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class TopT(Type):
    pass


@dataclass(frozen=True, eq=False)
class NumT(Type):
    pass


@dataclass(frozen=True, eq=False)
class TrueT(Type):
    pass


@dataclass(frozen=True, eq=False)
class FalseT(Type):
    pass


@dataclass(frozen=True, eq=False)
class Arrow(Type):
    arg: Type
    res: Type
    latent: Type | None = None  # None means "not a predicate"


@dataclass(frozen=True, eq=False)
class UnionT(Type):
    members: tuple[Type, ...]


@dataclass(frozen=True, eq=False)
class Refine(Type):
    """The values of the predicate's own argument type that pass it."""

    pred: Constant


TOP = TopT()
NUM = NumT()
TRUE_T = TrueT()
FALSE_T = FalseT()
BOOLEAN = UnionT((TRUE_T, FALSE_T))
BOT = UnionT(())


# ---------------------------------------------------------------------------
# Visible predicates


class Pred:
    __slots__ = ()


@dataclass(frozen=True)
class TypeOfPred(Pred):
    """The test is true exactly when `var` holds a value of `type`."""

    type: Type
    var: str


@dataclass(frozen=True)
class VarPred(Pred):
    """The test is true exactly when `var` is not #f."""

    var: str


@dataclass(frozen=True)
class TruePred(Pred):
    pass


@dataclass(frozen=True)
class FalsePred(Pred):
    pass


@dataclass(frozen=True)
class NonePred(Pred):
    pass


TT = TruePred()
FF = FalsePred()
NONE_PRED = NonePred()


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Num(Expr):
    value: int


@dataclass(frozen=True)
class Bool(Expr):
    value: bool


@dataclass(frozen=True)
class Const(Expr):
    c: Constant


@dataclass(frozen=True)
class Abs(Expr):
    param: str
    annot: Type
    body: Expr


@dataclass(frozen=True)
class App(Expr):
    rator: Expr
    rand: Expr


@dataclass(frozen=True)
class If(Expr):
    test: Expr
    then: Expr
    els: Expr


def is_value(e: Expr) -> bool:
    return isinstance(e, (Num, Bool, Const, Abs))


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if not isinstance(e, (Abs, App, If)):
        return frozenset()
    free: set[str] = set()
    bound: dict[str, int] = {}  # binder name -> number of enclosing binders
    stack: list[Expr | str] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, str):  # leaving the scope of binder `node`
            bound[node] -= 1
        elif isinstance(node, Var):
            if not bound.get(node.name):
                free.add(node.name)
        elif isinstance(node, Abs):
            bound[node.param] = bound.get(node.param, 0) + 1
            stack += (node.param, node.body)
        elif isinstance(node, App):
            stack += (node.rand, node.rator)
        elif isinstance(node, If):
            stack += (node.els, node.then, node.test)
    return frozenset(free)


def substitute(body: Expr, x: str, v: Expr) -> Expr:
    """Replace free occurrences of `x` in `body` with the closed value `v`."""
    if free_vars(v):
        raise ValueError(f"substitute: replacement term is not closed: {print_expr(v)}")

    def go(e: Expr) -> Expr:
        match e:
            case Var(name):
                return v if name == x else e
            case Abs(param, annot, b):
                if param == x:  # shadowed
                    return e
                return Abs(param, annot, go(b))
            case App(rator, rand):
                return App(go(rator), go(rand))
            case If(test, then, els):
                return If(go(test), go(then), go(els))
            case _:
                return e

    return go(body)


# ---------------------------------------------------------------------------
# Reader


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


RESERVED_WORDS = {
    "lambda", "if", "U", "->", "Refinement", "declare-refinement",
    "Top", "Number", "True", "False", "Boolean", "Bot",
}

# A comment (to end of line, group empty) or a token: "(", ")", ":" or an
# atom.  Whitespace between matches is skipped.
_TOKEN = re.compile(r";[^\n]*|([():]|[^\s():;]+)")


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, then "" for the end of input."""
    toks = list(filter(None, _TOKEN.findall(text)))
    toks.append("")
    return toks


def _position(text: str, i: int) -> tuple[int, int]:
    """Line and column of token `i` of `_tokenize(text)`.  The end of input
    after a comment that runs to the end is at the comment's start."""
    offsets = [m.start(1) for m in _TOKEN.finditer(text) if m.group(1)]
    if i < len(offsets):
        off = offsets[i]
    else:
        line_start = text.rfind("\n") + 1
        comment = text.find(";", line_start)
        off = comment if comment >= 0 else len(text)
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


_INT_CHARS = set("0123456789")


def _is_integer(atom: str) -> bool:
    digits = atom[1:] if atom[:1] in "+-" else atom
    return bool(digits) and set(digits) <= _INT_CHARS


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.last = 0  # index of the token `next` returned last

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        i = self.last = self.pos
        tok = self.toks[i]
        if tok:
            self.pos = i + 1
        return tok

    def fail(self, message: str, last: bool = False):
        """Raise at the token `next` returned last, or else at the next one."""
        i = self.last if last else self.pos
        shown = self.toks[i] or "<end of input>"
        raise ParseError(f"{message} (got {shown!r})", *_position(self.text, i))

    def expect(self, text: str):
        if self.next() != text:
            self.fail(f"expected {text!r}", last=True)

    def expect_end(self):
        if self.peek():
            self.fail("expected end of input")

    # -- expressions

    def read_expr(self) -> Expr:
        tok = self.next()
        if tok == "(":
            head = self.peek()
            if head == "lambda":
                self.next()
                self.expect("(")
                param = self.read_ident()
                self.expect(":")
                annot = self.read_type()
                self.expect(")")
                body = self.read_expr()
                self.expect(")")
                return Abs(param, annot, body)
            if head == "if":
                self.next()
                test = self.read_expr()
                then = self.read_expr()
                els = self.read_expr()
                self.expect(")")
                return If(test, then, els)
            rator = self.read_expr()
            rand = self.read_expr()
            self.expect(")")
            return App(rator, rand)
        return self.read_atom_expr(tok)

    def read_atom_expr(self, atom: str) -> Expr:
        if not atom or atom in "():":
            self.fail("expected an expression", last=True)
        if _is_integer(atom):
            return Num(int(atom))
        if atom == "#t":
            return Bool(True)
        if atom == "#f":
            return Bool(False)
        if atom in CONSTANT_BY_NAME:
            return Const(CONSTANT_BY_NAME[atom])
        if atom.startswith("#"):
            self.fail("unknown # literal", last=True)
        if atom in RESERVED_WORDS:
            self.fail("reserved word used as a variable", last=True)
        return Var(atom)

    def read_ident(self) -> str:
        atom = self.next()
        if not atom or atom in "():":
            self.fail("expected an identifier", last=True)
        if atom in RESERVED_WORDS or atom in CONSTANT_BY_NAME or atom.startswith("#") or _is_integer(atom):
            self.fail("expected an identifier", last=True)
        return atom

    # -- types

    def read_type(self) -> Type:
        tok = self.next()
        if tok == "(":
            head = self.next()
            if head == "U":
                members: list[Type] = []
                while self.peek() not in (")", ""):
                    members.append(self.read_type())
                self.expect(")")
                return UnionT(tuple(members))
            if head == "->":
                arg = self.read_type()
                res = self.read_type()
                latent = None
                if self.peek() == ":":
                    self.next()
                    latent = self.read_type()
                self.expect(")")
                return Arrow(arg, res, latent)
            if head == "Refinement":
                c = CONSTANT_BY_NAME.get(self.next())
                if c is None:
                    self.fail("unknown constant in Refinement type", last=True)
                self.expect(")")
                return Refine(c)
            self.fail("expected U, -> or Refinement", last=True)
        if tok == "Top":
            return TOP
        if tok == "Number":
            return NUM
        if tok == "True":
            return TRUE_T
        if tok == "False":
            return FALSE_T
        if tok == "Boolean":
            return BOOLEAN
        if tok == "Bot":
            return BOT
        self.fail("expected a type", last=True)

    # -- predicates

    def read_pred(self) -> Pred:
        tok = self.peek()
        if tok == "tt":
            self.next()
            return TT
        if tok == "ff":
            self.next()
            return FF
        if tok == "none":
            self.next()
            return NONE_PRED
        # A lone identifier is a variable predicate; otherwise a type
        # followed by "@ x".
        if (tok not in ("(", ")", ":", "")
                and self.toks[self.pos + 1] == ""
                and tok not in RESERVED_WORDS
                and tok not in CONSTANT_BY_NAME
                and not tok.startswith("#")
                and not _is_integer(tok)
                and tok != "@"):
            self.next()
            return VarPred(tok)
        t = self.read_type()
        self.expect("@")
        return TypeOfPred(t, self.read_ident())


def parse_expr(text: str) -> Expr:
    r = _Reader(text)
    e = r.read_expr()
    r.expect_end()
    return e


def parse_type(text: str) -> Type:
    r = _Reader(text)
    t = r.read_type()
    r.expect_end()
    return t


def parse_pred(text: str) -> Pred:
    r = _Reader(text)
    p = r.read_pred()
    r.expect_end()
    return p


def parse_program(text: str) -> tuple[tuple[Constant, ...], Expr]:
    """A program is zero or more (declare-refinement c) forms, then one
    expression."""
    r = _Reader(text)
    decls: list[Constant] = []
    while (r.peek() == "(" and r.toks[r.pos + 1] == "declare-refinement"):
        r.next()
        r.next()
        c = CONSTANT_BY_NAME.get(r.next())
        if c is None:
            r.fail("unknown constant in declare-refinement", last=True)
        r.expect(")")
        decls.append(c)
    e = r.read_expr()
    r.expect_end()
    return tuple(decls), e


# ---------------------------------------------------------------------------
# Printer


def print_type(t: Type) -> str:
    match t:
        case TopT():
            return "Top"
        case NumT():
            return "Number"
        case TrueT():
            return "True"
        case FalseT():
            return "False"
        case UnionT(members):
            if members == ():
                return "Bot"
            if members == (TRUE_T, FALSE_T):
                return "Boolean"
            parts = []
            i = 0
            while i < len(members):
                if members[i] == TRUE_T and i + 1 < len(members) and members[i + 1] == FALSE_T:
                    parts.append("Boolean")
                    i += 2
                else:
                    parts.append(print_type(members[i]))
                    i += 1
            return "(U " + " ".join(parts) + ")"
        case Arrow(arg, res, latent):
            if latent is None:
                return f"(-> {print_type(arg)} {print_type(res)})"
            return f"(-> {print_type(arg)} {print_type(res)} : {print_type(latent)})"
        case Refine(c):
            return f"(Refinement {c.value})"
    raise TypeError(f"not a type: {t!r}")


def print_pred(p: Pred) -> str:
    match p:
        case TypeOfPred(t, x):
            return f"{print_type(t)} @ {x}"
        case VarPred(x):
            return x
        case TruePred():
            return "tt"
        case FalsePred():
            return "ff"
        case NonePred():
            return "none"
    raise TypeError(f"not a predicate: {p!r}")


def print_expr(e: Expr) -> str:
    match e:
        case Var(name):
            return name
        case Num(value):
            return str(value)
        case Bool(value):
            return "#t" if value else "#f"
        case Const(c):
            return c.value
        case Abs(param, annot, body):
            return f"(lambda ({param} : {print_type(annot)}) {print_expr(body)})"
        case App(rator, rand):
            return f"({print_expr(rator)} {print_expr(rand)})"
        case If(test, then, els):
            return f"(if {print_expr(test)} {print_expr(then)} {print_expr(els)})"
    raise TypeError(f"not an expression: {e!r}")
