"""Abstract syntax, the δ rules of the constants, S-expression
reader/printer, and term utilities.

The term language is a lambda calculus with explicitly annotated binders,
integer and boolean literals, a fixed set of primitive operations, and a
three-armed conditional.  Types are the atoms Top, Number, True and
False (the singleton booleans), latent-predicate arrows, finite untagged
unions, and refinements of a base type by a built-in predicate; Boolean
and Bot are the unions (U True False) and (U).  An atom, and each of the
visible predicates tt, ff and none, is one named constant of its class.

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
import sys
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
    pass


@dataclass(frozen=True, eq=False)
class AtomT(Type):
    """A type named by one word.  Its instances are the four constants
    below, so a test for one is identity with its constant."""

    name: str


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


TOP = AtomT("Top")
NUM = AtomT("Number")
TRUE_T = AtomT("True")
FALSE_T = AtomT("False")
BOOLEAN = UnionT((TRUE_T, FALSE_T))
BOT = UnionT(())


# ---------------------------------------------------------------------------
# Visible predicates


class Pred:
    pass


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
class AtomPred(Pred):
    """A predicate named by one word: tt (the test is true), ff (it is
    false) or none (nothing is known).  Its instances are the three
    constants below, so a test for one is identity with its constant."""

    name: str


TT = AtomPred("tt")
FF = AtomPred("ff")
NONE_PRED = AtomPred("none")


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    """A term.  `==` and `hash` are structural and walk an explicit stack,
    so terms of any depth compare; annotations, being hash-consed types,
    compare by identity.  `repr` is the call that reads the term back, so
    it takes any depth as `print_expr` does."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            cls = a.__class__
            if cls is not b.__class__:
                return False
            if cls is App:
                todo += ((a.rand, b.rand), (a.rator, b.rator))
            elif cls is If:
                todo += ((a.els, b.els), (a.then, b.then), (a.test, b.test))
            elif cls is Abs:
                if a.param != b.param or a.annot is not b.annot:
                    return False
                todo.append((a.body, b.body))
            elif a.__dict__ != b.__dict__:
                return False
        return True

    def __hash__(self):
        def node(x, kids):
            own = (x.param, x.annot) if x.__class__ is Abs else ()
            return hash((x.__class__, *own, *kids))

        return fold(self, lambda x: hash((x.__class__, *x.__dict__.values())), node)

    def __repr__(self):
        return f"parse_expr({print_expr(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: int


@dataclass(frozen=True, eq=False, repr=False)
class Bool(Expr):
    value: bool


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    c: Constant


@dataclass(frozen=True, eq=False, repr=False)
class Abs(Expr):
    param: str
    annot: Type
    body: Expr


@dataclass(frozen=True, eq=False, repr=False)
class App(Expr):
    rator: Expr
    rand: Expr


@dataclass(frozen=True, eq=False, repr=False)
class If(Expr):
    test: Expr
    then: Expr
    els: Expr


def is_value(e: Expr) -> bool:
    return isinstance(e, (Num, Bool, Const, Abs))


def apply_constant(c: Constant, v: Expr) -> Expr | None:
    """The delta rules; None when no rule covers (c, v)."""
    if not is_value(v):
        raise ValueError("apply_constant: operand is not a value")
    match c:
        case Constant.ADD1:
            return Num(v.value + 1) if isinstance(v, Num) else None
        case Constant.NOT:
            return Bool(isinstance(v, Bool) and v.value is False)
        case Constant.NUMBER_P:
            return Bool(isinstance(v, Num))
        case Constant.BOOLEAN_P:
            return Bool(isinstance(v, Bool))
        case Constant.PROCEDURE_P:
            return Bool(isinstance(v, (Abs, Const)))
        case Constant.EVEN_P:
            return Bool(v.value % 2 == 0) if isinstance(v, Num) else None
        case Constant.ODD_P:
            return Bool(v.value % 2 != 0) if isinstance(v, Num) else None
    return None


def _rebuild(e: Expr, kids) -> Expr:
    """`e` with its subterms replaced by `kids`, left to right; `e` itself
    when each of `kids` is the subterm it replaces."""
    cls = e.__class__
    if cls is App:
        if kids[0] is not e.rator or kids[1] is not e.rand:
            return App(*kids)
    elif cls is If:
        if kids[0] is not e.test or kids[1] is not e.then or kids[2] is not e.els:
            return If(*kids)
    elif cls is Abs and kids[0] is not e.body:
        return Abs(e.param, e.annot, kids[0])
    return e


def fold(e: Expr, leaf, node, memo: dict | None = None):
    """Fold `e` bottom-up over an explicit stack, so input of any depth
    folds.  `leaf(x)` gives the result of each Var, Num, Bool and Const (and
    of anything that is not a term), and `node(x, results)` that of each
    Abs, App and If from the list of its subterms' results, left to right.
    The callbacks are called in post-order.  `memo`, when given, holds by
    `id` the result of each Abs, App and If folded, and a node found there
    is not folded again: share it between folds with the same callbacks,
    while every node it names is alive."""
    todo: list = [e]  # terms to fold, and (node, number of subterms) to combine
    done: list = []   # results, innermost last
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is tuple:
            x, n = x
            results = done[-n:]
            del done[-n:]
            r = node(x, results)
            if memo is not None:
                memo[id(x)] = r
            done.append(r)
        elif memo is not None and id(x) in memo:
            done.append(memo[id(x)])
        elif cls is App:
            todo += ((x, 2), x.rand, x.rator)
        elif cls is If:
            todo += ((x, 3), x.els, x.then, x.test)
        elif cls is Abs:
            todo += ((x, 1), x.body)
        else:
            done.append(leaf(x))
    return done[0]


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


def substitute(body: Expr, env: dict[str, Expr]) -> Expr:
    """Replace the free occurrences in `body` of each variable that `env`
    binds with its closed value.  The walk is iterative, so it takes input
    of any depth, and a subterm in which nothing is replaced is shared with
    `body` rather than rebuilt."""
    for v in env.values():
        if free_vars(v):
            raise ValueError(f"substitute: replacement term is not closed: {print_expr(v)}")
    shadowed: dict[str, int] = {}  # name -> number of enclosing binders of it
    todo: list = [body]  # terms to walk, and (node, number of subterms) to rebuild
    done: list[Expr] = []  # the results, innermost last
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is Var:
            name = node.name
            done.append(env[name] if name in env and not shadowed.get(name) else node)
        elif cls is App:
            todo += ((node, 2), node.rand, node.rator)
        elif cls is If:
            todo += ((node, 3), node.els, node.then, node.test)
        elif cls is Abs:
            if node.param in env:
                if len(env) == 1:  # nothing below it is replaced
                    done.append(node)
                    continue
                shadowed[node.param] = shadowed.get(node.param, 0) + 1
            todo += ((node, 1), node.body)
        elif cls is tuple:
            node, n = node
            if node.__class__ is Abs and node.param in env:
                shadowed[node.param] -= 1
            kids = done[-n:]
            del done[-n:]
            done.append(_rebuild(node, kids))
        else:
            done.append(node)
    return done[0]


# ---------------------------------------------------------------------------
# Reader


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


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


def _is_ident(atom: str) -> bool:
    return (atom not in ("", "(", ")", ":") and atom not in RESERVED_WORDS
            and atom not in CONSTANT_BY_NAME and not atom.startswith("#")
            and not _is_integer(atom))


# The types spelled by one word, and back: the atoms, Boolean and Bot.
_TYPE_ATOMS = {**{t.name: t for t in (TOP, NUM, TRUE_T, FALSE_T)},
               "Boolean": BOOLEAN, "Bot": BOT}
_TYPE_NAMES = {t: name for name, t in _TYPE_ATOMS.items()}

RESERVED_WORDS = {"lambda", "if", "U", "->", "Refinement", "declare-refinement", *_TYPE_ATOMS}


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
        # Each open form is [class, fields read so far]; a form is complete,
        # and its ")" expected, at two fields for App and three otherwise.
        forms: list[list] = []
        while True:
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
                    forms.append([Abs, param, annot])
                elif head == "if":
                    self.next()
                    forms.append([If])
                else:
                    forms.append([App])
                continue
            e = self.read_atom_expr(tok)
            while forms:
                form = forms[-1]
                form.append(e)
                if len(form) < (3 if form[0] is App else 4):
                    break
                self.expect(")")
                forms.pop()
                e = form[0](*form[1:])
            else:
                return e

    def read_atom_expr(self, atom: str) -> Expr:
        if not atom or atom in "():":
            self.fail("expected an expression", last=True)
        if _is_integer(atom):
            # Fewer digits than Python converts (0 or absent: no limit) print after any add1.
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if 0 < limit <= len(atom.lstrip("+-")):
                raise ParseError(f"integer literal too long (at most {limit - 1} digits)",
                                 *_position(self.text, self.last))
            return Num(int(atom))
        if atom in ("#t", "#f"):
            return Bool(atom == "#t")
        if atom in CONSTANT_BY_NAME:
            return Const(CONSTANT_BY_NAME[atom])
        if atom.startswith("#"):
            self.fail("unknown # literal", last=True)
        if atom in RESERVED_WORDS:
            self.fail("reserved word used as a variable", last=True)
        return Var(atom)

    def read_ident(self) -> str:
        atom = self.next()
        if not _is_ident(atom):
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
        t = _TYPE_ATOMS.get(tok)
        if t is None:
            self.fail("expected a type", last=True)
        return t


def _read_all(text: str, read):
    r = _Reader(text)
    out = read(r)
    r.expect_end()
    return out


def parse_expr(text: str) -> Expr:
    return _read_all(text, _Reader.read_expr)


def parse_type(text: str) -> Type:
    return _read_all(text, _Reader.read_type)


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


def _join(todo: list) -> str:
    """The text of a stack of strings, types and tuples of pieces, each
    tuple last piece first.  The stack is explicit, so types and terms of
    any depth print, and no string is copied per level of nesting."""
    pieces: list[str] = []
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is str:
            pieces.append(x)
        elif cls is tuple:
            todo += x
        elif x in _TYPE_NAMES:
            pieces.append(_TYPE_NAMES[x])
        elif cls is Arrow:
            todo += ((")", x.res, " ", x.arg, "(-> ") if x.latent is None
                     else (")", x.latent, " : ", x.res, " ", x.arg, "(-> "))
        elif cls is UnionT:
            parts: list = list(x.members)
            for i in range(len(parts) - 1):
                if parts[i] is TRUE_T and parts[i + 1] is FALSE_T:
                    parts[i:i + 2] = ["Boolean"]
                    break
            todo.append(")")
            for part in reversed(parts):
                todo += (part, " ")
            todo[-1] = "(U "
        elif cls is Refine:
            pieces.append(f"(Refinement {x.pred.value})")
        else:
            raise TypeError(f"not a type: {x!r}")
    return "".join(pieces)


def print_type(t: Type) -> str:
    return _join([t])


def print_pred(p: Pred) -> str:
    match p:
        case TypeOfPred(t, x):
            return f"{print_type(t)} @ {x}"
        case VarPred(x):
            return x
        case AtomPred(name):
            return name
    raise TypeError(f"not a predicate: {p!r}")


def _pieces(e: Expr, kids=()) -> str | tuple:
    """The text of a leaf, or a node's pieces around its subterms', last
    first."""
    cls = e.__class__
    if cls is App:
        return ")", kids[1], " ", kids[0], "("
    if cls is Var:
        return e.name
    if cls is Num:
        return str(e.value)
    if cls is If:
        return ")", kids[2], " ", kids[1], " ", kids[0], "(if "
    if cls is Const:
        return e.c.value
    if cls is Abs:
        return ")", kids[0], ") ", e.annot, f"(lambda ({e.param} : "
    if cls is Bool:
        return "#t" if e.value else "#f"
    raise TypeError(f"not an expression: {e!r}")


def print_expr(e: Expr) -> str:
    return _join([fold(e, _pieces, _pieces)])
