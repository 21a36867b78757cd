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
    def __repr__(self):
        return f"parse_type({print_type(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class AtomT(Type):
    """A type named by one word.  Its instances are the four constants
    below, so a test for one is identity with its constant."""

    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Arrow(Type):
    arg: Type
    res: Type
    latent: Type | None = None  # None means "not a predicate"


@dataclass(frozen=True, eq=False, repr=False)
class UnionT(Type):
    members: tuple[Type, ...]


@dataclass(frozen=True, eq=False, repr=False)
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
    """A term.  `==` is structural and walks an explicit stack, so terms of
    any depth compare; annotations, being hash-consed types, compare by
    identity.  A term hashes as its printed text, since equal terms print
    the same.  `repr` is the call that reads the term back, so it takes any
    depth as `print_expr` does."""

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
        return hash(print_expr(self))

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


def fold(e: Expr, leaf, node, memo: dict | None = None, bound: dict | None = None):
    """Fold `e` bottom-up over an explicit stack, so input of any depth
    folds.  `leaf(x)` gives the result of each Var, Num, Bool and Const (and
    of anything that is not a term), and `node(x, results)` that of each
    Abs, App and If from the list of its subterms' results, left to right.
    The callbacks are called in post-order.  `bound`, when given, maps each
    name to the number of Abs nodes binding it that enclose the node folded:
    an Abs counts while its body is folded, not when `node` is called on it.
    `memo`, when given, holds by `id` the result of each Abs, App and If
    folded, and a node found there is not folded again: share it between
    folds with the same callbacks, while every node it names is alive, and
    never with a fold whose callbacks read `bound`."""
    todo: list = [e]  # terms to fold, and (node, number of subterms) to combine
    done: list = []   # results, innermost last
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls is tuple:
            x, n = x
            if bound is not None and n == 1:  # leaving an Abs
                bound[x.param] -= 1
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
            if bound is not None:
                bound[x.param] = bound.get(x.param, 0) + 1
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
    binds with its closed value, in one fold over `body`: a subterm in which
    nothing is replaced is shared with `body` rather than rebuilt."""
    for v in env.values():
        if free_vars(v):
            raise ValueError(f"substitute: replacement term is not closed: {print_expr(v)}")
    return _substitute(body, env)


def _substitute(body: Expr, env: dict[str, Expr]) -> Expr:
    """`substitute` for values known to be closed, unchecked."""
    bound: dict[str, int] = {}

    def leaf(x):
        if x.__class__ is Var and x.name in env and not bound.get(x.name):
            return env[x.name]
        return x

    return fold(body, leaf, _rebuild, bound=bound)


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


def _fail(text: str, toks: list[str], i: int, message: str):
    raise ParseError(f"{message} (got {toks[i] or '<end of input>'!r})", *_position(text, i))


def _read(text: str, want: type):
    """All of `text` read as one `Expr`, one `Type` or, when `want` is
    `tuple`, a program: its (declare-refinement c) forms, then one term.
    Terms and types are read in one loop over one stack of open forms, so
    input of any depth reads.  An open form is [class, fields read so far]:
    App takes two terms and If three; Abs takes its annotation, then ")",
    then its body; Arrow takes two types, then a latent after ":"; UnionT
    takes types up to its ")"."""
    toks = _tokenize(text)
    i = 0  # the next token
    decls: list[Constant] = []
    while want is tuple and toks[i] == "(" and toks[i + 1] == "declare-refinement":
        c = CONSTANT_BY_NAME.get(toks[i + 2])
        if c is None:
            _fail(text, toks, i + 2, "unknown constant in declare-refinement")
        if toks[i + 3] != ")":
            _fail(text, toks, i + 3, "expected ')'")
        decls.append(c)
        i += 4
    forms: list[list] = []
    typ = want is Type  # a type is read next; types hold no terms
    while True:
        tok = toks[i]
        head = toks[i + 1] if tok == "(" else None
        if not typ:
            if head is None:
                c = CONSTANT_BY_NAME.get(tok)
                if c is not None:
                    v = Const(c)
                elif tok == "#t" or tok == "#f":
                    v = Bool(tok == "#t")
                elif _is_integer(tok):
                    # Fewer digits than Python converts (0 or absent: no
                    # limit) print after any add1.
                    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
                    if 0 < limit <= len(tok.lstrip("+-")):
                        raise ParseError(f"integer literal too long (at most {limit - 1} digits)",
                                         *_position(text, i))
                    v = Num(int(tok))
                elif tok in "):":  # the end of input, "" too
                    _fail(text, toks, i, "expected an expression")
                elif tok[0] == "#":
                    _fail(text, toks, i, "unknown # literal")
                elif tok in RESERVED_WORDS:
                    _fail(text, toks, i, "reserved word used as a variable")
                else:
                    v = Var(tok)
                i += 1
            elif head == "lambda":
                if toks[i + 2] != "(":
                    _fail(text, toks, i + 2, "expected '('")
                if not _is_ident(toks[i + 3]):
                    _fail(text, toks, i + 3, "expected an identifier")
                if toks[i + 4] != ":":
                    _fail(text, toks, i + 4, "expected ':'")
                forms.append([Abs, toks[i + 3]])
                i += 5
                typ = True
                continue
            else:
                forms.append([If] if head == "if" else [App])
                i += 2 if head == "if" else 1
                continue
        elif head is None:
            v = _TYPE_ATOMS.get(tok)
            if v is None:
                _fail(text, toks, i, "expected a type")
            i += 1
        elif head == "->" or head == "U" and toks[i + 2] not in (")", ""):
            forms.append([Arrow if head == "->" else UnionT])
            i += 2
            continue
        elif head == "U":
            if toks[i + 2] != ")":
                _fail(text, toks, i + 2, "expected ')'")
            v = BOT
            i += 3
        elif head == "Refinement":
            c = CONSTANT_BY_NAME.get(toks[i + 2])
            if c is None:
                _fail(text, toks, i + 2, "unknown constant in Refinement type")
            if toks[i + 3] != ")":
                _fail(text, toks, i + 3, "expected ')'")
            v = Refine(c)
            i += 4
        else:
            _fail(text, toks, i + 1, "expected U, -> or Refinement")
        # `v` is read: it completes forms, innermost first, up to one that
        # takes more.
        while forms:
            form = forms[-1]
            form.append(v)
            cls = form[0]
            n = len(form)
            if cls is UnionT:
                if toks[i] not in (")", ""):
                    break
            elif cls is Arrow:
                if n == 2:
                    break
                if n == 3 and toks[i] == ":":
                    i += 1
                    break
            elif cls is Abs and n == 3:  # the annotation: the body follows its ")"
                if toks[i] != ")":
                    _fail(text, toks, i, "expected ')'")
                i += 1
                typ = False
                break
            elif n < (3 if cls is App else 4):
                break
            if toks[i] != ")":
                _fail(text, toks, i, "expected ')'")
            i += 1
            forms.pop()
            v = UnionT(tuple(form[1:])) if cls is UnionT else cls(*form[1:])
        else:
            if toks[i]:
                _fail(text, toks, i, "expected end of input")
            return (tuple(decls), v) if want is tuple else v


def parse_expr(text: str) -> Expr:
    return _read(text, Expr)


def parse_type(text: str) -> Type:
    return _read(text, Type)


def parse_program(text: str) -> tuple[tuple[Constant, ...], Expr]:
    """A program is zero or more (declare-refinement c) forms, then one
    expression."""
    return _read(text, tuple)


# ---------------------------------------------------------------------------
# Printer


def _join(todo: list) -> str:
    """The text of a stack of strings, types, predicates and terms.  Each
    node pushes its pieces last first, so input of any depth prints, and no
    string is copied per level of nesting."""
    pieces: list[str] = []
    while todo:
        x = todo.pop()
        cls = x.__class__
        # Types before terms: looking a term up in _TYPE_NAMES would print it.
        if cls is str:
            pieces.append(x)
        elif cls is AtomT:
            pieces.append(x.name)
        elif cls is Arrow:
            todo += ((")", x.res, " ", x.arg, "(-> ") if x.latent is None
                     else (")", x.latent, " : ", x.res, " ", x.arg, "(-> "))
        elif cls is UnionT:
            if x in _TYPE_NAMES:
                pieces.append(_TYPE_NAMES[x])
                continue
            parts: list = list(x.members)
            for i in range(len(parts) - 1):
                if parts[i] is TRUE_T and parts[i + 1] is FALSE_T:
                    parts[i:i + 2] = ["Boolean"]
                    break
            todo.append(")")
            for part in reversed(parts):
                todo += (part, " ")
            todo[-1] = "(U "
        elif cls is App:
            todo += (")", x.rand, " ", x.rator, "(")
        elif cls is Var:
            pieces.append(x.name)
        elif cls is Num:
            pieces.append(str(x.value))
        elif cls is If:
            todo += (")", x.els, " ", x.then, " ", x.test, "(if ")
        elif cls is Const:
            pieces.append(x.c.value)
        elif cls is Abs:
            todo += (")", x.body, ") ", x.annot, f"(lambda ({x.param} : ")
        elif cls is Bool:
            pieces.append("#t" if x.value else "#f")
        elif cls is Refine:
            pieces.append(f"(Refinement {x.pred.value})")
        elif cls is TypeOfPred:
            todo += (x.var, " @ ", x.type)
        elif cls is VarPred:
            pieces.append(x.var)
        elif cls is AtomPred:
            pieces.append(x.name)
        else:
            raise TypeError(f"not printable: {x!r}")
    return "".join(pieces)


def print_type(t: Type) -> str:
    return _join([t])


def print_pred(p: Pred) -> str:
    return _join([p])


def print_expr(e: Expr) -> str:
    return _join([e])
