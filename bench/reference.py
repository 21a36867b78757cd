"""An independent big-step reference evaluator for otlc terms.

It reads the printed concrete syntax with its own reader, so it shares no
code with `otlc.syntax` or `otlc.semantics`.  Types are kept as the text
they were written in; evaluation never looks at them.

Terms are tuples:
    ("num", n) | ("bool", b) | ("const", name) | ("var", x)
    ("lam", x, type_text, body) | ("app", f, a) | ("if", t, a, b)

`evaluate` returns the value and the number of contractions (β, δ and
`if` steps).  Under call-by-value every contraction of the big-step
derivation is one step of the small-step machine, so the count equals the
length of the program's reduction trace.
"""

from __future__ import annotations

CONSTANTS = ("add1", "not", "number?", "boolean?", "procedure?", "even?", "odd?")


class RefError(Exception):
    """The reference evaluator met a term it cannot read or reduce."""


# ---------------------------------------------------------------------------
# Reader


def _tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _sexp(toks: list[str], i: int):
    """Parse one s-expression starting at toks[i]; return it and the next
    index.  Iterative, so nesting depth is not bounded by the Python stack."""
    stack: list[list] = []
    while i < len(toks):
        tok = toks[i]
        i += 1
        if tok == "(":
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise RefError("unbalanced )")
            item = stack.pop()
        else:
            item = tok
        if not stack:
            return item, i
        stack[-1].append(item)
    raise RefError("unexpected end of input")


def _type_text(s) -> str:
    if isinstance(s, str):
        return s
    return "(" + " ".join(_type_text(x) for x in s) + ")"


def _term(s):
    if isinstance(s, str):
        if s == "#t":
            return ("bool", True)
        if s == "#f":
            return ("bool", False)
        if s in CONSTANTS:
            return ("const", s)
        if s.lstrip("+-").isdigit():
            return ("num", int(s))
        return ("var", s)
    if s and s[0] == "lambda":
        (x, colon, *annot), body = s[1], s[2]
        if colon != ":" or len(annot) != 1:
            raise RefError(f"bad binder {s[1]!r}")
        return ("lam", x, _type_text(annot[0]), _term(body))
    if s and s[0] == "if":
        return ("if", _term(s[1]), _term(s[2]), _term(s[3]))
    if len(s) == 2:
        return ("app", _term(s[0]), _term(s[1]))
    raise RefError(f"not a term: {_type_text(s)}")


def read_program(text: str):
    """Declared refinement predicates and the term of a program text."""
    toks = _tokens(" ".join(line.split(";", 1)[0] for line in text.splitlines()))
    decls = []
    i = 0
    while True:
        s, i = _sexp(toks, i)
        if isinstance(s, list) and s and s[0] == "declare-refinement":
            decls.append(s[1])
            continue
        if i != len(toks):
            raise RefError("text after the program's expression")
        return tuple(decls), _term(s)


def read_term(text: str):
    decls, term = read_program(text)
    if decls:
        raise RefError("declarations in a bare term")
    return term


# ---------------------------------------------------------------------------
# Printer and size


def show(t) -> str:
    tag = t[0]
    if tag == "num":
        return str(t[1])
    if tag == "bool":
        return "#t" if t[1] else "#f"
    if tag in ("const", "var"):
        return t[1]
    if tag == "lam":
        return f"(lambda ({t[1]} : {t[2]}) {show(t[3])})"
    if tag == "app":
        return f"({show(t[1])} {show(t[2])})"
    return f"(if {show(t[1])} {show(t[2])} {show(t[3])})"


def size(t) -> int:
    """Expression nodes, type annotations not counted."""
    n = 0
    todo = [t]
    while todo:
        t = todo.pop()
        n += 1
        if t[0] == "lam":
            todo.append(t[3])
        elif t[0] in ("app", "if"):
            todo.extend(t[1:])
    return n


# ---------------------------------------------------------------------------
# Evaluator


def _subst(t, x: str, v):
    tag = t[0]
    if tag == "var":
        return v if t[1] == x else t
    if tag == "lam":
        return t if t[1] == x else ("lam", t[1], t[2], _subst(t[3], x, v))
    if tag == "app":
        return ("app", _subst(t[1], x, v), _subst(t[2], x, v))
    if tag == "if":
        return ("if", _subst(t[1], x, v), _subst(t[2], x, v), _subst(t[3], x, v))
    return t


def _delta(c: str, v):
    tag = v[0]
    if c == "add1" and tag == "num":
        return ("num", v[1] + 1)
    if c == "not":
        return ("bool", v == ("bool", False))
    if c == "number?":
        return ("bool", tag == "num")
    if c == "boolean?":
        return ("bool", tag == "bool")
    if c == "procedure?":
        return ("bool", tag in ("lam", "const"))
    if c in ("even?", "odd?") and tag == "num":
        return ("bool", (v[1] % 2 == 0) == (c == "even?"))
    raise RefError(f"{c} is not defined on {show(v)}")


class _Counter:
    def __init__(self, limit: int):
        self.steps = 0
        self.limit = limit

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            raise RefError("step limit exceeded")


def _eval(t, k: _Counter):
    while True:  # tail positions loop instead of recursing
        tag = t[0]
        if tag in ("num", "bool", "const", "lam"):
            return t
        if tag == "var":
            raise RefError(f"free variable {t[1]}")
        if tag == "if":
            test = _eval(t[1], k)
            k.tick()
            t = t[3] if test == ("bool", False) else t[2]
            continue
        f = _eval(t[1], k)
        a = _eval(t[2], k)
        k.tick()
        if f[0] == "const":
            return _delta(f[1], a)
        if f[0] != "lam":
            raise RefError(f"{show(f)} is not applicable")
        t = _subst(f[3], f[1], a)


def evaluate(term, limit: int = 1_000_000):
    """(value, contraction count) of a closed term."""
    k = _Counter(limit)
    v = _eval(term, k)
    return v, k.steps
