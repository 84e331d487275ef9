"""Small real-valued expression language: parse, differentiate, evaluate.

The grammar (a stable public format, also accepted by the CLI and atlas
config files)::

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { ("*" | "/") , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , [ "^" , exponent ] ;
    exponent = [ "-" ] , ( INT , [ "/" , INT ] | DECIMAL )
             | "(" , exponent , ")" ;
    atom     = NUMBER | "pi" | VAR | FUNC , "(" , expr , ")"
             | "(" , expr , ")" ;
    NUMBER   = digits , [ "." , digits ] ;
    VAR      = "x" , digits ;            (* x1 .. xn *)
    FUNC     = "sin" | "cos" | "exp" | "log" | "sqrt" | "abs" ;

Precedence: ``^`` binds tightest, then unary minus, then ``* /``, then
``+ -``.  Exponents are rational literals only, so the AST is closed
under differentiation.  Numeric literals are converted exactly to
rationals; the only rewriting applied anywhere is constant folding.

Expressions are hash-consed DAGs (see :class:`Expr`): derivatives are
memoized per node and evaluation runs each distinct node once.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr", "Const", "Pi", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Piecewise", "FUNCTIONS", "ExprSyntaxError", "ExprDomainError",
    "parse_expr", "diff_expr", "eval_expr", "eval_on_points", "subst_expr",
    "expr_to_text", "const", "var", "sum_exprs", "prod_exprs",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text; carries a 1-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ArithmeticError):
    """Raised when evaluation hits a point outside a function's domain."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# The intern table: (class, child ids..., scalar fields) -> the live node.
# It holds nodes weakly, so it never keeps a dropped expression alive.  A
# key's child ids stay valid as long as its entry exists: the node holds
# its children, and its entry is removed when the node dies, before the
# children are released.
_INTERNED = weakref.WeakValueDictionary()


class Expr:
    """Base class for expression nodes.

    Nodes are hash-consed: every constructor call goes through
    ``Expr.__new__``, which returns the live node with the same class,
    the same children and the same scalar fields if there is one.  So
    structurally equal expressions are the same object, ``==`` and
    ``hash`` are identity checks that cost O(1), and an expression is a
    DAG whose shared subexpressions are stored once.  Nodes are immutable.
    Besides its dataclass fields a node may carry two caches that are not
    fields: its partial derivatives (see :func:`diff_expr`) and, once it
    has been evaluated as a root, its evaluation program.
    """

    __slots__ = ()
    _names: tuple = ()      # dataclass field names, in order
    _exact: int = -1        # index of a Fraction-valued field, if any

    def __new__(cls, *args):
        if len(args) != len(cls._names):
            raise TypeError(f"{cls.__name__} takes fields {cls._names}")
        i = cls._exact
        if i >= 0 and type(args[i]) is not Fraction:
            args = args[:i] + (Fraction(args[i]),) + args[i + 1:]
        key = (cls, *[id(a) if isinstance(a, Expr) else a for a in args])
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._names, args):
                object.__setattr__(node, name, value)
            _INTERNED[key] = node
        return node


def _node(cls):
    """Make ``cls`` a frozen, identity-compared node dataclass."""
    cls = dataclass(frozen=True, eq=False, init=False)(cls)
    cls._names = tuple(f.name for f in fields(cls))
    cls._exact = next((i for i, f in enumerate(fields(cls))
                       if f.type in ("Fraction", Fraction)), -1)
    return cls


@_node
class Const(Expr):
    value: Fraction


@_node
class Pi(Expr):
    pass


@_node
class Var(Expr):
    index: int  # 1-based, matching the surface syntax x1..xn


@_node
class Neg(Expr):
    arg: Expr


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Pow(Expr):
    base: Expr
    power: Fraction


@_node
class Call(Expr):
    func: str
    arg: Expr


@_node
class Piecewise(Expr):
    """``inside`` on the points of ``region``, ``outside`` elsewhere.

    ``region`` is any object that hashes by value and has a vectorized
    ``contains(pts) -> bool mask``.  Nesting in ``outside`` gives
    first-match semantics.  Differentiation acts branch by branch, which
    is valid only where the glued function is smooth across the region
    boundary (every construction in this package glues along flat seams).
    Piecewise nodes have no text form and are not substituted into.
    """

    region: object
    inside: Expr
    outside: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(value) -> Const:
    return Const(Fraction(value))


def var(index: int) -> Var:
    return Var(index)


# ---------------------------------------------------------------------------
# Folding constructors: constant arithmetic plus 0/1 identities, nothing more.
# ---------------------------------------------------------------------------

def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(a.value / b.value)
    if _is_const(b, 1):
        return a
    if _is_const(a, 0) and not _is_const(b, 0):
        return ZERO
    return Div(a, b)


def pow_(base: Expr, power: Fraction) -> Expr:
    power = Fraction(power)
    if power == 0:
        return ONE
    if power == 1:
        return base
    if isinstance(base, Const) and power.denominator == 1:
        if base.value != 0 or power > 0:
            return Const(base.value ** power.numerator)
    return Pow(base, power)


def sum_exprs(terms) -> Expr:
    """Left-to-right folded sum; the empty sum is 0."""
    out = ZERO
    for t in terms:
        out = add(out, t)
    return out


def prod_exprs(factors) -> Expr:
    """Left-to-right folded product; the empty product is 1."""
    out = ONE
    for f in factors:
        out = mul(out, f)
    return out


def call(func: str, arg: Expr) -> Expr:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    return Call(func, arg)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None or m.end() == self.pos:
                stray = self.pos + len(text[self.pos:]) - len(text[self.pos:].lstrip())
                raise ExprSyntaxError(
                    f"unexpected character {text[stray]!r}", stray + 1)
            if m.lastgroup == "num":
                self.tokens.append(("num", m.group("num"), m.start("num") + 1))
            elif m.lastgroup == "name":
                self.tokens.append(("name", m.group("name"), m.start("name") + 1))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op") + 1))
            self.pos = m.end()
        self.tokens.append(("end", "", len(text) + 1))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)


class _Parser:
    def __init__(self, text: str, n: int):
        self.toks = _Tokenizer(text)
        self.n = n

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "+-":
                self.toks.next()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.toks.peek()
            if kind == "op" and value in "*/":
                self.toks.next()
                rhs = self.unary()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "-":
            self.toks.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.toks.peek()
        if kind == "op" and value == "^":
            self.toks.next()
            return pow_(base, self.exponent())
        return base

    def exponent(self) -> Fraction:
        kind, value, pos = self.toks.peek()
        if kind == "op" and value == "(":
            self.toks.next()
            r = self.exponent()
            self.toks.expect_op(")")
            return r
        sign = 1
        if kind == "op" and value == "-":
            self.toks.next()
            sign = -1
            kind, value, pos = self.toks.peek()
        if kind != "num":
            raise ExprSyntaxError("expected rational literal exponent", pos)
        self.toks.next()
        num = Fraction(value)
        kind2, value2, _ = self.toks.peek()
        if kind2 == "op" and value2 == "/" and "." not in value:
            # only plain integer/integer forms make a fraction literal
            save = self.toks.i
            self.toks.next()
            kind3, value3, pos3 = self.toks.peek()
            if kind3 == "num" and "." not in value3:
                self.toks.next()
                return sign * Fraction(int(value), int(value3))
            self.toks.i = save
        return sign * num

    def atom(self) -> Expr:
        kind, value, pos = self.toks.next()
        if kind == "num":
            return Const(Fraction(value))
        if kind == "op" and value == "(":
            e = self.expr()
            self.toks.expect_op(")")
            return e
        if kind == "name":
            if value == "pi":
                return Pi()
            if value in FUNCTIONS:
                self.toks.expect_op("(")
                arg = self.expr()
                self.toks.expect_op(")")
                return Call(value, arg)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                idx = int(m.group(1))
                if not (1 <= idx <= self.n):
                    raise ExprSyntaxError(
                        f"variable x{idx} out of range for dimension {self.n}", pos)
                return Var(idx)
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_expr(text: str, n: int) -> Expr:
    """Parse ``text`` as an expression in variables x1..xn."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _frac_text(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


# precedence levels: add=1, mul=2, unary=3, pow=4, atom=5
def _text(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_frac_text(-e.value)}", 3
        if e.value.denominator != 1:
            return _frac_text(e.value), 2  # prints as a division
        return _frac_text(e.value), 5
    if isinstance(e, Pi):
        return "pi", 5
    if isinstance(e, Var):
        return f"x{e.index}", 5
    if isinstance(e, Neg):
        inner, prec = _text(e.arg)
        if prec < 3:
            inner = f"({inner})"
        return f"-{inner}", 3
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        lt, lp = _text(e.left)
        rt, rp = _text(e.right)
        if lp < 1:
            lt = f"({lt})"
        if rp <= 1:
            rt = f"({rt})"
        return f"{lt} {op} {rt}", 1
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        lt, lp = _text(e.left)
        rt, rp = _text(e.right)
        if lp < 2:
            lt = f"({lt})"
        if rp <= 2:
            rt = f"({rt})"
        return f"{lt}{op}{rt}", 2
    if isinstance(e, Pow):
        bt, bp = _text(e.base)
        if bp < 5:
            bt = f"({bt})"
        p = e.power
        pt = _frac_text(p)
        if p < 0 or p.denominator != 1:
            pt = f"({pt})"
        return f"{bt}^{pt}", 4
    if isinstance(e, Call):
        at, _ = _text(e.arg)
        return f"{e.func}({at})", 5
    if isinstance(e, Piecewise):
        raise TypeError("a piecewise expression has no text form")
    raise TypeError(f"not an Expr: {e!r}")


def expr_to_text(e: Expr) -> str:
    """Render an AST back to source text; parse(expr_to_text(e)) == e."""
    return _text(e)[0]


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def diff_expr(e: Expr, axis: int) -> Expr:
    """Symbolic partial derivative with respect to x<axis> (1-based).

    The derivative of abs is represented as arg/abs(arg) * arg'; where the
    argument vanishes this raises a domain error at evaluation time.
    Derivatives are memoized per (node, axis), so the cost is linear in
    the number of distinct nodes and asking twice returns the same node.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an Expr: {e!r}")
    memo = e.__dict__.setdefault("_derivs", {})
    d = memo.get(axis)
    if d is None:
        d = memo[axis] = _diff_rule(e, axis)
    return d


def _diff_rule(e: Expr, axis: int) -> Expr:
    if isinstance(e, (Const, Pi)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == axis else ZERO
    if isinstance(e, Neg):
        return neg(diff_expr(e.arg, axis))
    if isinstance(e, Add):
        return add(diff_expr(e.left, axis), diff_expr(e.right, axis))
    if isinstance(e, Sub):
        return sub(diff_expr(e.left, axis), diff_expr(e.right, axis))
    if isinstance(e, Mul):
        return add(mul(diff_expr(e.left, axis), e.right),
                   mul(e.left, diff_expr(e.right, axis)))
    if isinstance(e, Div):
        u, v = e.left, e.right
        du, dv = diff_expr(u, axis), diff_expr(v, axis)
        return div(sub(mul(du, v), mul(u, dv)), pow_(v, Fraction(2)))
    if isinstance(e, Pow):
        db = diff_expr(e.base, axis)
        return mul(mul(Const(e.power), pow_(e.base, e.power - 1)), db)
    if isinstance(e, Call):
        da = diff_expr(e.arg, axis)
        a = e.arg
        if e.func == "sin":
            outer = Call("cos", a)
        elif e.func == "cos":
            outer = neg(Call("sin", a))
        elif e.func == "exp":
            outer = Call("exp", a)
        elif e.func == "log":
            outer = div(ONE, a)
        elif e.func == "sqrt":
            outer = div(ONE, mul(Const(Fraction(2)), Call("sqrt", a)))
        elif e.func == "abs":
            outer = div(a, Call("abs", a))
        else:  # pragma: no cover - constructors reject unknown functions
            raise ValueError(f"unknown function {e.func!r}")
        return mul(outer, da)
    if isinstance(e, Piecewise):
        return Piecewise(e.region, diff_expr(e.inside, axis),
                         diff_expr(e.outside, axis))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst_expr(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Substitute expressions for variables (keyed by 1-based index)."""
    if isinstance(e, (Const, Pi)):
        return e
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Neg):
        return neg(subst_expr(e.arg, mapping))
    if isinstance(e, Add):
        return add(subst_expr(e.left, mapping), subst_expr(e.right, mapping))
    if isinstance(e, Sub):
        return sub(subst_expr(e.left, mapping), subst_expr(e.right, mapping))
    if isinstance(e, Mul):
        return mul(subst_expr(e.left, mapping), subst_expr(e.right, mapping))
    if isinstance(e, Div):
        return div(subst_expr(e.left, mapping), subst_expr(e.right, mapping))
    if isinstance(e, Pow):
        return pow_(subst_expr(e.base, mapping), e.power)
    if isinstance(e, Call):
        return Call(e.func, subst_expr(e.arg, mapping))
    if isinstance(e, Piecewise):
        raise TypeError("cannot substitute into a piecewise expression")
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A root is evaluated through its program: its distinct nodes in
# post-order, children left to right and each node at its first
# occurrence, which is the order in which a recursive walk of the tree
# first finishes them.  So every node runs the numpy operation of that walk
# on the same inputs, but once.  An instruction is (operation, scalar data,
# argument slots, slots whose last use it is); those slots are freed as
# soon as it has run.  A Piecewise node is a leaf of its program: each
# branch is a root of its own, evaluated on the branch's points only, so a
# branch is never evaluated where it may be undefined.


def _full(value, pts):
    return np.full(pts.shape[0], value)


def _var(index, pts):
    if index > pts.shape[1]:
        raise ExprDomainError(
            f"variable x{index} exceeds point dimension {pts.shape[1]}")
    return pts[:, index - 1].astype(float, copy=True)


def _neg(_, pts, a):
    return -a


def _add(_, pts, a, b):
    return a + b


def _sub(_, pts, a, b):
    return a - b


def _mul(_, pts, a, b):
    return a * b


def _div(_, pts, num, den):
    if np.any(den == 0.0):
        raise ExprDomainError("division by zero")
    return num / den


def _pow(p, pts, base):
    if p.denominator == 1:
        k = p.numerator
        if k < 0 and np.any(base == 0.0):
            raise ExprDomainError("zero raised to a negative power")
        return base ** float(k)
    if np.any(base < 0.0):
        raise ExprDomainError(
            f"negative base for fractional power {_frac_text(p)}")
    if p < 0 and np.any(base == 0.0):
        raise ExprDomainError("zero raised to a negative power")
    return base ** float(p)


def _call(func, pts, a):
    if func == "sin":
        return np.sin(a)
    if func == "cos":
        return np.cos(a)
    if func == "exp":
        with np.errstate(over="ignore"):
            return np.exp(a)
    if func == "log":
        if np.any(a <= 0.0):
            raise ExprDomainError("log of a non-positive value")
        return np.log(a)
    if func == "sqrt":
        if np.any(a < 0.0):
            raise ExprDomainError("sqrt of a negative value")
        return np.sqrt(a)
    if func == "abs":
        return np.abs(a)
    raise ValueError(f"unknown function {func!r}")


def _piecewise(branches, pts):
    region, inside, outside = branches
    mask = region.contains(pts)
    out = np.empty(pts.shape[0])
    if mask.any():
        out[mask] = _evaluate(inside, pts[mask])
    if not mask.all():
        out[~mask] = _evaluate(outside, pts[~mask])
    return out


_BINARY = {Add: _add, Sub: _sub, Mul: _mul, Div: _div}


def _step(e: Expr) -> tuple:
    """(operation, scalar data, children) of one node."""
    if isinstance(e, Const):
        return _full, float(e.value), ()
    if isinstance(e, Pi):
        return _full, np.pi, ()
    if isinstance(e, Var):
        return _var, e.index, ()
    if isinstance(e, Neg):
        return _neg, None, (e.arg,)
    if type(e) in _BINARY:
        return _BINARY[type(e)], None, (e.left, e.right)
    if isinstance(e, Pow):
        return _pow, e.power, (e.base,)
    if isinstance(e, Call):
        return _call, e.func, (e.arg,)
    if isinstance(e, Piecewise):
        # the branches, not the node: a program never refers to its root
        return _piecewise, (e.region, e.inside, e.outside), ()
    raise TypeError(f"not an Expr: {e!r}")


def _compile(root: Expr) -> list:
    steps = []
    slot = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in slot:
            stack.pop()
            continue
        op, data, children = _step(node)
        pending = [c for c in children if c not in slot]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        slot[node] = len(steps)
        steps.append((op, data, tuple(slot[c] for c in children)))
    dead = [[] for _ in steps]
    last_use = {j: i for i, (_, _, args) in enumerate(steps) for j in args}
    for j, i in last_use.items():
        dead[i].append(j)
    return [(*step, tuple(d)) for step, d in zip(steps, dead)]


def _evaluate(root: Expr, pts: np.ndarray) -> np.ndarray:
    try:
        program = root._program
    except AttributeError:
        program = _compile(root)
        root.__dict__["_program"] = program
    vals = [None] * len(program)
    for i, (op, data, args, dead) in enumerate(program):
        vals[i] = op(data, pts, *[vals[j] for j in args])
        for j in dead:
            vals[j] = None
    return vals[-1]


def eval_on_points(e: Expr, pts: np.ndarray) -> np.ndarray:
    """Evaluate at an (m, n) array of points; returns an (m,) float array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2d array of shape (m, n)")
    out = _evaluate(e, pts)
    if np.any(np.isnan(out)):
        raise ExprDomainError("evaluation produced NaN")
    return out


def eval_expr(e: Expr, point) -> float:
    """Evaluate at a single point (sequence of n floats)."""
    pts = np.asarray(point, dtype=float).reshape(1, -1)
    return float(eval_on_points(e, pts)[0])
