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

Each infix operator and each function is stated once, in the tables
``_INFIX`` and ``_FUNC``, which the parser, the printer, substitution,
differentiation and evaluation all read.

Expressions are hash-consed DAGs (see :class:`Expr`): derivatives are
memoized per node, and evaluation runs each distinct node of all the
roots of a call once, and the Piecewise nodes of one region as one step,
whose side with only constant branches is filled without a program.
"""

from __future__ import annotations

import itertools
import operator
import re
import weakref
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from sobolev import ArgumentError

__all__ = [
    "Expr", "Const", "Pi", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "Piecewise", "FUNCTIONS", "ExprSyntaxError", "ExprDomainError",
    "parse_expr", "diff_expr", "eval_expr", "eval_on_points", "eval_many",
    "subst_expr",
    "expr_to_text", "const", "sum_exprs", "prod_exprs",
]

class ExprSyntaxError(ArgumentError):
    """Raised on malformed expression text; carries a 1-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ArithmeticError):
    """Raised when evaluation hits a point outside a function's domain."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# The intern table: (class, child ids..., scalar fields) -> a weak
# reference to the live node, which carries its key.  It never keeps a
# dropped expression alive.  A key's child ids stay valid as long as its
# node lives, since the node holds its children; when the node dies, the
# callback removes its entry unless a new node of that key has taken it.
_INTERNED = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref, table=_INTERNED):
    if table.get(ref.key) is ref:
        del table[ref.key]


class Expr:
    """Base class for expression nodes.

    Nodes are hash-consed: every constructor call goes through
    ``Expr.__new__``, which returns the live node with the same class,
    the same children and the same scalar fields if there is one.  So
    structurally equal expressions are the same object, ``==`` and
    ``hash`` are identity checks that cost O(1), and an expression is a
    DAG whose shared subexpressions are stored once.  The intern table is
    a plain dict holding one weak reference per node, so it keeps no node
    alive, and a node's entry leaves it when the node dies.  Nodes are
    immutable.
    Besides its dataclass fields a node may carry two caches that are not
    fields: its partial derivatives (see :func:`diff_expr`) and, once it
    has been the first root of an evaluation, the evaluation programs it
    heads, keyed weakly by the other roots (see :func:`eval_many`).

    :meth:`values` and :meth:`partial` are :func:`eval_on_points` and
    :func:`diff_expr` as methods.  The quadrature routines call them
    where they sample their input or differentiate it, so that an outside
    tracer can wrap these two sites (``perfbench/tracer.py`` wraps them as
    ``fields.values`` and ``fields.partial``).
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
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._names, args):
                object.__setattr__(node, name, value)
            ref = _INTERNED[key] = _Ref(node, _forget)
            ref.key = key
        return node

    def values(self, pts: np.ndarray) -> np.ndarray:
        return eval_on_points(self, pts)

    def partial(self, axis: int) -> "Expr":
        """Partial derivative along x<axis> (1-based)."""
        return diff_expr(self, axis)


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


# ---------------------------------------------------------------------------
# Folding constructors: constant arithmetic plus 0/1 identities, nothing more.
# Constants are interned, so ``e is ZERO`` tests for any Const of value 0.
# ---------------------------------------------------------------------------

def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if type(a) is Const and type(b) is Const:
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if type(a) is Const and type(b) is Const:
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if b is ONE:
        return a
    if a is ZERO and b is not ZERO:
        return ZERO
    if type(a) is Const and type(b) is Const and b is not ZERO:
        return Const(a.value / b.value)
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


# ---------------------------------------------------------------------------
# The operator and function tables: every other part reads these.
# ---------------------------------------------------------------------------

def _divide(num, den):
    if (den == 0.0).any():
        raise ExprDomainError("division by zero")
    return num / den


# node class -> (spelling in printed text, which the parser reads stripped;
# precedence, loosest 1; folding constructor; elementwise evaluation)
_INFIX = {
    Add: (" + ", 1, add, np.add),
    Sub: (" - ", 1, sub, np.subtract),
    Mul: ("*", 2, mul, np.multiply),
    Div: ("/", 2, div, _divide),
}
# node class -> its folding constructor
_FOLDING = {Neg: neg, Pow: pow_, **{c: r[2] for c, r in _INFIX.items()}}


def _exp(a):
    with np.errstate(over="ignore"):
        return np.exp(a)


def _log(a):
    if (a <= 0.0).any():
        raise ExprDomainError("log of a non-positive value")
    return np.log(a)


def _sqrt(a):
    if (a < 0.0).any():
        raise ExprDomainError("sqrt of a negative value")
    return np.sqrt(a)


# function name -> (elementwise evaluation, derivative at the argument a).
# The derivative of abs is a/abs(a), so it fails to evaluate where a = 0.
_FUNC = {
    "sin": (np.sin, lambda a: Call("cos", a)),
    "cos": (np.cos, lambda a: neg(Call("sin", a))),
    "exp": (_exp, lambda a: Call("exp", a)),
    "log": (_log, lambda a: div(ONE, a)),
    "sqrt": (_sqrt, lambda a: div(ONE, mul(Const(Fraction(2)),
                                           Call("sqrt", a)))),
    "abs": (np.abs, lambda a: div(a, Call("abs", a))),
}
FUNCTIONS = tuple(_FUNC)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<tok>\d+(?:\.\d+)?|[A-Za-z_][A-Za-z_0-9]*"
                       r"|[-+*/^()])|(?P<bad>\S))")
# symbol -> folding constructor, one dict per precedence level, loosest first
_LEVELS = [{sym.strip(): fold for sym, p, fold, _ in _INFIX.values()
            if p == prec} for prec in sorted({r[1] for r in _INFIX.values()})]


class _Parser:
    """Recursive descent over (text, 1-based position) tokens, the last
    of which is ("", end of text)."""

    def __init__(self, text: str, n: int):
        self.toks = []
        for m in _TOKEN_RE.finditer(text):
            if m["bad"]:
                raise ExprSyntaxError(f"unexpected character {m['bad']!r}",
                                      m.start("bad") + 1)
            self.toks.append((m["tok"], m.start("tok") + 1))
        self.toks.append(("", len(text) + 1))
        self.i = 0
        self.n = n

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.i + ahead][0]

    def take(self) -> tuple[str, int]:
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, op: str):
        value, pos = self.take()
        if value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        value, pos = self.take()
        if value:
            raise ExprSyntaxError(f"unexpected token {value!r}", pos)
        return e

    def expr(self, level: int = 0) -> Expr:
        if level == len(_LEVELS):
            return self.unary()
        ops = _LEVELS[level]
        e = self.expr(level + 1)
        while self.peek() in ops:
            fold = ops[self.take()[0]]
            e = fold(e, self.expr(level + 1))
        return e

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return neg(self.unary())
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        return pow_(base, self.exponent())

    def exponent(self) -> Fraction:
        if self.peek() == "(":
            self.take()
            r = self.exponent()
            self.expect(")")
            return r
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        value, pos = self.take()
        if not value[:1].isdigit():
            raise ExprSyntaxError("expected rational literal exponent", pos)
        # only plain integer/integer forms make a fraction literal
        den = self.peek(1) if self.peek() == "/" else ""
        if value.isdigit() and den.isdigit():
            if not int(den):
                raise ExprSyntaxError("zero denominator in exponent",
                                      self.toks[self.i + 1][1])
            self.i += 2
            return sign * Fraction(int(value), int(den))
        return sign * Fraction(value)

    def atom(self) -> Expr:
        value, pos = self.take()
        if value[:1].isdigit():
            return Const(Fraction(value))
        if value == "(":
            e = self.expr()
            self.expect(")")
            return e
        if value == "pi":
            return Pi()
        if value in _FUNC:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(value, arg)
        m = re.fullmatch(r"x(\d+)", value)
        if m:
            idx = int(m.group(1))
            if not (1 <= idx <= self.n):
                raise ExprSyntaxError(
                    f"variable x{idx} out of range for dimension {self.n}", pos)
            return Var(idx)
        if value.isidentifier():
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        raise ExprSyntaxError(f"unexpected token {value!r}", pos)


def parse_expr(text: str, n: int) -> Expr:
    """Parse ``text`` as an expression in variables x1..xn."""
    if n < 1:
        raise ArgumentError("dimension must be >= 1")
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
    if type(e) in _INFIX:
        sym, prec, _, _ = _INFIX[type(e)]
        lt, lp = _text(e.left)
        rt, rp = _text(e.right)
        if lp < prec:
            lt = f"({lt})"
        if rp <= prec:
            rt = f"({rt})"
        return f"{lt}{sym}{rt}", prec
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
    if type(e) in (Neg, Add, Sub):  # linear: fold the children's partials
        return _FOLDING[type(e)](*[diff_expr(getattr(e, name), axis)
                                   for name in e._names])
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
        return mul(_FUNC[e.func][1](e.arg), diff_expr(e.arg, axis))
    if isinstance(e, Piecewise):
        return Piecewise(e.region, diff_expr(e.inside, axis),
                         diff_expr(e.outside, axis))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst_expr(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Substitute expressions for variables (keyed by 1-based index).

    Every other node is rebuilt from its substituted children through its
    folding constructor, or its class where it has none.
    """
    if not isinstance(e, Expr):
        raise TypeError(f"not an Expr: {e!r}")
    if isinstance(e, Var):
        return mapping.get(e.index, e)
    if isinstance(e, Piecewise):
        raise TypeError("cannot substitute into a piecewise expression")
    args = [getattr(e, name) for name in e._names]
    args = [subst_expr(a, mapping) if isinstance(a, Expr) else a
            for a in args]
    return _FOLDING.get(type(e), type(e))(*args)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A call evaluates its roots through one program: the distinct nodes of
# all roots in post-order, root by root, children left to right and each
# node at its first occurrence, which is the order in which a recursive
# walk of each tree first finishes them.  So every node runs the numpy
# operation of that walk on the same inputs, but once per call, however
# many roots share it.  An instruction is (operation, data, argument
# values, values whose last use it is, (root, value) pairs to write out):
# the result has one row per root, a root's value is written out as soon
# as it is computed, and every value is freed right after its last use, a
# root's no earlier than that write.
#
# Piecewise nodes are leaves of their program, grouped by region (regions
# hash by value): the nodes of one region are one instruction, at the
# first one's place, which computes one mask and runs two programs, one
# over their ``inside`` branches on the points of the region and one over
# their ``outside`` branches on the other points, so a branch is never
# evaluated where it may be undefined.  Each node is a row of that
# instruction's array, and bands nested in the branches group again in
# the branch programs.  A group runs each node on the points the tree
# walk gives it, so the bits do not change; only the order of domain
# checks does, and a failing program is run once more with every
# Piecewise node on its own, to raise the error of the walk.
#
# Points run in consecutive blocks of at most _LIVE_VALUES // (peak live
# values) points, a group counting once per row, so a program holds at
# most _LIVE_VALUES float64 values (2 MB) however many roots share it;
# the blocks of one call are of equal length, which lowers that peak
# further.  Every operation is elementwise, so the blocks change no bits.

_LIVE_VALUES = 2 ** 18


def _full(value, pts):
    return np.full(pts.shape[0], value)


def _var(index, pts):
    if index > pts.shape[1]:
        raise ExprDomainError(
            f"variable x{index} exceeds point dimension {pts.shape[1]}")
    return pts[:, index - 1].astype(float, copy=True)


def _unary(f, pts, a):
    return f(a)


def _binary(f, pts, a, b):
    return f(a, b)


def _pow(p, pts, base):
    if p.denominator == 1:
        k = p.numerator
        if k < 0 and (base == 0.0).any():
            raise ExprDomainError("zero raised to a negative power")
        return base ** float(k)
    if (base < 0.0).any():
        raise ExprDomainError(
            f"negative base for fractional power {_frac_text(p)}")
    if p < 0 and (base == 0.0).any():
        raise ExprDomainError("zero raised to a negative power")
    return base ** float(p)


def _piecewise(refs, pts):
    """The Piecewise nodes of one region at ``pts``, one row per node: one
    mask, and one program for their ``inside`` and one for their
    ``outside`` branches, each run on its side's points only; a side whose
    branches are all constants is filled with them instead."""
    nodes = [ref() for ref in refs]
    mask = nodes[0].region.contains(pts)
    out = np.empty((len(nodes), pts.shape[0]))
    for side, cols in (("inside", np.flatnonzero(mask)),
                       ("outside", np.flatnonzero(~mask))):
        if cols.size:
            branches = tuple([getattr(e, side) for e in nodes])
            if all(type(b) is Const for b in branches):
                out[:, cols] = [[float(b.value)] for b in branches]
            else:
                out[:, cols] = _run(branches, pts[cols])
    return out


# node class -> (operation, data, children) of its step in a program; the
# data of an operator or a function is its evaluation from the tables
_STEP = {
    Const: lambda e: (_full, float(e.value), ()),
    Pi: lambda e: (_full, np.pi, ()),
    Var: lambda e: (_var, e.index, ()),
    Neg: lambda e: (_unary, np.negative, (e.arg,)),
    Pow: lambda e: (_pow, e.power, (e.base,)),
    Call: lambda e: (_unary, _FUNC[e.func][0], (e.arg,)),
    # weakly: a program holds no node alive (see _run)
    Piecewise: lambda e: (_piecewise, [weakref.ref(e)], ()),
    **{c: lambda e, f=r[3]: (_binary, f, (e.left, e.right))
       for c, r in _INFIX.items()},
}


def _plan(roots: tuple, group: bool = True) -> tuple:
    """(instructions, peak live values) of the program of ``roots``; with
    ``group``, the Piecewise nodes of one region are one step."""
    steps = []
    slot = {}  # node -> its step, or (its group's step, its row there)
    groups = {}  # region -> (step, weak references) of its Piecewise nodes
    stack = list(reversed(roots))
    pop, push, index = stack.pop, stack.append, slot.__getitem__
    while stack:
        node = pop()
        if type(node) is tuple:  # a node whose children are all done
            node, op, data, children = node
        elif node in slot:
            continue
        else:
            op, data, children = _STEP[type(node)](node)
            if children:
                push((node, op, data, children))
                stack += reversed(children)
                continue
        if group and op is _piecewise:
            i, refs = groups.setdefault(node.region, (len(steps), data))
            if refs is not data:  # a later node of the region: a row
                slot[node] = (i, len(refs))
                refs += data
                continue
        slot[node] = len(steps)
        steps.append((op, data, tuple(map(index, children))))
    # the values in step order, one per row of a Piecewise step
    width = [len(data) if op is _piecewise else 1 for op, data, _ in steps]
    first = list(itertools.accumulate(width, initial=0))

    def value(s):
        return first[s] if type(s) is int else first[s[0]] + s[1]
    if first[-1] > len(steps):
        steps = [(op, data, tuple(map(value, args)))
                 for op, data, args in steps]
    # a value dies at its last use as an argument, a root with no such use
    # at its own step, once it has been written out; the rows of a step
    # are views of one array, which dies with the last of them
    last = {j: i for i, (_, _, args) in enumerate(steps) for j in args}
    rows = [()] * len(steps)
    for r, root in enumerate(roots):
        s = slot[root]
        i = s if type(s) is int else s[0]
        rows[i] += ((r, value(s)),)
        last.setdefault(value(s), i)
    for i, refs in groups.values():
        if len(refs) > 1:
            group_rows = range(first[i], first[i + 1])
            last.update(dict.fromkeys(group_rows,
                                      max(map(last.get, group_rows))))
    dead = [()] * len(steps)
    for j, i in last.items():
        dead[i] += (j,)
    # live values: each step adds its rows, then frees its dead values
    peak = max(map(operator.sub, itertools.accumulate(width),
                   itertools.accumulate(map(len, dead), initial=0)))
    return [(*s, d, r) for s, d, r in zip(steps, dead, rows)], peak


def _run_block(steps: list, pts: np.ndarray, out) -> None:
    vals = []
    append, extend = vals.append, vals.extend
    for op, data, args, dead, rows in steps:
        v = op(data, pts, *[vals[j] for j in args])
        if op is _piecewise:
            extend(v)
        else:
            append(v)
        if rows:
            for r, j in rows:
                out[r] = vals[j]
        for j in dead:
            vals[j] = None


def _run(roots: tuple, pts: np.ndarray):
    """The values of ``roots`` at ``pts``, one row per root, block by
    block: a (len(roots), m) array, which for a lone root evaluated in
    one block is a view of that root's array, not a copy."""
    # The programs of a first root, keyed weakly by the other roots.  A
    # program refers to no node either, so the cache never keeps a node
    # alive and never makes a reference cycle; entries whose other roots
    # have died are dropped when the next program is added.
    try:
        plans = roots[0]._plans
    except AttributeError:
        plans = roots[0].__dict__["_plans"] = {}
    key = tuple(map(weakref.ref, roots[1:])) if len(roots) > 1 else ()
    plan = plans.get(key)
    if plan is None:
        for stale in [k for k in plans if any(r() is None for r in k)]:
            del plans[stale]
        plan = plans[key] = _plan(roots)
    steps, peak = plan
    m = pts.shape[0]
    size = max(1, _LIVE_VALUES // peak)
    out = ([None] if len(roots) == 1 and m <= size
           else np.empty((len(roots), m)))
    try:
        if m <= size:
            _run_block(steps, pts, out)
        else:
            blocks = -(-m // size)
            size = -(-m // blocks)  # the same number of blocks, of equal length
            for lo in range(0, m, size):
                _run_block(steps, pts[lo:lo + size], out[:, lo:lo + size])
    except ExprDomainError:
        # A domain check fails on all points if it fails on some, and a
        # group runs each node on the points the walk gives it, so the
        # program without groups fails on all points at once too: at the
        # first node that fails in the walk, whatever the blocks.
        _run_block(_plan(roots, group=False)[0], pts,
                   np.empty((len(roots), m)))
        raise
    return out[0][None] if type(out) is list else out


def _points(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ArgumentError("points must be a 2d array of shape (m, n)")
    return pts


def eval_on_points(e: Expr, pts: np.ndarray) -> np.ndarray:
    """Evaluate at an (m, n) array of points; returns an (m,) float array.

    This is :func:`eval_many` with the one root ``e``.
    """
    out = _run((e,), _points(pts))[0]
    if np.isnan(out).any():
        raise ExprDomainError("evaluation produced NaN")
    return out


def eval_many(roots, pts: np.ndarray) -> np.ndarray:
    """Evaluate several expressions at an (m, n) array of points; returns
    an (m, len(roots)) float array whose column c is ``roots[c]``.

    One program runs over the union of the roots' DAGs, so a node that
    several roots share runs once, the Piecewise nodes of one region share
    one mask and one program per branch side, and each column equals
    ``eval_on_points(roots[c], pts)`` bit for bit.  If a node fails a
    domain check, the error raised is that of the tree walk: the error
    ``eval_on_points`` raises for the first root in ``roots`` whose
    evaluation fails a domain check, whatever the grouping and the blocks
    of points.  Only when no node fails is a NaN anywhere in the result an
    error.
    """
    roots, pts = tuple(roots), _points(pts)
    if not roots:
        return np.empty((pts.shape[0], 0))
    out = _run(roots, pts)
    if np.isnan(out).any():
        raise ExprDomainError("evaluation produced NaN")
    return out.T


def eval_expr(e: Expr, point) -> float:
    """Evaluate at a single point (sequence of n floats)."""
    pts = np.asarray(point, dtype=float).reshape(1, -1)
    return float(eval_on_points(e, pts)[0])
