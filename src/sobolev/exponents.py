"""Exact admissibility checks for smoothness/integrability exponent pairs.

Every check evaluates the hypothesis lists of one or more classical
results (embedding, pointwise multiplication, Banach algebra,
differentiation, extension by zero, composition) in exact rational
arithmetic and returns a :class:`Verdict` whose condition trace can be
re-evaluated independently.  ``NotGuaranteed`` always means "none of the
encoded sufficient conditions applies", never that the statement is
false.

Each hypothesis is stated once: a check builds one dict from its
exponents that maps the hypothesis text to an exact comparison
``(lhs, relation, rhs)`` (a boolean side condition is ``(1 or 0, "==",
1)``), and module-level tables list each theorem as ``(tag, hypothesis
names)``, per domain class and in the order tried.  The first theorem
whose hypotheses all hold decides the verdict; otherwise the verdict
lists the first failing hypothesis of every theorem tried.  On a general
open set only the IV.3-IV.6 embeddings apply, so W^{1,p} need not embed
in W^{t,p} for 0 < t < 1 there, while embedding III gives it on a
bounded Lipschitz domain.

No floats enter this module: exponents are :class:`fractions.Fraction`
values, so boundary cases (equality against a strict or non-strict
inequality) are decided exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from sobolev import ArgumentError, Report


class ExponentError(ArgumentError):
    """Invalid exponent data (p out of range, float input, ...)."""


class DimensionMismatch(ArgumentError):
    pass


class WrongDomainClass(ArgumentError):
    pass


def rational(x) -> Fraction:
    """Exact conversion of ints, Fractions and strings like '3/2' or '0.5'."""
    if isinstance(x, float):
        raise ExponentError(
            "floats are not accepted here; pass an int, Fraction or string")
    return Fraction(x)


class DomainClass(Enum):
    FULL_SPACE = "fullspace"
    BOUNDED_LIPSCHITZ = "lipschitz"
    GENERAL_OPEN = "open"
    COMPACT_SUPPORT_IN_OPEN = "compact-support"
    COMPACT_MANIFOLD = "manifold"


@dataclass(frozen=True)
class Exponent:
    """Smoothness order s (any rational) and integrability p in (1, inf)."""

    s: Fraction
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", rational(self.s))
        p = rational(self.p)
        if p <= 1:
            raise ExponentError(f"integrability p must satisfy p > 1, got {p}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class SpaceSpec:
    """A Sobolev space symbolically: exponent, dimension, domain class.

    ``enclosing`` qualifies COMPACT_SUPPORT_IN_OPEN only: the regularity
    flag of the enclosing open set ("general", "lipschitz" or
    "fullspace").
    """

    exponent: Exponent
    n: int
    domain_class: DomainClass = DomainClass.FULL_SPACE
    enclosing: str = "general"

    def __post_init__(self):
        if self.n < 1:
            raise ExponentError(f"dimension must be >= 1, got {self.n}")
        if self.enclosing not in ("general", "lipschitz", "fullspace"):
            raise ExponentError(f"unknown enclosing flag {self.enclosing!r}")

    @property
    def s(self) -> Fraction:
        return self.exponent.s

    @property
    def p(self) -> Fraction:
        return self.exponent.p


def space(s, p, n, domain_class=DomainClass.FULL_SPACE, enclosing="general") -> SpaceSpec:
    return SpaceSpec(Exponent(rational(s), rational(p)), n, domain_class, enclosing)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

ADMISSIBLE = "Admissible"
NOT_GUARANTEED = "NotGuaranteed"


@dataclass(frozen=True)
class Condition:
    text: str
    lhs: Fraction
    relation: str  # a key of _RELATIONS: <, <=, >, >=, ==, (not-)integer
    rhs: Fraction
    satisfied: bool

    def reevaluate(self) -> bool:
        return _holds(self.lhs, self.relation, self.rhs)

    def to_json(self) -> dict:
        return {
            "condition": self.text,
            "lhs": str(self.lhs),
            "relation": self.relation,
            "rhs": str(self.rhs),
            "satisfied": self.satisfied,
        }


# relation -> its exact test; the integrality tests read lhs only
_RELATIONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq,
    "integer": lambda lhs, _: lhs.denominator == 1,
    "not-integer": lambda lhs, _: lhs.denominator != 1,
}


def _holds(lhs: Fraction, relation: str, rhs: Fraction) -> bool:
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return _RELATIONS[relation](lhs, rhs)


@dataclass(frozen=True)
class Candidate:
    theorem_tag: str
    conditions: tuple[Condition, ...]
    matched: bool

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_tag,
            "matched": self.matched,
            "conditions": [c.to_json() for c in self.conditions],
        }


@dataclass(frozen=True)
class Verdict:
    result: str
    theorem_tag: str | None
    conditions: tuple[Condition, ...]
    candidates: tuple[Candidate, ...] = ()
    target: tuple[Fraction, Fraction] | None = None

    @property
    def admissible(self) -> bool:
        return self.result == ADMISSIBLE

    def to_json(self) -> Report:
        out = Report("verdict", result=self.result, theorem=self.theorem_tag,
                     conditions=[c.to_json() for c in self.conditions],
                     candidates=[c.to_json() for c in self.candidates])
        if self.target is not None:
            out["target"] = {"s": str(self.target[0]), "p": str(self.target[1])}
        return out


def _candidate(tag: str, hypotheses: dict, names) -> Candidate:
    """Evaluate the named hypotheses, in order, as one candidate theorem."""
    conditions = []
    for name in names:
        lhs, relation, rhs = hypotheses[name]
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        conditions.append(
            Condition(name, lhs, relation, rhs, _holds(lhs, relation, rhs)))
    return Candidate(tag, tuple(conditions),
                     all(c.satisfied for c in conditions))


def _decide(candidates: list[Candidate],
            target=None, no_family_text: str | None = None) -> Verdict:
    candidates = tuple(candidates)
    for cand in candidates:
        if cand.matched:
            return Verdict(ADMISSIBLE, cand.theorem_tag, cand.conditions,
                           candidates, target)
    failing = [next(c for c in cand.conditions if not c.satisfied)
               for cand in candidates]
    if not failing and no_family_text:
        failing = [Condition(no_family_text, Fraction(0), ">", Fraction(0), False)]
    return Verdict(NOT_GUARANTEED, None, tuple(failing), candidates, None)


def _same_dimension(*specs: SpaceSpec) -> int:
    n = specs[0].n
    if any(sp.n != n for sp in specs):
        raise DimensionMismatch(
            f"dimension mismatch: {[sp.n for sp in specs]}")
    return n


def _same_domain(*specs: SpaceSpec) -> DomainClass:
    d = specs[0].domain_class
    if any(sp.domain_class != d for sp in specs):
        raise WrongDomainClass(
            f"all spaces must share a domain class, got "
            f"{[sp.domain_class.value for sp in specs]}")
    return d


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

_NONNEG_INTEGER_T = ("t is a nonnegative integer (t >= 0)",
                     "t is a nonnegative integer")
_EMBEDDINGS = {
    DomainClass.FULL_SPACE: (
        ("embedding I", ("p <= q", "t <= s", "s - n/p >= t - n/q")),),
    DomainClass.BOUNDED_LIPSCHITZ: (
        ("embedding III", ("0 <= t", "t <= s", "s - n/p >= t - n/q")),),
    DomainClass.GENERAL_OPEN: (
        ("embedding IV.3", ("q = p", "s is a nonnegative integer (s >= 0)",
                            "s is a nonnegative integer", *_NONNEG_INTEGER_T,
                            "t <= s")),
        ("embedding IV.4", ("q = p", "0 <= t", "t <= s", "s < 1")),
        ("embedding IV.5", ("q = p", "0 <= t", "t <= s",
                            "floor(s) = floor(t)")),
        ("embedding IV.6", ("q = p", *_NONNEG_INTEGER_T, "t <= s")),
    ),
    DomainClass.COMPACT_SUPPORT_IN_OPEN: (
        ("embedding IV.2", ("p <= q", "0 <= t", "t <= s",
                            "s - n/p >= t - n/q")),),
}


def check_embedding(frm: SpaceSpec, to: SpaceSpec) -> Verdict:
    """Decide W^{s,p} -> W^{t,q} on the shared domain class."""
    n = _same_dimension(frm, to)
    domain = _same_domain(frm, to)
    s, p = frm.s, frm.p
    t, q = to.s, to.p
    hypotheses = {
        "p <= q": (p, "<=", q),
        "q = p": (q, "==", p),
        "0 <= t": (0, "<=", t),
        "t <= s": (t, "<=", s),
        "s < 1": (s, "<", 1),
        "s - n/p >= t - n/q": (s - n / p, ">=", t - n / q),
        "s is a nonnegative integer (s >= 0)": (s, ">=", 0),
        "s is a nonnegative integer": (s, "integer", 0),
        "t is a nonnegative integer (t >= 0)": (t, ">=", 0),
        "t is a nonnegative integer": (t, "integer", 0),
        "floor(s) = floor(t)": (math.floor(s), "==", math.floor(t)),
    }
    return _decide(
        [_candidate(tag, hypotheses, names)
         for tag, names in _EMBEDDINGS.get(domain, ())],
        no_family_text=f"an embedding family is encoded for domain class "
                       f"'{domain.value}'")


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

# Banach algebra shortcut: all three spaces identical with s p > n
_ALGEBRA = ("factors and product share s", "factors share s",
            "factors and product share p", "factors share p", "s*p > n")
_BOTH_SMOOTHER = ("(i) s1 >= s", "(i) s2 >= s")
_BOTH_P_LE = ("p1 <= p", "p2 <= p")
_III = ("(iii) s1 - s >= n(1/p1 - 1/p)", "(iii) s2 - s >= n(1/p2 - 1/p)")
_IV_STRICT = "(iv) s1 + s2 - s > n(1/p1 + 1/p2 - 1/p)"
_IV_NONNEG = "(iv) n(1/p1 + 1/p2 - 1/p) >= 0"
# 4.6 with interchangeable strictness of (iii)/(iv), then 4.1
# (nonnegative smoothness), 4.3 (some factor negative), 4.5 (nonnegative
# factors, negative product space)
_MULTIPLICATIONS = (
    ("multiplication 4.6 (iii strict)", (
        *_BOTH_SMOOTHER, "(i) s >= 0", "(ii) s is an integer",
        "(iii) s1 - s > n(1/p1 - 1/p)", "(iii) s2 - s > n(1/p2 - 1/p)",
        "(iv) s1 + s2 - s >= n(1/p1 + 1/p2 - 1/p)", _IV_NONNEG)),
    ("multiplication 4.6 (iv strict)", (
        *_BOTH_SMOOTHER, "(i) s >= 0", "(ii) s is an integer", *_III,
        _IV_STRICT, _IV_NONNEG)),
    ("multiplication 4.1", (
        *_BOTH_P_LE, *_BOTH_SMOOTHER, "(ii) s >= 0", *_III, _IV_STRICT)),
    ("multiplication 4.3", (
        *_BOTH_P_LE, *_BOTH_SMOOTHER, "(ii) min(s1, s2) < 0", *_III,
        _IV_STRICT, "(v) s1 + s2 >= n(1/p1 + 1/p2 - 1)",
        "(v) n(1/p1 + 1/p2 - 1) >= 0")),
    ("multiplication 4.5", (
        *_BOTH_SMOOTHER, "(ii) min(s1, s2) >= 0", "(ii) s < 0", *_III,
        _IV_STRICT, _IV_NONNEG, "(v) s1 + s2 > n(1/p1 + 1/p2 - 1) (strict)")),
)


def check_multiplication(a: SpaceSpec, b: SpaceSpec, target: SpaceSpec) -> Verdict:
    """Decide W^{s1,p1} x W^{s2,p2} -> W^{s,p} pointwise multiplication.

    Candidate order is fixed: the Banach-algebra shortcut, then theorems
    4.6 (both strictness variants), 4.1, 4.3, 4.5.
    """
    n = _same_dimension(a, b, target)
    domain = _same_domain(a, b, target)
    s1, p1 = a.s, a.p
    s2, p2 = b.s, b.p
    s, p = target.s, target.p

    if domain not in (DomainClass.FULL_SPACE, DomainClass.BOUNDED_LIPSCHITZ):
        return _decide([], no_family_text=(
            f"a multiplication family is encoded for domain class "
            f"'{domain.value}'"))

    gap1, gap2 = n * (1 / p1 - 1 / p), n * (1 / p2 - 1 / p)
    gap12, gap12_1 = n * (1 / p1 + 1 / p2 - 1 / p), n * (1 / p1 + 1 / p2 - 1)
    hypotheses = {
        "factors and product share s": (s1, "==", s),
        "factors share s": (s2, "==", s),
        "factors and product share p": (p1, "==", p),
        "factors share p": (p2, "==", p),
        "s*p > n": (s * p, ">", n),
        "p1 <= p": (p1, "<=", p),
        "p2 <= p": (p2, "<=", p),
        "(i) s1 >= s": (s1, ">=", s),
        "(i) s2 >= s": (s2, ">=", s),
        "(i) s >= 0": (s, ">=", 0),
        "(ii) s >= 0": (s, ">=", 0),
        "(ii) s < 0": (s, "<", 0),
        "(ii) s is an integer": (s, "integer", 0),
        "(ii) min(s1, s2) < 0": (min(s1, s2), "<", 0),
        "(ii) min(s1, s2) >= 0": (min(s1, s2), ">=", 0),
        "(iii) s1 - s > n(1/p1 - 1/p)": (s1 - s, ">", gap1),
        "(iii) s2 - s > n(1/p2 - 1/p)": (s2 - s, ">", gap2),
        "(iii) s1 - s >= n(1/p1 - 1/p)": (s1 - s, ">=", gap1),
        "(iii) s2 - s >= n(1/p2 - 1/p)": (s2 - s, ">=", gap2),
        "(iv) s1 + s2 - s >= n(1/p1 + 1/p2 - 1/p)": (s1 + s2 - s, ">=", gap12),
        _IV_STRICT: (s1 + s2 - s, ">", gap12),
        _IV_NONNEG: (gap12, ">=", 0),
        "(v) s1 + s2 >= n(1/p1 + 1/p2 - 1)": (s1 + s2, ">=", gap12_1),
        "(v) s1 + s2 > n(1/p1 + 1/p2 - 1) (strict)": (s1 + s2, ">", gap12_1),
        "(v) n(1/p1 + 1/p2 - 1) >= 0": (gap12_1, ">=", 0),
    }
    # the corollary transferring whole-space multiplication to Lipschitz
    # domains needs every space to agree with its closure variant:
    # s - 1/p must not be a negative integer
    transfer = ()
    if domain == DomainClass.BOUNDED_LIPSCHITZ:
        for label, sx, px in (("first factor", s1, p1),
                              ("second factor", s2, p2),
                              ("product", s, p)):
            v = sx - 1 / px
            text = (f"transfer: {label}: s - 1/p = {v} is not a negative "
                    f"integer")
            hypotheses[text] = (int(not (v.denominator == 1 and v <= -1)),
                                "==", 1)
            transfer += (text,)
    return _decide([_candidate("algebra 3.3", hypotheses, _ALGEBRA)] + [
        _candidate(tag, hypotheses, names + transfer)
        for tag, names in _MULTIPLICATIONS])


# ---------------------------------------------------------------------------
# Pointwise regimes: Banach algebra, L-infinity embedding, composition
# ---------------------------------------------------------------------------

_REGULAR_DOMAIN = "domain class is fullspace or lipschitz"
_POINTWISE = {
    "algebra": ("algebra 3.3", (_REGULAR_DOMAIN, "s*p > n")),
    "linfty": ("embedding II (L-infinity)", (_REGULAR_DOMAIN, "s*p > n")),
    "composition": ("composition", ("s >= 1", "s*p > n")),
}
POINTWISE_MODES = tuple(_POINTWISE)


def check_pointwise(spec: SpaceSpec, mode: str) -> Verdict:
    """Decide the s*p > n pointwise regimes for a single space."""
    if mode not in POINTWISE_MODES:
        raise ValueError(f"mode must be one of {POINTWISE_MODES}, got {mode!r}")
    hypotheses = {
        _REGULAR_DOMAIN: (int(spec.domain_class in (
            DomainClass.FULL_SPACE, DomainClass.BOUNDED_LIPSCHITZ)), "==", 1),
        "s >= 1": (spec.s, ">=", 1),
        "s*p > n": (spec.s * spec.p, ">", spec.n),
    }
    tag, names = _POINTWISE[mode]
    return _decide([_candidate(tag, hypotheses, names)])


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

_DERIVATIVES_ON_OPEN = (
    ("derivative 2 (s < 0, any open set)", ("s < 0",)),
    ("derivative 3 (|alpha| <= s, any open set)", ("s >= 0", "|alpha| <= s")),
)
_DERIVATIVES = {
    DomainClass.FULL_SPACE: (
        ("derivative 1 (whole space, any s)", ("|alpha| >= 1",)),),
    DomainClass.BOUNDED_LIPSCHITZ: _DERIVATIVES_ON_OPEN + (
        ("derivative 4 (Lipschitz, |alpha| > s)", (
            "s >= 0", "|alpha| > s",
            "fractional part of s differs from 1/p (s - 1/p not an integer)")),
    ),
    DomainClass.GENERAL_OPEN: _DERIVATIVES_ON_OPEN,
    DomainClass.COMPACT_SUPPORT_IN_OPEN: _DERIVATIVES_ON_OPEN,
}


def check_derivative(spec: SpaceSpec, order: int) -> Verdict:
    """Decide whether d^alpha maps W^{s,p} into W^{s-|alpha|,p}."""
    order = int(order)
    if order < 1:
        raise ExponentError(f"derivative order must be >= 1, got {order}")
    s, p = spec.s, spec.p
    domain = spec.domain_class
    hypotheses = {
        "|alpha| >= 1": (order, ">=", 1),
        "s < 0": (s, "<", 0),
        "s >= 0": (s, ">=", 0),
        "|alpha| <= s": (order, "<=", s),
        "|alpha| > s": (order, ">", s),
        "fractional part of s differs from 1/p (s - 1/p not an integer)":
            (s - 1 / p, "not-integer", 0),
    }
    return _decide(
        [_candidate(tag, hypotheses, names)
         for tag, names in _DERIVATIVES.get(domain, ())],
        target=(s - order, p),
        no_family_text=f"a differentiation family is encoded for domain "
                       f"class '{domain.value}'")


# ---------------------------------------------------------------------------
# Extension by zero
# ---------------------------------------------------------------------------

_EXTENSIONS = (
    ("extension by zero (s >= 0)", ("s >= 0 (two-sided norm comparability)",)),
    ("extension by zero (integer s <= -1)", ("s <= -1", "s is an integer")),
    ("extension by zero (-1 < s < 0)", ("-1 < s", "s < 0")),
    ("extension by zero (s < 0, regular enclosing set)", (
        "s < 0",
        "enclosing open set is flagged Lipschitz or the whole space")),
)


def check_extension(spec: SpaceSpec) -> Verdict:
    """Decide norm comparability of extension by zero for W^{s,p}_K."""
    if spec.domain_class != DomainClass.COMPACT_SUPPORT_IN_OPEN:
        raise WrongDomainClass(
            "extension by zero applies to compactly supported spaces "
            f"(domain class 'compact-support'), got '{spec.domain_class.value}'")
    s = spec.s
    hypotheses = {
        "s >= 0 (two-sided norm comparability)": (s, ">=", 0),
        "s <= -1": (s, "<=", -1),
        "s is an integer": (s, "integer", 0),
        "-1 < s": (-1, "<", s),
        "s < 0": (s, "<", 0),
        "enclosing open set is flagged Lipschitz or the whole space":
            (int(spec.enclosing in ("lipschitz", "fullspace")), "==", 1),
    }
    return _decide([_candidate(tag, hypotheses, names)
                    for tag, names in _EXTENSIONS])
