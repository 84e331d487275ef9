"""Exact admissibility checks for smoothness/integrability exponent pairs.

Every check evaluates the hypothesis list of one or more classical
results (embedding, pointwise multiplication, Banach algebra,
differentiation, extension by zero, composition) in exact rational
arithmetic and returns a :class:`Verdict` whose condition trace can be
re-evaluated independently.  ``NotGuaranteed`` always means "none of the
encoded sufficient conditions applies", never that the statement is
false.

No floats enter this module: exponents are :class:`fractions.Fraction`
values, so boundary cases (equality against a strict or non-strict
inequality) are decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class ExponentError(ValueError):
    """Invalid exponent data (p out of range, float input, ...)."""


class DimensionMismatch(ValueError):
    pass


class WrongDomainClass(ValueError):
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


_OPEN_CLASSES = (
    DomainClass.BOUNDED_LIPSCHITZ,
    DomainClass.GENERAL_OPEN,
    DomainClass.COMPACT_SUPPORT_IN_OPEN,
)


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
    relation: str  # one of <, <=, >, >=, ==, !=, integer, not-integer
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


def _holds(lhs: Fraction, relation: str, rhs: Fraction) -> bool:
    if relation == "<":
        return lhs < rhs
    if relation == "<=":
        return lhs <= rhs
    if relation == ">":
        return lhs > rhs
    if relation == ">=":
        return lhs >= rhs
    if relation == "==":
        return lhs == rhs
    if relation == "!=":
        return lhs != rhs
    if relation == "integer":
        return lhs.denominator == 1
    if relation == "not-integer":
        return lhs.denominator != 1
    raise ValueError(f"unknown relation {relation!r}")


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

    def to_json(self) -> dict:
        out = {
            "schema": "v1",
            "kind": "verdict",
            "result": self.result,
            "theorem": self.theorem_tag,
            "conditions": [c.to_json() for c in self.conditions],
            "candidates": [c.to_json() for c in self.candidates],
        }
        if self.target is not None:
            out["target"] = {"s": str(self.target[0]), "p": str(self.target[1])}
        return out


class _Trace:
    """Accumulates exact conditions for one candidate theorem."""

    def __init__(self):
        self.conditions: list[Condition] = []
        self.ok = True

    def require(self, text: str, lhs, relation: str, rhs=Fraction(0)) -> bool:
        lhs = Fraction(lhs)
        rhs = Fraction(rhs)
        sat = _holds(lhs, relation, rhs)
        self.conditions.append(Condition(text, lhs, relation, rhs, sat))
        self.ok = self.ok and sat
        return sat

    def flag(self, text: str, value: bool) -> bool:
        # boolean side conditions, rendered as an exact 1/0 comparison so
        # the trace stays re-checkable
        return self.require(text, Fraction(1 if value else 0), "==", Fraction(1))


def _decide(candidates: list[tuple[str, _Trace]],
            target=None, no_family_text: str | None = None) -> Verdict:
    recorded = tuple(
        Candidate(tag, tuple(tr.conditions), tr.ok) for tag, tr in candidates)
    for cand in recorded:
        if cand.matched:
            return Verdict(ADMISSIBLE, cand.theorem_tag, cand.conditions,
                           recorded, target)
    failing = []
    for cand in recorded:
        first_bad = next((c for c in cand.conditions if not c.satisfied), None)
        if first_bad is not None:
            failing.append(first_bad)
    if not failing and no_family_text:
        failing = [Condition(no_family_text, Fraction(0), ">", Fraction(0), False)]
    return Verdict(NOT_GUARANTEED, None, tuple(failing), recorded, None)


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

def _embedding_I(tr: _Trace, s, p, t, q, n):
    tr.require("p <= q", p, "<=", q)
    tr.require("t <= s", t, "<=", s)
    tr.require("s - n/p >= t - n/q", s - Fraction(n) / p, ">=", t - Fraction(n) / q)


def check_embedding(frm: SpaceSpec, to: SpaceSpec) -> Verdict:
    """Decide W^{s,p} -> W^{t,q} on the shared domain class."""
    n = _same_dimension(frm, to)
    domain = _same_domain(frm, to)
    s, p = frm.s, frm.p
    t, q = to.s, to.p
    nn = Fraction(n)

    candidates: list[tuple[str, _Trace]] = []

    if domain == DomainClass.FULL_SPACE:
        tr = _Trace()
        _embedding_I(tr, s, p, t, q, n)
        candidates.append(("embedding I", tr))
    elif domain == DomainClass.BOUNDED_LIPSCHITZ:
        tr = _Trace()
        tr.require("0 <= t", Fraction(0), "<=", t)
        tr.require("t <= s", t, "<=", s)
        tr.require("s - n/p >= t - n/q", s - nn / p, ">=", t - nn / q)
        candidates.append(("embedding III", tr))
    elif domain == DomainClass.GENERAL_OPEN:
        tr = _Trace()
        tr.require("q = p", q, "==", p)
        tr.require("s is a nonnegative integer (s >= 0)", s, ">=", 0)
        tr.require("s is a nonnegative integer", s, "integer")
        tr.require("t is a nonnegative integer (t >= 0)", t, ">=", 0)
        tr.require("t is a nonnegative integer", t, "integer")
        tr.require("t <= s", t, "<=", s)
        candidates.append(("embedding IV.3", tr))

        tr = _Trace()
        tr.require("q = p", q, "==", p)
        tr.require("0 <= t", Fraction(0), "<=", t)
        tr.require("t <= s", t, "<=", s)
        tr.require("s < 1", s, "<", 1)
        candidates.append(("embedding IV.4", tr))

        tr = _Trace()
        tr.require("q = p", q, "==", p)
        tr.require("0 <= t", Fraction(0), "<=", t)
        tr.require("t <= s", t, "<=", s)
        tr.require("floor(s) = floor(t)",
                   Fraction(s.numerator // s.denominator), "==",
                   Fraction(t.numerator // t.denominator))
        candidates.append(("embedding IV.5", tr))

        tr = _Trace()
        tr.require("q = p", q, "==", p)
        tr.require("t is a nonnegative integer (t >= 0)", t, ">=", 0)
        tr.require("t is a nonnegative integer", t, "integer")
        tr.require("t <= s", t, "<=", s)
        candidates.append(("embedding IV.6", tr))
    elif domain == DomainClass.COMPACT_SUPPORT_IN_OPEN:
        tr = _Trace()
        tr.require("p <= q", p, "<=", q)
        tr.require("0 <= t", Fraction(0), "<=", t)
        tr.require("t <= s", t, "<=", s)
        tr.require("s - n/p >= t - n/q", s - nn / p, ">=", t - nn / q)
        candidates.append(("embedding IV.2", tr))

    return _decide(
        candidates,
        no_family_text=f"an embedding family is encoded for domain class "
                       f"'{domain.value}'")


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def _lipschitz_transfer(tr: _Trace, spaces):
    # the corollary transferring whole-space multiplication to Lipschitz
    # domains needs every space to agree with its closure variant:
    # s - 1/p must not be a negative integer
    for label, (s, p) in spaces:
        v = s - 1 / p
        ok = not (v.denominator == 1 and v <= -1)
        tr.flag(f"transfer: {label}: s - 1/p = {v} is not a negative integer", ok)


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
    nn = Fraction(n)

    if domain not in (DomainClass.FULL_SPACE, DomainClass.BOUNDED_LIPSCHITZ):
        return _decide([], no_family_text=(
            f"a multiplication family is encoded for domain class "
            f"'{domain.value}'"))

    lipschitz = domain == DomainClass.BOUNDED_LIPSCHITZ
    spaces = [("first factor", (s1, p1)), ("second factor", (s2, p2)),
              ("product", (s, p))]
    candidates: list[tuple[str, _Trace]] = []

    # Banach algebra shortcut: all three spaces identical with s p > n
    tr = _Trace()
    tr.require("factors and product share s", s1, "==", s)
    tr.require("factors share s", s2, "==", s)
    tr.require("factors and product share p", p1, "==", p)
    tr.require("factors share p", p2, "==", p)
    tr.require("s*p > n", s * p, ">", nn)
    candidates.append(("algebra 3.3", tr))

    # 4.6 with interchangeable strictness of (iii)/(iv)
    for variant, iii_rel, iv_rel in (("iii strict", ">", ">="),
                                     ("iv strict", ">=", ">")):
        tr = _Trace()
        tr.require("(i) s1 >= s", s1, ">=", s)
        tr.require("(i) s2 >= s", s2, ">=", s)
        tr.require("(i) s >= 0", s, ">=", 0)
        tr.require("(ii) s is an integer", s, "integer")
        tr.require(f"(iii) s1 - s {iii_rel} n(1/p1 - 1/p)",
                   s1 - s, iii_rel, nn * (1 / p1 - 1 / p))
        tr.require(f"(iii) s2 - s {iii_rel} n(1/p2 - 1/p)",
                   s2 - s, iii_rel, nn * (1 / p2 - 1 / p))
        tr.require(f"(iv) s1 + s2 - s {iv_rel} n(1/p1 + 1/p2 - 1/p)",
                   s1 + s2 - s, iv_rel, nn * (1 / p1 + 1 / p2 - 1 / p))
        tr.require("(iv) n(1/p1 + 1/p2 - 1/p) >= 0",
                   nn * (1 / p1 + 1 / p2 - 1 / p), ">=", 0)
        if lipschitz:
            _lipschitz_transfer(tr, spaces)
        candidates.append((f"multiplication 4.6 ({variant})", tr))

    # 4.1: nonnegative smoothness, p_i <= p
    tr = _Trace()
    tr.require("p1 <= p", p1, "<=", p)
    tr.require("p2 <= p", p2, "<=", p)
    tr.require("(i) s1 >= s", s1, ">=", s)
    tr.require("(i) s2 >= s", s2, ">=", s)
    tr.require("(ii) s >= 0", s, ">=", 0)
    tr.require("(iii) s1 - s >= n(1/p1 - 1/p)", s1 - s, ">=", nn * (1 / p1 - 1 / p))
    tr.require("(iii) s2 - s >= n(1/p2 - 1/p)", s2 - s, ">=", nn * (1 / p2 - 1 / p))
    tr.require("(iv) s1 + s2 - s > n(1/p1 + 1/p2 - 1/p)",
               s1 + s2 - s, ">", nn * (1 / p1 + 1 / p2 - 1 / p))
    if lipschitz:
        _lipschitz_transfer(tr, spaces)
    candidates.append(("multiplication 4.1", tr))

    # 4.3: some factor negative
    tr = _Trace()
    tr.require("p1 <= p", p1, "<=", p)
    tr.require("p2 <= p", p2, "<=", p)
    tr.require("(i) s1 >= s", s1, ">=", s)
    tr.require("(i) s2 >= s", s2, ">=", s)
    tr.require("(ii) min(s1, s2) < 0", min(s1, s2), "<", 0)
    tr.require("(iii) s1 - s >= n(1/p1 - 1/p)", s1 - s, ">=", nn * (1 / p1 - 1 / p))
    tr.require("(iii) s2 - s >= n(1/p2 - 1/p)", s2 - s, ">=", nn * (1 / p2 - 1 / p))
    tr.require("(iv) s1 + s2 - s > n(1/p1 + 1/p2 - 1/p)",
               s1 + s2 - s, ">", nn * (1 / p1 + 1 / p2 - 1 / p))
    tr.require("(v) s1 + s2 >= n(1/p1 + 1/p2 - 1)",
               s1 + s2, ">=", nn * (1 / p1 + 1 / p2 - 1))
    tr.require("(v) n(1/p1 + 1/p2 - 1) >= 0",
               nn * (1 / p1 + 1 / p2 - 1), ">=", 0)
    if lipschitz:
        _lipschitz_transfer(tr, spaces)
    candidates.append(("multiplication 4.3", tr))

    # 4.5: nonnegative factors, negative product space
    tr = _Trace()
    tr.require("(i) s1 >= s", s1, ">=", s)
    tr.require("(i) s2 >= s", s2, ">=", s)
    tr.require("(ii) min(s1, s2) >= 0", min(s1, s2), ">=", 0)
    tr.require("(ii) s < 0", s, "<", 0)
    tr.require("(iii) s1 - s >= n(1/p1 - 1/p)", s1 - s, ">=", nn * (1 / p1 - 1 / p))
    tr.require("(iii) s2 - s >= n(1/p2 - 1/p)", s2 - s, ">=", nn * (1 / p2 - 1 / p))
    tr.require("(iv) s1 + s2 - s > n(1/p1 + 1/p2 - 1/p)",
               s1 + s2 - s, ">", nn * (1 / p1 + 1 / p2 - 1 / p))
    tr.require("(iv) n(1/p1 + 1/p2 - 1/p) >= 0",
               nn * (1 / p1 + 1 / p2 - 1 / p), ">=", 0)
    tr.require("(v) s1 + s2 > n(1/p1 + 1/p2 - 1) (strict)",
               s1 + s2, ">", nn * (1 / p1 + 1 / p2 - 1))
    if lipschitz:
        _lipschitz_transfer(tr, spaces)
    candidates.append(("multiplication 4.5", tr))

    return _decide(candidates)


# ---------------------------------------------------------------------------
# Pointwise regimes: Banach algebra, L-infinity embedding, composition
# ---------------------------------------------------------------------------

POINTWISE_MODES = ("algebra", "linfty", "composition")


def check_pointwise(spec: SpaceSpec, mode: str) -> Verdict:
    """Decide the s*p > n pointwise regimes for a single space."""
    if mode not in POINTWISE_MODES:
        raise ValueError(f"mode must be one of {POINTWISE_MODES}, got {mode!r}")
    s, p = spec.s, spec.p
    nn = Fraction(spec.n)

    if mode in ("algebra", "linfty"):
        tag = "algebra 3.3" if mode == "algebra" else "embedding II (L-infinity)"
        tr = _Trace()
        tr.flag("domain class is fullspace or lipschitz",
                spec.domain_class in (DomainClass.FULL_SPACE,
                                      DomainClass.BOUNDED_LIPSCHITZ))
        tr.require("s*p > n", s * p, ">", nn)
        return _decide([(tag, tr)])

    tr = _Trace()
    tr.require("s >= 1", s, ">=", 1)
    tr.require("s*p > n", s * p, ">", nn)
    return _decide([("composition", tr)])


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def check_derivative(spec: SpaceSpec, order: int) -> Verdict:
    """Decide whether d^alpha maps W^{s,p} into W^{s-|alpha|,p}."""
    order = int(order)
    if order < 1:
        raise ExponentError(f"derivative order must be >= 1, got {order}")
    s, p = spec.s, spec.p
    domain = spec.domain_class
    target = (s - order, p)
    o = Fraction(order)

    candidates: list[tuple[str, _Trace]] = []
    if domain == DomainClass.FULL_SPACE:
        tr = _Trace()
        tr.require("|alpha| >= 1", o, ">=", 1)
        candidates.append(("derivative 1 (whole space, any s)", tr))
    elif domain in _OPEN_CLASSES:
        tr = _Trace()
        tr.require("s < 0", s, "<", 0)
        candidates.append(("derivative 2 (s < 0, any open set)", tr))

        tr = _Trace()
        tr.require("s >= 0", s, ">=", 0)
        tr.require("|alpha| <= s", o, "<=", s)
        candidates.append(("derivative 3 (|alpha| <= s, any open set)", tr))

        if domain == DomainClass.BOUNDED_LIPSCHITZ:
            tr = _Trace()
            tr.require("s >= 0", s, ">=", 0)
            tr.require("|alpha| > s", o, ">", s)
            tr.require("fractional part of s differs from 1/p (s - 1/p not an integer)",
                       s - 1 / p, "not-integer")
            candidates.append(("derivative 4 (Lipschitz, |alpha| > s)", tr))

    return _decide(
        candidates,
        target=target,
        no_family_text=f"a differentiation family is encoded for domain "
                       f"class '{domain.value}'")


# ---------------------------------------------------------------------------
# Extension by zero
# ---------------------------------------------------------------------------

def check_extension(spec: SpaceSpec) -> Verdict:
    """Decide norm comparability of extension by zero for W^{s,p}_K."""
    if spec.domain_class != DomainClass.COMPACT_SUPPORT_IN_OPEN:
        raise WrongDomainClass(
            "extension by zero applies to compactly supported spaces "
            f"(domain class 'compact-support'), got '{spec.domain_class.value}'")
    s = spec.s

    candidates: list[tuple[str, _Trace]] = []

    tr = _Trace()
    tr.require("s >= 0 (two-sided norm comparability)", s, ">=", 0)
    candidates.append(("extension by zero (s >= 0)", tr))

    tr = _Trace()
    tr.require("s <= -1", s, "<=", -1)
    tr.require("s is an integer", s, "integer")
    candidates.append(("extension by zero (integer s <= -1)", tr))

    tr = _Trace()
    tr.require("-1 < s", Fraction(-1), "<", s)
    tr.require("s < 0", s, "<", 0)
    candidates.append(("extension by zero (-1 < s < 0)", tr))

    tr = _Trace()
    tr.require("s < 0", s, "<", 0)
    tr.flag("enclosing open set is flagged Lipschitz or the whole space",
            spec.enclosing in ("lipschitz", "fullspace"))
    candidates.append(("extension by zero (s < 0, regular enclosing set)", tr))

    return _decide(candidates)
