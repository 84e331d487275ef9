"""Scalar fields on R^n: an expression together with its dimension.

Quadrature routines take a :class:`Field`: vectorized values plus analytic
partial derivatives.  Globally smooth data are plain expressions;
compactly supported data (mollifier bumps, zero extensions, pulled-back
partition-of-unity factors) are expressions with
:class:`~sobolev.funcexpr.Piecewise` nodes whose branches are glued along
seams where all derivatives agree, so differentiation may act branch by
branch.  Products, sums and scalar multiples of fields are built as
expressions with the folding constructors of :mod:`sobolev.funcexpr`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sobolev.funcexpr import (
    ONE, ZERO, Call, Const, Expr, Piecewise, Var, add, diff_expr, div,
    eval_on_points, neg, pow_, prod_exprs, sub,
)

__all__ = [
    "Field", "ExprField", "BoxRegion", "AnnulusRegion", "as_field",
    "smoothstep_expr", "interval_bump", "box_bump", "radial_bump",
    "radius_squared",
]


@dataclass(frozen=True)
class Field:
    """A scalar field: vectorized evaluation plus analytic partials."""

    expr: Expr
    n: int

    def values(self, pts: np.ndarray) -> np.ndarray:
        return eval_on_points(self.expr, pts)

    def partial(self, axis: int) -> "Field":
        """Partial derivative along x<axis> (1-based)."""
        return Field(diff_expr(self.expr, axis), self.n)


ExprField = Field


def _per_axis(flag, k: int) -> tuple:
    return tuple(flag) if isinstance(flag, (list, tuple)) else (flag,) * k


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box; per-axis bounds may be inclusive or exclusive.

    Bounds of None mean unbounded on that side.
    """

    lo: tuple
    hi: tuple
    lo_closed: bool | tuple = True
    hi_closed: bool | tuple = True

    def __post_init__(self):
        k = len(self.lo)
        object.__setattr__(self, "lo", tuple(self.lo))
        object.__setattr__(self, "hi", tuple(self.hi))
        object.__setattr__(self, "lo_closed", _per_axis(self.lo_closed, k))
        object.__setattr__(self, "hi_closed", _per_axis(self.hi_closed, k))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        mask = np.ones(pts.shape[0], dtype=bool)
        for ax, (lo, hi, lc, hc) in enumerate(
                zip(self.lo, self.hi, self.lo_closed, self.hi_closed)):
            x = pts[:, ax]
            if lo is not None:
                mask &= (x >= lo) if lc else (x > lo)
            if hi is not None:
                mask &= (x <= hi) if hc else (x < hi)
        return mask


@dataclass(frozen=True)
class AnnulusRegion:
    """Radial shell rlo <(=) |x| <(=) rhi about the origin."""

    rlo: float | None
    rhi: float | None
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, pts: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.sum(pts * pts, axis=1))
        mask = np.ones(pts.shape[0], dtype=bool)
        if self.rlo is not None:
            mask &= (r >= self.rlo) if self.lo_closed else (r > self.rlo)
        if self.rhi is not None:
            mask &= (r <= self.rhi) if self.hi_closed else (r < self.rhi)
        return mask


def as_field(u, n: int) -> Field:
    """Coerce an Expr or Field to a Field of dimension n."""
    if isinstance(u, Expr):
        return Field(u, n)
    if isinstance(u, Field):
        if u.n != n:
            raise ValueError(f"field has dimension {u.n}, expected {n}")
        return u
    raise TypeError(f"cannot interpret {type(u).__name__} as a scalar field")


# ---------------------------------------------------------------------------
# Mollifier bumps: exp(-1/t)-type profiles rescaled to hold the value 1 on
# an inner plateau, smoothly decaying to 0 at the support edge.
# ---------------------------------------------------------------------------

# Seam margin for piecewise bump regions.  Within this distance of the
# plateau/support edges the profile equals 1.0/0.0 to double precision
# (the mollifier underflows), so the constant pieces may safely absorb a
# band this wide; it keeps the band expression strictly away from the
# removable singularities of the smoothstep at 0 and 1.
_SEAM = 1e-9


def smoothstep_expr(arg: Expr) -> Expr:
    """exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))) — valid for arg in (0, 1).

    Equals 0 and 1 in the limits t -> 0+ and t -> 1- with all derivatives
    vanishing; the numeric evaluation underflows gracefully near both
    ends (the denominator stays >= e^-2).
    """
    f_lo = Call("exp", neg(div(ONE, arg)))
    f_hi = Call("exp", neg(div(ONE, sub(ONE, arg))))
    return div(f_lo, add(f_lo, f_hi))


def _band_expr(distance: Expr, plateau: float, support: float) -> Expr:
    # smoothstep of (support - distance)/(support - plateau)
    tau = div(sub(Const(Fraction(support)), distance),
              Const(Fraction(support) - Fraction(plateau)))
    return smoothstep_expr(tau)


def interval_bump(n: int, axis: int, center, plateau, support) -> Field:
    """1-variable bump in x<axis>: 1 on [c-a, c+a], 0 outside (c-b, c+b)."""
    center = Fraction(center)
    a = Fraction(plateau)
    b = Fraction(support)
    if not 0 < a < b:
        raise ValueError("need 0 < plateau < support")
    dist = Call("abs", sub(Var(axis), Const(center)))
    lo = [None] * n
    hi = [None] * n
    plat_lo, plat_hi = list(lo), list(hi)
    plat_lo[axis - 1] = float(center - a) - _SEAM
    plat_hi[axis - 1] = float(center + a) + _SEAM
    band_lo, band_hi = list(lo), list(hi)
    band_lo[axis - 1] = float(center - b) + _SEAM
    band_hi[axis - 1] = float(center + b) - _SEAM
    band = BoxRegion(band_lo, band_hi, lo_closed=False, hi_closed=False)
    return Field(Piecewise(BoxRegion(plat_lo, plat_hi), ONE,
                           Piecewise(band, _band_expr(dist, float(a), float(b)),
                                     ZERO)), n)


def box_bump(n: int, center, plateau, support) -> Field:
    """Tensor-product bump: 1 on the plateau box, 0 outside the support box."""
    center = [Fraction(c) for c in center]
    plateau = [Fraction(plateau)] * n if not isinstance(plateau, (list, tuple)) \
        else [Fraction(a) for a in plateau]
    support = [Fraction(support)] * n if not isinstance(support, (list, tuple)) \
        else [Fraction(b) for b in support]
    return Field(prod_exprs(
        interval_bump(n, ax + 1, center[ax], plateau[ax], support[ax]).expr
        for ax in range(n)), n)


def radius_squared(n: int) -> Expr:
    """x1^2 + ... + xn^2."""
    r2 = pow_(Var(1), Fraction(2))
    for ax in range(2, n + 1):
        r2 = add(r2, pow_(Var(ax), Fraction(2)))
    return r2


def radial_bump(n: int, plateau, support) -> Field:
    """Radial bump about the origin: 1 for |x| <= plateau, 0 for |x| >= support."""
    a = float(plateau)
    b = float(support)
    if not 0 < a < b:
        raise ValueError("need 0 < plateau < support")
    band = AnnulusRegion(a + _SEAM, b - _SEAM, lo_closed=False,
                         hi_closed=False)
    return Field(Piecewise(AnnulusRegion(None, a + _SEAM), ONE,
                           Piecewise(band, _band_expr(
                               Call("sqrt", radius_squared(n)), a, b), ZERO)),
                 n)
