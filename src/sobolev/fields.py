"""Scalar data on R^n: regions and mollifier bumps.

Every scalar function is a bare :class:`~sobolev.funcexpr.Expr`, the
quadrature input included.  Globally smooth data are plain expressions;
compactly supported data (mollifier bumps, zero extensions, pulled-back
partition-of-unity factors) are expressions with
:class:`~sobolev.funcexpr.Piecewise` nodes whose branches are glued along
seams where all derivatives agree, so differentiation may act branch by
branch.  Every bump, the sphere charts' pulled-back bumps included, is
one nested plateau/band/zero Piecewise, built by one helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sobolev import ArgumentError
from sobolev.funcexpr import (
    ONE, ZERO, Call, Const, Expr, Piecewise, Var, add, div, eval_on_points,
    neg, pow_, prod_exprs, sub, sum_exprs,
)

__all__ = [
    "Field", "BoxRegion", "AnnulusRegion",
    "smoothstep_expr", "interval_bump", "box_bump", "radial_bump",
    "inverted_radial_bump", "radius_squared",
]

# Kept for the benchmark's two readers only: perfbench/tracer.py imports
# the name ``Field`` and wraps the ``values`` and ``partial`` methods of
# every subclass (those of Expr), and perfbench/selftest.py asserts that
# this module binds ``eval_on_points``.  ROADMAP item 6 deletes both this
# alias and that import with the benchmark change.
Field = Expr


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box, closed or open on every side.

    Bounds of None mean unbounded on that side.
    """

    lo: tuple
    hi: tuple
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(self.lo))
        object.__setattr__(self, "hi", tuple(self.hi))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        mask = np.ones(pts.shape[0], dtype=bool)
        for ax, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            x = pts[:, ax]
            if lo is not None:
                mask &= (x >= lo) if self.closed else (x > lo)
            if hi is not None:
                mask &= (x <= hi) if self.closed else (x < hi)
        return mask


@dataclass(frozen=True)
class AnnulusRegion:
    """Radial shell rlo <(=) |x| <(=) rhi about the origin, closed or open
    on both sides; a bound of None means unbounded on that side."""

    rlo: float | None
    rhi: float | None
    closed: bool = True

    def contains(self, pts: np.ndarray) -> np.ndarray:
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return BoxRegion((self.rlo,), (self.rhi,),
                         self.closed).contains(r[:, None])


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


def _bump(distance: Expr, plateau, support, regions) -> Expr:
    """1 on the plateau, the smoothstep of (support - distance)/(support -
    plateau) on the band, 0 outside: ``regions(plateau, support)`` gives
    the plateau and band regions once 0 < plateau < support holds."""
    if not 0 < plateau < support:
        raise ArgumentError("need 0 < plateau < support")
    inner, band = regions(plateau, support)
    a, b = Fraction(float(plateau)), Fraction(float(support))
    tau = div(sub(Const(b), distance), Const(b - a))
    return Piecewise(inner, ONE, Piecewise(band, smoothstep_expr(tau), ZERO))


def interval_bump(n: int, axis: int, center, plateau, support) -> Expr:
    """1-variable bump in x<axis>: 1 on [c-a, c+a], 0 outside (c-b, c+b)."""
    c = Fraction(center)

    def at(v):  # a bound vector: v on x<axis>, none on the other axes
        return [None] * (axis - 1) + [v] + [None] * (n - axis)

    return _bump(Call("abs", sub(Var(axis), Const(c))), Fraction(plateau),
                 Fraction(support), lambda a, b: (
                     BoxRegion(at(float(c - a) - _SEAM),
                               at(float(c + a) + _SEAM)),
                     BoxRegion(at(float(c - b) + _SEAM),
                               at(float(c + b) - _SEAM), closed=False)))


def box_bump(n: int, center, plateau, support) -> Expr:
    """Tensor-product bump about ``center``: 1 on the cube of half-width
    ``plateau``, 0 outside the cube of half-width ``support``."""
    return prod_exprs(interval_bump(n, ax + 1, center[ax], plateau, support)
                      for ax in range(n))


def radius_squared(n: int) -> Expr:
    """x1^2 + ... + xn^2."""
    return sum_exprs(pow_(Var(ax), Fraction(2)) for ax in range(1, n + 1))


def radial_bump(n: int, plateau, support) -> Expr:
    """Radial bump about the origin: 1 for |x| <= plateau, 0 for |x| >= support."""
    return _bump(Call("sqrt", radius_squared(n)), float(plateau),
                 float(support), lambda a, b: (
                     AnnulusRegion(None, a + _SEAM),
                     AnnulusRegion(a + _SEAM, b - _SEAM, closed=False)))


def inverted_radial_bump(n: int, plateau, support) -> Expr:
    """radial_bump through the inversion x / |x|^2: 1 for |x| >= 1/plateau,
    0 for |x| <= 1/support, so smooth across the origin."""
    return _bump(div(ONE, Call("sqrt", radius_squared(n))), float(plateau),
                 float(support), lambda a, b: (
                     AnnulusRegion(1.0 / a * (1.0 - _SEAM), None),
                     AnnulusRegion(1.0 / b * (1.0 + _SEAM),
                                   1.0 / a * (1.0 - _SEAM), closed=False)))
