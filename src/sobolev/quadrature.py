"""Sobolev-Slobodeckij norms on Euclidean boxes by midpoint quadrature.

Everything runs on uniform cell-midpoint grids: the L^p norm is a plain
composite midpoint rule, integer-order norms combine midpoint rules of
analytic derivatives, and the fractional seminorm

    |u|_{theta,p}^p = integral integral |u(x)-u(y)|^p / |x-y|^{n+theta p}

is a midpoint rule over the grid of cell pairs with exact-diagonal pairs
excluded.  The excluded diagonal is integrable (theta < 1); a local
Lipschitz model for its contribution enters the error estimate but never
the value.  The cost of the double sum is (N^n)^2 cell pairs, so the
defaults are N=256 for n=1 and N=64 for n=2.

Error estimates are two-grid differences (value at N versus N/2) plus,
for the fractional seminorm, the diagonal model.

All inputs are immutable during computation and the cell-pair sum is a
plain sum of per-block partial sums, so partial results may be computed
in any partition and combined by addition; the built-in evaluation order
is fixed, making every value reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from sobolev.fields import BoxRegion, Field, as_field
from sobolev.funcexpr import ZERO, Piecewise

__all__ = [
    "BoxDomain", "GridFunction", "NormReport", "SupportViolation",
    "lp_norm", "gagliardo_seminorm", "sobolev_norm", "extend_by_zero",
    "gagliardo_double_sum", "multi_indices", "grid_shape", "coarse_shape",
]


class SupportViolation(ValueError):
    """The declared compact support leaks onto the boundary margin."""


class GridAlignmentError(ValueError):
    """Boxes whose grids cannot share a common lattice."""


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned product of closed bounded intervals with interior."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", b)
        for lo, hi in b:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("box bounds must be finite")
            if not lo < hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in self.bounds:
            v *= hi - lo
        return v

    def lengths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.bounds])

    def contains(self, other: "BoxDomain") -> bool:
        return all(lo <= olo and ohi <= hi
                   for (lo, hi), (olo, ohi) in zip(self.bounds, other.bounds))

    def interior(self, pts: np.ndarray) -> np.ndarray:
        """Mask of the points strictly inside the box."""
        inside = np.ones(pts.shape[0], dtype=bool)
        for ax, (lo, hi) in enumerate(self.bounds):
            inside &= (pts[:, ax] > lo) & (pts[:, ax] < hi)
        return inside

    def to_json(self):
        return [list(b) for b in self.bounds]


def box(*bounds) -> BoxDomain:
    return BoxDomain(tuple(bounds))


def grid_shape(n: int, N=None) -> tuple[int, ...]:
    """Per-axis cell counts from N: one count for every axis, a per-axis
    tuple, or None for the default (256 cells for n=1, 64 per axis
    otherwise).

    Every axis needs at least 2 cells, because the two-grid error
    estimate halves each count.  The fractional seminorm also takes its
    double sum on the halved grid, so it needs at least 4.
    """
    if N is None:
        N = 256 if n == 1 else 64
    shape = (N,) * n if isinstance(N, int) else tuple(int(k) for k in N)
    if len(shape) != n:
        raise ValueError("per-axis resolution length must match dimension")
    if min(shape) < 2:
        raise ValueError(
            f"grid resolution must be at least 2 per axis, got {list(shape)}")
    return shape


def coarse_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The half-resolution grid of the two-grid error estimate."""
    return tuple(k // 2 for k in shape)


def midpoint_grid(box: BoxDomain, shape: tuple[int, ...]):
    """Cell midpoints (row-major), cell volume, per-axis spacings."""
    axes = []
    hs = []
    for (lo, hi), k in zip(box.bounds, shape):
        h = (hi - lo) / k
        axes.append(lo + (np.arange(k) + 0.5) * h)
        hs.append(h)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    cellvol = float(np.prod(hs))
    return pts, cellvol, np.array(hs)


@dataclass
class GridFunction:
    """Cell-midpoint samples of a function on a box (midpoint convention)."""

    domain: BoxDomain
    values: np.ndarray  # shape = per-axis resolution
    source: Field | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != self.domain.n:
            raise ValueError("value array rank must equal the box dimension")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def restrict(self, sub: BoxDomain) -> "GridFunction":
        """Restriction by exact index slicing onto an aligned sub-box."""
        slices = []
        hs = []
        for (lo, hi), (slo, shi), k in zip(self.domain.bounds, sub.bounds,
                                           self.shape):
            h = (hi - lo) / k
            hs.append(h)
            i0 = (slo - lo) / h
            i1 = (shi - lo) / h
            if abs(i0 - round(i0)) > 1e-9 or abs(i1 - round(i1)) > 1e-9:
                raise GridAlignmentError(
                    "sub-box edges must lie on the grid lattice")
            slices.append(slice(int(round(i0)), int(round(i1))))
        return GridFunction(sub, self.values[tuple(slices)], self.source)


@dataclass
class NormReport:
    """Value with its per-term breakdown, grid metadata and error estimate."""

    value: float
    terms: list = dataclass_field(default_factory=list)
    grid: dict = dataclass_field(default_factory=dict)
    error_estimate: float = 0.0
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "kind": "norm_report",
            "value": self.value,
            "terms": self.terms,
            "grid": self.grid,
            "error_estimate": self.error_estimate,
            **({"extras": self.extras} if self.extras else {}),
        }


def _check_p(p: float):
    p = float(p)
    if not (p > 1 and math.isfinite(p)):
        raise ValueError(f"integrability p must be finite and > 1, got {p}")
    return p


def _grid_meta(box: BoxDomain, shape):
    return {"box": box.to_json(), "resolution": list(shape)}


# ---------------------------------------------------------------------------
# L^p norm
# ---------------------------------------------------------------------------

def _lp_value(f: Field, box: BoxDomain, p: float, shape) -> float:
    pts, cellvol, _ = midpoint_grid(box, shape)
    vals = f.values(pts)
    return float(np.sum(np.abs(vals) ** p) * cellvol) ** (1.0 / p)


def lp_norm(u, box: BoxDomain = None, p: float = 2.0, N=None) -> NormReport:
    """Composite-midpoint L^p norm of an expression, field or grid function."""
    p = _check_p(p)
    if isinstance(u, GridFunction):
        if box is not None and box != u.domain:
            raise ValueError("grid function carries its own box")
        box = u.domain
        shape = u.shape
        vals = np.abs(u.values.ravel()) ** p
        cellvol = box.volume / vals.size
        value = float(np.sum(vals) * cellvol) ** (1.0 / p)
        coarse = _strided_coarse_lp(u, p)
        err = abs(value - coarse)
    else:
        if box is None:
            raise ValueError("a box domain is required")
        f = as_field(u, box.n)
        shape = grid_shape(box.n, N)
        value = _lp_value(f, box, p, shape)
        err = abs(value - _lp_value(f, box, p, coarse_shape(shape)))
    return NormReport(
        value=value,
        terms=[{"kind": "lp", "p": p, "value": value}],
        grid=_grid_meta(box, shape),
        error_estimate=err,
    )


def _strided_coarse_lp(u: GridFunction, p: float) -> float:
    sub = u.values[tuple(slice(None, None, 2) for _ in u.shape)]
    cellvol = u.domain.volume / sub.size
    return float(np.sum(np.abs(sub) ** p) * cellvol) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Gagliardo seminorm
# ---------------------------------------------------------------------------

def gagliardo_double_sum(u, box: BoxDomain, theta: float, p: float,
                         N=None, half: bool = True) -> float:
    """Raw midpoint double sum over distinct cell pairs (no 1/p power).

    With ``half=True`` the x<y half is computed and doubled; with
    ``half=False`` all ordered pairs are summed directly.  The two agree
    up to floating-point roundoff, which the symmetry property test pins.
    """
    p = _check_p(p)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie strictly in (0, 1), got {theta}")
    f = as_field(u, box.n)
    shape = grid_shape(box.n, N)
    pts, cellvol, _ = midpoint_grid(box, shape)
    vals = f.values(pts)
    alpha = box.n + theta * p
    M = vals.size
    chunk = max(1, int(4_000_000 / max(M, 1)))
    total = 0.0
    for i0 in range(0, M, chunk):
        i1 = min(i0 + chunk, M)
        if half:
            dv = vals[i0:i1, None] - vals[None, i0:]
            d2 = np.zeros((i1 - i0, M - i0))
            for ax in range(box.n):
                diff = pts[i0:i1, ax, None] - pts[None, i0:, ax]
                d2 += diff * diff
            rows = np.arange(i1 - i0)
            cols = np.arange(M - i0)
            tri = cols[None, :] > rows[:, None]  # strictly above the diagonal
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = np.where(tri, np.abs(dv) ** p / d2 ** (alpha / 2.0), 0.0)
            total += float(np.sum(contrib))
        else:
            dv = vals[i0:i1, None] - vals[None, :]
            d2 = np.zeros((i1 - i0, M))
            for ax in range(box.n):
                diff = pts[i0:i1, ax, None] - pts[None, :, ax]
                d2 += diff * diff
            offdiag = d2 > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = np.where(offdiag, np.abs(dv) ** p / np.where(
                    offdiag, d2, 1.0) ** (alpha / 2.0), 0.0)
            total += float(np.sum(contrib))
    total *= cellvol * cellvol
    if half:
        total *= 2.0
    return total


def _diagonal_model(f: Field, box: BoxDomain, theta: float, p: float, shape):
    """Upper bound for the excluded diagonal cells via a Lipschitz model.

    Each diagonal cell pair contributes at most
    L^p * c(n, theta, p) * h^(n + p(1-theta)) with L the local gradient
    magnitude; summed over cells this is O(h^{p(1-theta)}) total.
    """
    n = box.n
    pts, _, hs = midpoint_grid(box, shape)
    hmax = float(np.max(hs))
    grad2 = np.zeros(pts.shape[0])
    for ax in range(1, n + 1):
        g = f.partial(ax).values(pts)
        grad2 += g * g
    lp_grad = grad2 ** (p / 2.0)
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    c = omega * math.sqrt(n) ** (p * (1.0 - theta)) / (p * (1.0 - theta))
    return float(np.sum(lp_grad) * c * hmax ** (n + p * (1.0 - theta)))


def gagliardo_seminorm(u, box: BoxDomain, theta: float, p: float = 2.0,
                       N=None) -> NormReport:
    """Fractional-smoothness seminorm by the cell-pair midpoint rule.

    The exact-diagonal pairs are excluded from the value; a Lipschitz
    model of their contribution is folded into ``error_estimate``
    together with a two-grid difference.
    """
    p = _check_p(p)
    f = as_field(u, box.n)
    shape = grid_shape(box.n, N)
    S = gagliardo_double_sum(f, box, theta, p, shape)
    value = S ** (1.0 / p)

    coarse = gagliardo_double_sum(f, box, theta, p,
                                  coarse_shape(shape)) ** (1.0 / p)
    D = _diagonal_model(f, box, theta, p, shape)
    diag_effect = (S + D) ** (1.0 / p) - value
    err = abs(value - coarse) + diag_effect

    return NormReport(
        value=value,
        terms=[{"kind": "gagliardo", "theta": float(theta), "p": p,
                "value": value}],
        grid=_grid_meta(box, shape),
        error_estimate=err,
        extras={"diagonal_model": D, "two_grid_difference": abs(value - coarse)},
    )


# ---------------------------------------------------------------------------
# Full Sobolev-Slobodeckij norm
# ---------------------------------------------------------------------------

def multi_indices(n: int, upto: int):
    """All multi-indices of order <= upto in n variables, graded lexicographic."""
    out = []
    for total in range(upto + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) == total:
                out.append(combo)
    return out


def _derivative(f: Field, nu) -> Field:
    g = f
    for ax, k in enumerate(nu, start=1):
        for _ in range(k):
            g = g.partial(ax)
    return g


def sobolev_norm(u, box: BoxDomain, s: float, p: float = 2.0, N=None,
                 variant: str = "seminorm") -> NormReport:
    """W^{s,p} norm: lower-order L^p terms plus top-order fractional terms.

    value = sum_{|nu| <= k} ||d^nu u||_p  +  sum_{|nu| = k} |d^nu u|_{theta,p}
    with k = floor(s), theta = s - k.  ``variant="full"`` additionally
    counts the L^p norm of each top-order derivative inside its
    fractional term (the equivalent-norm variant); both values and their
    ratio are always reported.
    """
    s = float(s)
    if s < 0:
        raise ValueError(f"smoothness s must be >= 0 here, got {s}")
    if variant not in ("seminorm", "full"):
        raise ValueError("variant must be 'seminorm' or 'full'")
    p = _check_p(p)
    f = as_field(u, box.n)
    shape = grid_shape(box.n, N)
    k = int(math.floor(s))
    theta = s - k

    terms = []
    err = 0.0
    value_semi = 0.0
    top_lp = 0.0
    for nu in multi_indices(box.n, k):
        dnu = _derivative(f, nu)
        rep = lp_norm(dnu, box, p, shape)
        terms.append({"kind": "lp", "multi_index": list(nu), "p": p,
                      "value": rep.value})
        value_semi += rep.value
        err += rep.error_estimate
        if sum(nu) == k:
            top_lp += rep.value
        if theta > 0.0 and sum(nu) == k:
            grep = gagliardo_seminorm(dnu, box, theta, p, shape)
            terms.append({"kind": "gagliardo", "multi_index": list(nu),
                          "theta": theta, "p": p, "value": grep.value})
            value_semi += grep.value
            err += grep.error_estimate

    value_full = value_semi + (top_lp if theta > 0.0 else 0.0)
    value = value_full if variant == "full" else value_semi
    if variant == "full" and theta > 0.0:
        for nu in multi_indices(box.n, k):
            if sum(nu) == k:
                lp_val = next(t["value"] for t in terms
                              if t["kind"] == "lp" and t["multi_index"] == list(nu))
                terms.append({"kind": "lp (fractional-term part)",
                              "multi_index": list(nu), "p": p, "value": lp_val})

    extras = {"variant": variant,
              "seminorm_variant_value": value_semi,
              "full_variant_value": value_full}
    if value_semi > 0:
        extras["variant_ratio"] = value_full / value_semi
    return NormReport(value=value, terms=terms,
                      grid=_grid_meta(box, shape),
                      error_estimate=err, extras=extras)


# ---------------------------------------------------------------------------
# Extension by zero
# ---------------------------------------------------------------------------

def extend_by_zero(u, inner: BoxDomain, outer: BoxDomain, N=None,
                   support_tol: float = 1e-9) -> GridFunction:
    """Extend a compactly supported function by zero to a larger box.

    ``u`` must vanish (within ``support_tol``) on the outermost cell
    layer of the inner grid; the outer box must extend the inner box by
    whole cells so that restriction reproduces the inner samples exactly.
    The returned grid function carries a piecewise source field usable in
    norm computations on the outer box.
    """
    if not outer.contains(inner):
        raise ValueError("inner box must be contained in the outer box")
    f = as_field(u, inner.n)
    shape = grid_shape(inner.n, N)
    pts, _, hs = midpoint_grid(inner, shape)
    vals = f.values(pts).reshape(shape)

    # margin check: outermost cell layer plus the exact boundary facets
    margin_mask = np.zeros(shape, dtype=bool)
    for ax in range(inner.n):
        sl = [slice(None)] * inner.n
        sl[ax] = 0
        margin_mask[tuple(sl)] = True
        sl[ax] = shape[ax] - 1
        margin_mask[tuple(sl)] = True
    worst = float(np.max(np.abs(vals[margin_mask]))) if margin_mask.any() else 0.0
    boundary_pts = _boundary_probe(inner, shape)
    worst = max(worst, float(np.max(np.abs(f.values(boundary_pts)))))
    if worst > support_tol:
        raise SupportViolation(
            f"|u| reaches {worst:.3e} on the support margin of the inner box "
            f"(tolerance {support_tol:.1e})")

    out_shape = []
    offsets = []
    for (ilo, ihi), (olo, ohi), k, h in zip(inner.bounds, outer.bounds,
                                            shape, hs):
        mlo = (ilo - olo) / h
        mhi = (ohi - ihi) / h
        if abs(mlo - round(mlo)) > 1e-9 or abs(mhi - round(mhi)) > 1e-9:
            raise GridAlignmentError(
                "outer box must extend the inner box by whole cells")
        out_shape.append(k + int(round(mlo)) + int(round(mhi)))
        offsets.append(int(round(mlo)))

    big = np.zeros(tuple(out_shape))
    sl = tuple(slice(off, off + k) for off, k in zip(offsets, shape))
    big[sl] = vals

    interior = BoxRegion([b[0] for b in inner.bounds],
                         [b[1] for b in inner.bounds],
                         lo_closed=False, hi_closed=False)
    return GridFunction(outer, big,
                        Field(Piecewise(interior, f.expr, ZERO), inner.n))


def _boundary_probe(box: BoxDomain, shape, per_facet: int = 64):
    """Deterministic probe points on each boundary facet."""
    pts = []
    n = box.n
    for ax in range(n):
        for side in (0, 1):
            facet = []
            for j, ((lo, hi), k) in enumerate(zip(box.bounds, shape)):
                if j == ax:
                    facet.append(np.full(per_facet, lo if side == 0 else hi))
                else:
                    t = (np.arange(per_facet) + 0.5) / per_facet
                    facet.append(lo + t * (hi - lo))
            pts.append(np.stack(facet, axis=1))
    return np.concatenate(pts, axis=0)
