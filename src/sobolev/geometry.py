"""Metric geometry on the built-in manifolds.

Metric components are expressions per chart; the inverse metric (by
symbolic adjugate, n <= 3), the volume density sqrt(det g) and all
Christoffel symbols are cached eagerly at construction.  Covariant
derivatives of tensor fields iterate the one-step rule that prepends a
covariant index and corrects every existing index with a Christoffel
term; fiber norms contract all indices with g and its inverse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from sobolev.atlas import Atlas, transition_map
from sobolev.fields import Field, radius_squared
from sobolev.funcexpr import (
    ONE, ZERO, Call, Const, Expr, add, diff_expr, div, eval_on_points, mul,
    neg, pow_, sub, sum_exprs,
)

__all__ = [
    "MetricField", "ChristoffelField", "TensorField", "builtin_metric",
    "christoffel", "covariant_derivative", "fiber_norm", "musical",
    "metric_aux", "scalar_field", "transform_components",
    "check_overlap_consistency",
]

def _det_expr(m: list[list[Expr]]) -> Expr:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return sub(mul(m[0][0], m[1][1]), mul(m[0][1], m[1][0]))
    if n == 3:
        total = ZERO
        for j in range(3):
            minor = [[m[r][c] for c in range(3) if c != j] for r in (1, 2)]
            term = mul(m[0][j], _det_expr(minor))
            total = add(total, term) if j % 2 == 0 else sub(total, term)
        return total
    raise ValueError("symbolic determinants implemented for n <= 3")


def _adjugate_over_det(m: list[list[Expr]], det: Expr) -> list[list[Expr]]:
    n = len(m)
    if n == 1:
        return [[div(ONE, m[0][0])]]
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = _det_expr(minor)
            if (i + j) % 2 == 1:
                cof = neg(cof)
            inv[j][i] = div(cof, det)  # transpose of cofactors
    return inv


@dataclass
class ChristoffelField:
    """Connection coefficients on one chart: gamma[k][i][j] with the
    structural symmetry gamma[k][i][j] == gamma[k][j][i]."""

    atlas: Atlas
    chart_index: int
    gamma: list  # n x n x n expressions

    def values(self, pts: np.ndarray) -> np.ndarray:
        n = self.atlas.dim
        pts = np.asarray(pts, dtype=float)
        out = np.zeros((pts.shape[0], n, n, n))
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[:, k, i, j] = eval_on_points(self.gamma[k][i][j], pts)
        return out


@dataclass
class MetricField:
    """Per-chart metric component expressions with eager symbolic caches."""

    atlas: Atlas
    comps: list  # per chart: n x n expressions

    det: list = dataclass_field(init=False)
    inv_comps: list = dataclass_field(init=False)
    sqrt_det: list = dataclass_field(init=False)
    _christoffel: list = dataclass_field(init=False)

    def __post_init__(self):
        n = self.atlas.dim
        self.det = []
        self.inv_comps = []
        self.sqrt_det = []
        self._christoffel = []
        for ci, g in enumerate(self.comps):
            det = _det_expr(g)
            if det == ZERO:
                raise ValueError(f"metric determinant vanishes on chart {ci}")
            self.det.append(det)
            self.inv_comps.append(_adjugate_over_det(g, det))
            self.sqrt_det.append(
                ONE if det == ONE else Call("sqrt", det))
            self._christoffel.append(self._christoffel_block(ci))

    def _christoffel_block(self, ci: int) -> ChristoffelField:
        n = self.atlas.dim
        g = self.comps[ci]
        ginv = self.inv_comps[ci]
        dg = [[[diff_expr(g[i][j], ax + 1) for ax in range(n)]
               for j in range(n)] for i in range(n)]
        half = Const(Fraction(1, 2))
        gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    total = ZERO
                    for l in range(n):
                        inner = sub(add(dg[j][l][i], dg[i][l][j]), dg[i][j][l])
                        total = add(total, mul(ginv[k][l], inner))
                    val = mul(half, total)
                    gamma[k][i][j] = val
                    gamma[k][j][i] = val
        return ChristoffelField(self.atlas, ci, gamma)

    def sqrt_det_field(self, ci: int) -> Field:
        return Field(self.sqrt_det[ci], self.atlas.dim)

    def matrix_values(self, ci: int, pts: np.ndarray, inverse=False) -> np.ndarray:
        n = self.atlas.dim
        comps = self.inv_comps[ci] if inverse else self.comps[ci]
        pts = np.asarray(pts, dtype=float)
        out = np.empty((pts.shape[0], n, n))
        for i in range(n):
            for j in range(n):
                out[:, i, j] = eval_on_points(comps[i][j], pts)
        return out


def builtin_metric(atlas: Atlas) -> MetricField:
    """Round metric for the stereographic atlases, flat for tori."""
    n = atlas.dim
    comps = []
    for _ in atlas.charts:
        if atlas.family == "stereo":
            conformal = div(Const(Fraction(4)),
                            pow_(add(ONE, radius_squared(n)), Fraction(2)))
            comps.append([[conformal if i == j else ZERO for j in range(n)]
                          for i in range(n)])
        else:
            comps.append([[ONE if i == j else ZERO for j in range(n)]
                          for i in range(n)])
    return MetricField(atlas, comps)


def metric_aux(g: MetricField, chart: int):
    """(inverse component expressions, sqrt(det g) expression)."""
    return g.inv_comps[chart], g.sqrt_det[chart]


def christoffel(g: MetricField, chart: int) -> ChristoffelField:
    return g._christoffel[chart]


# ---------------------------------------------------------------------------
# Tensor fields
# ---------------------------------------------------------------------------

@dataclass
class TensorField:
    """Per-chart components of a (k covariant, l contravariant) tensor.

    Component keys are (contra_indices, cov_indices) pairs of 0-based
    index tuples; values are scalar fields in chart coordinates.
    """

    atlas: Atlas
    k_cov: int
    l_con: int
    comps: list  # per chart: dict[(tuple, tuple)] -> Field

    def component(self, chart: int, con: tuple, cov: tuple) -> Field:
        return self.comps[chart][(tuple(con), tuple(cov))]

    def keys(self):
        n = self.atlas.dim
        cons = list(itertools.product(range(n), repeat=self.l_con))
        covs = list(itertools.product(range(n), repeat=self.k_cov))
        return [(c, v) for c in cons for v in covs]


def scalar_field(atlas: Atlas, chart_fields: list[Field]) -> TensorField:
    """Wrap per-chart scalar fields as a valence-(0,0) tensor field."""
    return TensorField(atlas, 0, 0,
                       [{((), ()): f} for f in chart_fields])


def covariant_derivative(field: TensorField, g: MetricField,
                         order: int = 1) -> TensorField:
    """Iterated covariant derivative; each step prepends one covariant
    index (the differentiation direction).

    One step, per chart: the new component with covariant indices
    (m, i_1..i_k) and contravariant (a_1..a_l) is

        d_m comp  +  sum_t Gamma^{a_t}_{m b} comp[a_t -> b]
                  -  sum_t Gamma^{b}_{m i_t} comp[i_t -> b]

    For a scalar this is ordinary differentiation; on a flat chart the
    result of m steps is the full order-m partial-derivative tensor.
    """
    order = int(order)
    if order < 1:
        raise ValueError("order must be >= 1")
    out = field
    for _ in range(order):
        out = _cov_step(out, g)
    return out


def _cov_step(field: TensorField, g: MetricField) -> TensorField:
    n = field.atlas.dim
    new_comps = []
    for ci in range(len(field.atlas.charts)):
        gamma = g._christoffel[ci].gamma

        def comp(con, cov):
            return field.component(ci, con, cov).expr

        block = {}
        for (con, cov) in field.keys():
            base = comp(con, cov)
            for m in range(n):
                total = diff_expr(base, m + 1)
                for t, a in enumerate(con):
                    for b in range(n):
                        total = add(total, mul(
                            gamma[a][m][b],
                            comp(con[:t] + (b,) + con[t + 1:], cov)))
                for t, i in enumerate(cov):
                    for b in range(n):
                        total = sub(total, mul(
                            gamma[b][m][i],
                            comp(con, cov[:t] + (b,) + cov[t + 1:])))
                block[(con, (m,) + cov)] = Field(total, n)
        new_comps.append(block)
    return TensorField(field.atlas, field.k_cov + 1, field.l_con, new_comps)


# ---------------------------------------------------------------------------
# Fiber norms and musical isomorphisms
# ---------------------------------------------------------------------------

def fiber_norm_values(field: TensorField, g: MetricField, chart: int,
                      pts: np.ndarray) -> np.ndarray:
    """|A|_F at chart points: every covariant slot contracts with the
    inverse metric, every contravariant slot with the metric."""
    pts = np.asarray(pts, dtype=float)
    m = pts.shape[0]
    vals = {key: field.component(chart, *key).values(pts)
            for key in field.keys()}
    if field.k_cov == 0 and field.l_con == 0:
        v = vals[((), ())]
        return np.abs(v)
    G = g.matrix_values(chart, pts)           # g_ij
    Ginv = g.matrix_values(chart, pts, inverse=True)  # g^ij
    total = np.zeros(m)
    for (con1, cov1) in field.keys():
        for (con2, cov2) in field.keys():
            factor = vals[(con1, cov1)] * vals[(con2, cov2)]
            for a, b in zip(con1, con2):
                factor = factor * G[:, a, b]
            for i, r in zip(cov1, cov2):
                factor = factor * Ginv[:, i, r]
            total += factor
    return np.sqrt(np.maximum(total, 0.0))


def fiber_norm(field: TensorField, g: MetricField, chart: int, point) -> float:
    """Pointwise fiber norm at a single chart-coordinate point."""
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    return float(fiber_norm_values(field, g, chart, pt)[0])


def musical(field: TensorField, g: MetricField, direction: str,
            slot: int = 0) -> TensorField:
    """Lower ("flat") or raise ("sharp") one index by metric contraction.

    ``slot`` picks the index within its group (0-based); the moved index
    lands at the front of the other group, so sharp(flat(X)) returns the
    original component layout.
    """
    n = field.atlas.dim
    if direction == "flat":
        if not 0 <= slot < field.l_con:
            raise ValueError("flat needs a contravariant slot")
    elif direction == "sharp":
        if not 0 <= slot < field.k_cov:
            raise ValueError("sharp needs a covariant slot")
    else:
        raise ValueError("direction must be 'flat' or 'sharp'")

    new_comps = []
    for ci in range(len(field.atlas.charts)):
        block = {}
        mat = g.comps[ci] if direction == "flat" else g.inv_comps[ci]
        if direction == "flat":
            new_l, new_k = field.l_con - 1, field.k_cov + 1
        else:
            new_l, new_k = field.l_con + 1, field.k_cov - 1
        for con in itertools.product(range(n), repeat=new_l):
            for cov in itertools.product(range(n), repeat=new_k):
                if direction == "flat":
                    olds = [field.component(
                        ci, con[:slot] + (b,) + con[slot:], cov[1:])
                        for b in range(n)]
                    row = mat[cov[0]]
                else:
                    olds = [field.component(
                        ci, con[1:], cov[:slot] + (b,) + cov[slot:])
                        for b in range(n)]
                    row = mat[con[0]]
                block[(con, cov)] = Field(sum_exprs(
                    mul(row[b], olds[b].expr) for b in range(n)), n)
        new_comps.append(block)
    return TensorField(field.atlas, new_k, new_l, new_comps)


# ---------------------------------------------------------------------------
# Coordinate transformation checks
# ---------------------------------------------------------------------------

def transform_components(field: TensorField, a: int, b: int,
                         coords_b: np.ndarray) -> dict:
    """Components in chart b predicted from chart a by the tensor law.

    covariant slots pull back with the Jacobian of (phi_a o phi_b^{-1});
    contravariant slots push forward with its inverse.
    """
    t_ba = transition_map(field.atlas, b, a)  # chart-b coords -> chart-a coords
    coords_b = np.asarray(coords_b, dtype=float)
    coords_a = t_ba(coords_b)
    J = t_ba.jacobian(coords_b)         # d coords_a / d coords_b
    Jinv = np.linalg.inv(J)
    vals_a = {key: field.component(a, *key).values(coords_a)
              for key in field.keys()}
    out = {}
    for (con, cov) in field.keys():
        acc = np.zeros(coords_b.shape[0])
        for (con2, cov2) in field.keys():
            factor = vals_a[(con2, cov2)]
            for t in range(len(con)):
                factor = factor * Jinv[:, con[t], con2[t]]
            for t in range(len(cov)):
                factor = factor * J[:, cov2[t], cov[t]]
            acc += factor
        out[(con, cov)] = acc
    return out


def metric_as_tensor(g: MetricField) -> TensorField:
    n = g.atlas.dim
    comps = []
    for ci in range(len(g.atlas.charts)):
        block = {}
        for i in range(n):
            for j in range(n):
                block[((), (i, j))] = Field(g.comps[ci][i][j], n)
        comps.append(block)
    return TensorField(g.atlas, 2, 0, comps)


def check_overlap_consistency(field: TensorField, npts: int = 100) -> float:
    """Max deviation between direct chart-b components and the tensor-law
    transform of chart-a components, over sampled overlap points."""
    atlas = field.atlas
    worst = 0.0
    pts = atlas.sample_points(npts)
    for b in range(len(atlas.charts)):
        chart_b = atlas.charts[b]
        mask = chart_b.contains(pts)
        coords_b = chart_b.to_chart(pts[mask])
        coords_b = coords_b[chart_b.truncation.interior(coords_b)]
        for a in range(len(atlas.charts)):
            if a == b:
                continue
            t_ba = transition_map(atlas, b, a)
            ok = t_ba.domain_mask(coords_b)
            cb = coords_b[ok]
            # keep away from singular transition loci
            if atlas.family == "stereo":
                r = np.sqrt(np.sum(cb * cb, axis=1))
                cb = cb[r > 0.05]
            cb = cb[atlas.charts[a].truncation.interior(t_ba(cb))]
            if cb.shape[0] == 0:
                continue
            predicted = transform_components(field, a, b, cb)
            for key in field.keys():
                direct = field.component(b, *key).values(cb)
                worst = max(worst, float(np.max(np.abs(direct - predicted[key]))))
    return worst
