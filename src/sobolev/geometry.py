"""Metric geometry on the built-in manifolds.

Metric components are expressions per chart; the inverse metric (by
symbolic adjugate), the volume density sqrt(det g) and all
Christoffel symbols are cached eagerly at construction.  Covariant
derivatives of tensor fields iterate the one-step rule that prepends a
covariant index and corrects every existing index with a Christoffel
term.  Fiber norms contract all indices with g and its inverse one
slot at a time, for a whole list of tensor fields whose components and
metric factors run in one evaluation program.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from sobolev import ArgumentError
from sobolev.atlas import Atlas, TransitionMap, quasirandom_points
from sobolev.funcexpr import (
    ONE, ZERO, Call, Const, Expr, add, const, diff_expr, div, eval_many, mul,
    neg, parse_expr, sub, sum_exprs,
)

__all__ = [
    "MetricField", "TensorField", "builtin_metric",
    "covariant_derivative", "fiber_norm_values", "musical",
    "scalar_field", "transform_components",
    "check_overlap_consistency",
]


def _det_expr(m: list[list[Expr]]) -> Expr:
    """Cofactor expansion along the first row; the empty determinant is 1."""
    if not m:
        return ONE
    total = ZERO
    for j in range(len(m)):
        term = mul(m[0][j], _det_expr([row[:j] + row[j + 1:]
                                       for row in m[1:]]))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def _adjugate_over_det(m: list[list[Expr]], det: Expr) -> list[list[Expr]]:
    n = len(m)
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
class MetricField:
    """Per-chart metric component expressions with eager symbolic caches.

    ``christoffel[ci][k][i][j]`` is the connection coefficient
    Gamma^k_{ij} on chart ``ci``, the same node as ``[ci][k][j][i]``.
    """

    atlas: Atlas
    comps: list  # per chart: n x n expressions

    inv_comps: list = dataclass_field(init=False)
    sqrt_det: list = dataclass_field(init=False)
    christoffel: list = dataclass_field(init=False)

    def __post_init__(self):
        self.inv_comps = []
        self.sqrt_det = []
        self.christoffel = []
        for ci, g in enumerate(self.comps):
            det = _det_expr(g)
            if det == ZERO:
                raise ArgumentError(
                    f"metric determinant vanishes on chart {ci}")
            self.inv_comps.append(_adjugate_over_det(g, det))
            self.sqrt_det.append(
                ONE if det == ONE else Call("sqrt", det))
            self.christoffel.append(self._christoffel_block(ci))

    def _christoffel_block(self, ci: int) -> list:
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
        return gamma


def builtin_metric(atlas: Atlas) -> MetricField:
    """Each chart's conformal metric: round on the spheres, flat on tori."""
    n = atlas.dim
    return MetricField(atlas, [[[chart.conformal_factor if i == j else ZERO
                                 for j in range(n)] for i in range(n)]
                               for chart in atlas.charts])


# ---------------------------------------------------------------------------
# Tensor fields
# ---------------------------------------------------------------------------

@functools.cache
def _positions(n: int, k_cov: int, l_con: int) -> dict:
    """Component key -> position in a chart block, in ``keys()`` order."""
    covs = list(itertools.product(range(n), repeat=k_cov))
    keys = [(c, v) for c in itertools.product(range(n), repeat=l_con)
            for v in covs]
    return {key: i for i, key in enumerate(keys)}


@dataclass
class TensorField:
    """A function or a (k covariant, l contravariant) tensor field on a
    manifold, chart by chart; a function is the valence (0, 0).

    Each chart block is a tuple of component expressions in that chart's
    coordinates, in ``keys()`` order.  A key is a (contra_indices,
    cov_indices) pair of 0-based index tuples; contravariant indices vary
    slowest, and each group runs in lexicographic order.
    """

    atlas: Atlas
    k_cov: int
    l_con: int
    comps: list  # per chart: tuple of Expr in keys() order

    @classmethod
    def from_ambient(cls, atlas: Atlas, u) -> "TensorField":
        """The function given by an expression (or its text) in the
        ambient coordinates x1..xm; on a torus it must be 1-periodic, which
        is checked once (see :meth:`Atlas.local_representations`)."""
        expr = parse_expr(u, atlas.ambient_dim) if isinstance(u, str) else u
        return scalar_field(atlas, atlas.local_representations(expr))

    def component(self, chart: int, con: tuple, cov: tuple) -> Expr:
        pos = _positions(self.atlas.dim, self.k_cov, self.l_con)
        return self.comps[chart][pos[(tuple(con), tuple(cov))]]

    def keys(self) -> list:
        return list(_positions(self.atlas.dim, self.k_cov, self.l_con))

    def scaled(self, c: float) -> "TensorField":
        """Every component multiplied by the constant c."""
        return TensorField(self.atlas, self.k_cov, self.l_con,
                           [tuple(mul(const(c), e) for e in block)
                            for block in self.comps])


def scalar_field(atlas: Atlas, chart_exprs: list[Expr]) -> TensorField:
    """A function from its per-chart local representations."""
    return TensorField(atlas, 0, 0, [(e,) for e in chart_exprs])


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
        raise ArgumentError("order must be >= 1")
    out = field
    for _ in range(order):
        out = _cov_step(out, g)
    return out


def _cov_step(field: TensorField, g: MetricField) -> TensorField:
    n = field.atlas.dim
    new_keys = _positions(n, field.k_cov + 1, field.l_con)
    new_comps = []
    for ci in range(len(field.atlas.charts)):
        gamma = g.christoffel[ci]

        def comp(con, cov):
            return field.component(ci, con, cov)

        block = []
        for con, mcov in new_keys:
            m, cov = mcov[0], mcov[1:]
            total = diff_expr(comp(con, cov), m + 1)
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
            block.append(total)
        new_comps.append(tuple(block))
    return TensorField(field.atlas, field.k_cov + 1, field.l_con, new_comps)


# ---------------------------------------------------------------------------
# Fiber norms and musical isomorphisms
# ---------------------------------------------------------------------------

# The contraction runs over the points in blocks of about _CONTRACT_VALUES
# // (components) points, so each of its temporaries holds at most
# _CONTRACT_VALUES float64 values (64 KB) whatever the field's rank.  On a
# 2-core x86 machine (Python 3.11, numpy 2.4), 128 KB temporaries raised
# the peak RSS of a connection-deep benchmark pass by about 0.3 MB, and
# 64 KB ones left it level, at the same speed.

_CONTRACT_VALUES = 2 ** 13


def _factor_entries(mat: list, roots: list) -> list:
    """Row by row, the entries of an n x n expression matrix that a slot
    contraction multiplies by, as (column, root index) pairs, leaving out
    the symbolically zero ones; their expressions are appended to
    ``roots``."""
    entries = []
    for row in mat:
        entries.append([])
        for c, e in enumerate(row):
            if e is not ZERO:
                entries[-1].append((c, len(roots)))
                roots.append(e)
    return entries


def _apply_slots(T: np.ndarray, n: int, slots: list,
                 factors) -> np.ndarray:
    """T with an n x n matrix applied along each index axis in turn.

    T is the (K, m) array of a tensor's components in ``keys()`` order.
    ``slots`` holds one matrix per index slot, in axis order, row by row
    as (column, factor index) pairs: the entry is the array
    ``factors[index]`` over the m points, and a missing pair is a zero
    entry.  Each slot costs about n K products per point."""
    K = T.shape[0]
    for axis, matrix in enumerate(slots):
        src = T.reshape(n ** axis, n, -1, T.shape[-1])
        out = np.empty(src.shape)
        for a, terms in enumerate(matrix):
            dst = out[:, a]
            for j, (c, r) in enumerate(terms):
                if j:
                    dst += factors[r] * src[:, c]
                else:
                    np.multiply(factors[r], src[:, c], out=dst)
        T = out.reshape(K, -1)
    return T


def fiber_norm_values(fields, g: MetricField, chart: int,
                      pts: np.ndarray) -> np.ndarray:
    """|A|_F at chart points for each tensor field A of ``fields``: a
    (len(fields), m) array, one row per field.

    |A|^2 = <A, S>, where S is A with the metric applied to one slot at a
    time, g^ij along a covariant slot and g_ij along a contravariant one,
    so a field of K components costs O(rank n K) products per point.  The
    components of all the fields and the metric factors any of them needs
    are evaluated in one :func:`eval_many` call, so the nodes they share
    (the lower derivatives inside the higher ones, the Christoffel terms)
    run once; metric entries that are symbolically zero are neither
    evaluated nor multiplied by.  The contraction works through the points
    in blocks (see ``_CONTRACT_VALUES``)."""
    fields = list(fields)
    roots = [e for f in fields for e in f.comps[chart]]
    n = g.atlas.dim
    con = _factor_entries(g.comps[chart], roots) \
        if any(f.l_con for f in fields) else None
    cov = _factor_entries(g.inv_comps[chart], roots) \
        if any(f.k_cov for f in fields) else None
    rows = eval_many(roots, pts).T  # one row per root, without a copy
    m = rows.shape[1]
    out = np.empty((len(fields), m))
    lo = 0
    for f, row in zip(fields, out):
        K = len(f.comps[chart])
        comps = rows[lo:lo + K]
        lo += K
        if not f.k_cov + f.l_con:
            np.abs(comps[0], out=row)
            continue
        size = max(1, _CONTRACT_VALUES // K)
        slots = [con] * f.l_con + [cov] * f.k_cov
        for b in range(0, m, size):
            T = comps[:, b:b + size]
            S = _apply_slots(T, n, slots, rows[:, b:b + size])
            np.multiply(T, S, out=S).sum(axis=0, out=row[b:b + size])
        np.sqrt(np.maximum(row, 0.0, out=row), out=row)
    return out


def musical(field: TensorField, g: MetricField, direction: str) -> TensorField:
    """Lower ("flat") or raise ("sharp") the first index of its group by
    metric contraction.

    The moved index lands at the front of the other group, so
    sharp(flat(X)) returns the original component layout.
    """
    if direction not in ("flat", "sharp"):
        raise ArgumentError("direction must be 'flat' or 'sharp'")
    flat = direction == "flat"
    if not (field.l_con if flat else field.k_cov):
        raise ValueError("flat needs a contravariant slot" if flat
                         else "sharp needs a covariant slot")
    shift = -1 if flat else 1
    n, new_l, new_k = field.atlas.dim, field.l_con + shift, field.k_cov - shift
    new_comps = []
    for ci in range(len(field.atlas.charts)):
        block = []
        mat = g.comps[ci] if flat else g.inv_comps[ci]
        for con, cov in _positions(n, new_k, new_l):
            if flat:
                olds = [field.component(ci, (b,) + con, cov[1:])
                        for b in range(n)]
                row = mat[cov[0]]
            else:
                olds = [field.component(ci, con[1:], (b,) + cov)
                        for b in range(n)]
                row = mat[con[0]]
            block.append(sum_exprs(mul(row[b], olds[b]) for b in range(n)))
        new_comps.append(tuple(block))
    return TensorField(field.atlas, new_k, new_l, new_comps)


# ---------------------------------------------------------------------------
# Coordinate transformation checks
# ---------------------------------------------------------------------------

def transform_components(field: TensorField, a: int, b: int,
                         coords_b: np.ndarray) -> np.ndarray:
    """Components in chart b predicted from chart a by the tensor law, as
    an (m, components) array in ``keys()`` order.

    covariant slots pull back with the Jacobian of (phi_a o phi_b^{-1});
    contravariant slots push forward with its inverse.
    """
    t_ba = TransitionMap(field.atlas, b, a)  # chart-b coords -> chart-a coords
    coords_b = np.asarray(coords_b, dtype=float)
    coords_a = t_ba(coords_b)
    J = t_ba.jacobian(coords_b)         # d coords_a / d coords_b
    Jinv = np.linalg.inv(J)
    vals_a = eval_many(field.comps[a], coords_a).T
    n = field.atlas.dim
    # factor i n + c is Jinv[i, c], and n^2 + i n + c is J[c, i]
    factors = [Jinv[:, i, c] for i in range(n) for c in range(n)]
    factors += [J[:, c, i] for i in range(n) for c in range(n)]
    push = [[(c, i * n + c) for c in range(n)] for i in range(n)]
    pull = [[(c, n * n + i * n + c) for c in range(n)] for i in range(n)]
    return _apply_slots(vals_a, n, [push] * field.l_con
                        + [pull] * field.k_cov, factors).T


def metric_as_tensor(g: MetricField) -> TensorField:
    return TensorField(g.atlas, 2, 0, [tuple(e for row in comps for e in row)
                                       for comps in g.comps])


def check_overlap_consistency(field: TensorField, npts: int = 100) -> float:
    """Max deviation between direct chart-b components and the tensor-law
    transform of chart-a components, over sampled overlap points."""
    atlas = field.atlas
    worst = 0.0
    pts = quasirandom_points(atlas.manifold, npts)
    for b in range(len(atlas.charts)):
        chart_b = atlas.charts[b]
        mask = chart_b.contains(pts)
        coords_b = chart_b.to_chart(pts[mask])
        coords_b = coords_b[chart_b.truncation.interior(coords_b)]
        for a in range(len(atlas.charts)):
            if a == b:
                continue
            t_ba = TransitionMap(atlas, b, a)
            ok = t_ba.domain_mask(coords_b)
            cb = coords_b[ok]
            cb = cb[atlas.charts[a].truncation.interior(t_ba(cb))]
            if cb.shape[0] == 0:
                continue
            predicted = transform_components(field, a, b, cb)
            direct = eval_many(field.comps[b], cb)
            worst = max(worst, float(np.max(np.abs(direct - predicted))))
    return worst
