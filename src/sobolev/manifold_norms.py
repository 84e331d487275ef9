"""Lebesgue and Sobolev norms of functions/tensor fields on built-in
manifolds.

Three norm routes are provided:

* the intrinsic L^q integral of the fiber norm against the volume
  density (computed chartwise through a partition of unity, which is
  exact since the bump sum is identically 1);
* the chart norm: the sum over charts and components of Euclidean
  W^{e,q} norms of partition-weighted local representations, each a
  compactly supported problem handed to :mod:`sobolev.quadrature`;
* the connection norm for integer k: the q-sum of intrinsic L^q norms
  of iterated covariant derivatives.

The intrinsic routes (and ``operators.divergence_integral``) integrate
sum_alpha psi_alpha X sqrt(det g) chart by chart through one helper,
:func:`_intrinsic_integrals`, which takes its two grids from
``quadrature._two_grid``.  On each grid it samples every chart's
midpoints, psi_alpha and sqrt(det g) once, and makes one integrand call
per chart, which returns every integrand's row at once: the connection
norm hands all of u, nabla u, ..., nabla^k u to one
:func:`~sobolev.geometry.fiber_norm_values` call, so all orders run in
one evaluation program per chart and grid, and the lower derivatives and
Christoffel terms inside the higher ones run once.  psi_alpha and
sqrt(det g) are kept as separate arrays so that each integrand is
multiplied as psi * X * sqrt(det g), in that order.

Equivalence statements between routes are verified empirically as ratio
brackets over function families; no equivalence constants are claimed.

Chart terms are independent of each other; reports assemble them in a
fixed chart order (deterministic reduction), so results are bit-stable
regardless of any parallel schedule an embedder might choose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sobolev import ArgumentError, Report
from sobolev.atlas import PartitionOfUnity, build_partition_of_unity
from sobolev.funcexpr import eval_on_points, mul
from sobolev.geometry import (
    MetricField, TensorField, covariant_derivative, fiber_norm_values,
)
from sobolev.quadrature import (
    _check_p, _norm_report, _two_grid, grid_shape, midpoint_grid,
    sobolev_norm,
)

__all__ = [
    "manifold_lq_norm",
    "chart_sobolev_norm", "connection_sobolev_norm", "compare_norms",
    "NormVariant", "SCALE_CHECK",
]


# The factor of the homogeneity spot checks of ``compare_norms`` and
# ``operators.empirical_bound``: every norm here is 1-homogeneous, so a
# ratio of two norms must not change when the function is scaled.
SCALE_CHECK = 5.0


def _intrinsic_integrals(integrand, g: MetricField, pou: PartitionOfUnity,
                         shape):
    """The chart integrals of psi_alpha X sqrt(det g), for each row X of
    ``integrand(chart index, points)`` (a sequence of arrays, the same
    number on every chart), on the grid of ``shape`` and on its coarse
    grid: a pair (fine, coarse) of lists, one per row, of the per-chart
    contributions in chart order, which sum to the integral over M."""
    def at(shp):
        per_chart = []
        for ci, chart in enumerate(g.atlas.charts):
            pts, cellvol, _ = midpoint_grid(chart.truncation, shp)
            psi = eval_on_points(pou.fields[ci], pts)
            dens = eval_on_points(g.sqrt_det[ci], pts)
            per_chart.append([float(np.sum(psi * x * dens) * cellvol)
                              for x in integrand(ci, pts)])
        return [list(row) for row in zip(*per_chart)]
    return _two_grid(at, shape)


def manifold_lq_norm(u: TensorField, g: MetricField,
                     pou: PartitionOfUnity = None, q: float = 2.0,
                     N=None) -> Report:
    """Intrinsic L^q norm, reported together with the chart-sum variant.

    The primary value integrates |u|_E^q against the volume density; the
    report also carries the local-representation variant (the sum over
    charts and components of Euclidean L^q norms of the weighted local
    representations) and the ratio of the two.
    """
    atlas = u.atlas
    if pou is None:
        pou = build_partition_of_unity(atlas)
    q = _check_p(q)
    shape = grid_shape(atlas.dim, N)

    (per_chart,), (coarse,) = _intrinsic_integrals(
        lambda ci, pts: fiber_norm_values([u], g, ci, pts) ** q, g, pou,
        shape)
    value = sum(per_chart) ** (1.0 / q)
    err = abs(value - sum(coarse) ** (1.0 / q))

    chart_sum = chart_sobolev_norm(u, pou, e=0, q=q, N=shape)
    extras = {"intrinsic_value": value, "chart_sum_value": chart_sum.value}
    if value > 0:
        extras["variant_ratio"] = chart_sum.value / value
    terms = [{"kind": "intrinsic", "chart": chart.name, "value": v}
             for chart, v in zip(atlas.charts, per_chart)]
    terms += [{"kind": "chart-sum", **t} for t in chart_sum.terms]
    return _norm_report(value, terms, {"resolution": list(shape)}, err,
                        extras, manifold=atlas.manifold,
                        atlas=atlas.manifold, pou=pou.name)


def chart_sobolev_norm(u: TensorField, pou: PartitionOfUnity = None,
                       e: float = 1.0, q: float = 2.0, N=None) -> Report:
    """Chart-based W^{e,q} norm: each chart term is a compactly supported
    Euclidean norm of the partition-weighted local representation."""
    atlas = u.atlas
    if pou is None:
        pou = build_partition_of_unity(atlas)
    if e < 0:
        raise ArgumentError("numerical manifold norms require e >= 0")
    shape = grid_shape(atlas.dim, N)

    value = 0.0
    err = 0.0
    terms = []
    for ci, chart in enumerate(atlas.charts):
        for key, comp in zip(u.keys(), u.comps[ci]):
            rep = sobolev_norm(mul(pou.fields[ci], comp), chart.truncation,
                               e, q, shape)
            value += rep.value
            err += rep.error_estimate
            terms.append({"chart": chart.name,
                          "component": list(map(list, key)),
                          "value": rep.value})
    return _norm_report(
        value, terms, {"resolution": list(shape), "e": float(e), "q": float(q)},
        err, manifold=atlas.manifold, atlas=atlas.manifold, pou=pou.name)


def connection_sobolev_norm(u: TensorField, g: MetricField, k: int = 1,
                            q: float = 2.0, N=None,
                            pou: PartitionOfUnity = None) -> Report:
    """Connection-route W^{k,q} norm for integer k:

        ( sum_{i=0..k} || |nabla^i u|_F ||_{L^q}^q )^{1/q}
    """
    atlas = u.atlas
    if not (k >= 0 and k % 1 == 0):
        raise ArgumentError(f"k must be a nonnegative integer, got {k}")
    k = int(k)
    if pou is None:
        pou = build_partition_of_unity(atlas)
    q = _check_p(q)
    shape = grid_shape(atlas.dim, N)

    derivatives = [u]  # u, nabla u, ..., nabla^k u
    for _ in range(k):
        derivatives.append(covariant_derivative(derivatives[-1], g, 1))

    fine, coarse = _intrinsic_integrals(
        lambda ci, pts: fiber_norm_values(derivatives, g, ci, pts) ** q, g,
        pou, shape)
    fine = list(map(sum, fine))
    value = sum(fine) ** (1.0 / q)
    err = abs(value - sum(map(sum, coarse)) ** (1.0 / q))
    terms = [{"order": i, "lq_value": power ** (1.0 / q)}
             for i, power in enumerate(fine)]
    return _norm_report(
        value, terms, {"resolution": list(shape), "k": k, "q": q}, err,
        manifold=atlas.manifold, atlas=atlas.manifold, pou=pou.name)


# ---------------------------------------------------------------------------
# Norm comparison harness
# ---------------------------------------------------------------------------

@dataclass
class NormVariant:
    """One norm route: a chart norm for a given partition of unity, the
    connection norm for a metric, or (on a torus) the box norm of the
    local representation over one exact period."""

    kind: str                      # "chart" | "connection" | "box"
    pou: PartitionOfUnity | None = None
    metric: MetricField | None = None

    def check(self, atlas, e) -> None:
        """Raise :class:`~sobolev.ArgumentError` unless this route takes
        order ``e`` on ``atlas``."""
        if self.kind not in ("chart", "connection", "box"):
            raise ArgumentError(f"unknown norm variant {self.kind!r}")
        if self.kind == "connection" and abs(e - round(e)) > 1e-12:
            raise ArgumentError("the connection route needs integer order")
        if self.kind == "box" and atlas.period_box is None:
            raise ArgumentError("the box route integrates one exact period; "
                                "it applies to the torus manifolds")

    def compute(self, u, e, q, N) -> float:
        self.check(u.atlas, e)
        if self.kind == "chart":
            return chart_sobolev_norm(u, pou=self.pou, e=e, q=q, N=N).value
        if self.kind == "connection":
            return connection_sobolev_norm(u, self.metric, k=int(round(e)),
                                           q=q, N=N, pou=self.pou).value
        return sum(sobolev_norm(comp, u.atlas.period_box, e, q, N).value
                   for comp in u.comps[0])

    def describe(self) -> str:
        if self.kind == "chart":
            return f"chart[{self.pou.name}]"
        return self.kind


def compare_norms(family, variant_a: NormVariant, variant_b: NormVariant,
                  e: float, q: float = 2.0, N=None) -> Report:
    """Per-function ratios A/B with min/max bracket and scale invariance.

    Each ratio is recomputed with the function scaled by ``SCALE_CHECK``;
    homogeneity of both norms makes the ratio invariant (to roundoff),
    which is asserted in the report rather than silently assumed.  Both
    routes are checked against ``e`` (:meth:`NormVariant.check`) before
    any norm is computed.
    """
    if not family:
        raise ArgumentError("the function family is empty")
    for variant in (variant_a, variant_b):  # before the first norm
        variant.check(family[0].atlas, e)
    ratios = []
    scale_dev = 0.0
    for u in family:
        a = variant_a.compute(u, e, q, N)
        b = variant_b.compute(u, e, q, N)
        ratio = a / b
        ratios.append(ratio)
        us = u.scaled(SCALE_CHECK)
        a2 = variant_a.compute(us, e, q, N)
        b2 = variant_b.compute(us, e, q, N)
        scale_dev = max(scale_dev, abs(a2 / b2 - ratio) / ratio)
    return Report("norm_comparison",
                  variant_a=variant_a.describe(),
                  variant_b=variant_b.describe(),
                  e=float(e), q=float(q), ratios=ratios,
                  bracket=[min(ratios), max(ratios)],
                  scale_invariance_max_rel_dev=scale_dev)
