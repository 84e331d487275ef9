"""Lebesgue and Sobolev norms of functions/tensor fields on built-in
manifolds.

Three norm routes are provided, the kinds of :class:`NormVariant`, whose
``check`` states each route's argument rules once:

* the chart norm: the sum over charts and components of Euclidean
  W^{e,q} norms of partition-weighted local representations, each a
  ``quadrature.sobolev_norm`` call on the chart's truncation box;
* the connection norm for integer k: the q-sum of intrinsic L^q norms
  of iterated covariant derivatives;
* on a torus, the box norm of the components over one exact period.

The intrinsic L^q norm (:func:`manifold_lq_norm`) integrates the fiber
norm against the volume density chartwise through a partition of unity
(exact since the bump sum is identically 1).

The intrinsic routes (and ``operators.divergence_integral``) integrate
sum_alpha psi_alpha X sqrt(det g) chart by chart through one helper,
:func:`_intrinsic_integrals`, which takes its two grids from
``quadrature._ladder``.  It samples each chart once: psi_alpha over the
midpoints of both grids, then sqrt(det g) and one integrand call, which
returns every integrand's row at once, only at the midpoints where
psi_alpha != 0.  So the integrand is not evaluated, and not
domain-checked, where psi_alpha = 0.  The connection norm hands all of
u, nabla u, ..., nabla^k u to one
:func:`~sobolev.geometry.fiber_norm_values` call, so all orders on both
grids run in one evaluation program per chart, and the lower derivatives
and Christoffel terms inside the higher ones run once.  Each integrand
is multiplied as psi * X * sqrt(det g), in that order, into a row that
is 0 where psi_alpha is, so every sum has the bits of sampling every
midpoint.

Each route's report carries its value at N // 2 as ``coarse``.
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
    _check_order, _check_p, _ladder, _norm_report, grid_shape, midpoint_grid,
    sobolev_norm,
)

__all__ = [
    "manifold_lq_norm",
    "chart_sobolev_norm", "connection_sobolev_norm", "compare_norms",
    "NormVariant",
]


def _intrinsic_integrals(integrand, g: MetricField, pou: PartitionOfUnity,
                         shape):
    """The chart integrals of psi_alpha X sqrt(det g), for each row X of
    ``integrand(chart index, points)`` (a sequence of arrays, the same
    number on every chart), on the grid of ``shape`` and on its coarse
    grid: a pair (fine, coarse) of lists, one per row, of the per-chart
    contributions in chart order, which sum to the integral over M.

    Each chart is sampled once: psi_alpha at the midpoints of both grids,
    then sqrt(det g) and one ``integrand`` call only where psi_alpha != 0,
    so the integrand is not evaluated, and not domain-checked, where
    psi_alpha = 0.  Each grid sums a full-length row that is 0 there: the
    bits of sampling every midpoint."""
    shapes = _ladder(tuple, shape)
    per_chart = []  # per chart: per grid, one integral per row
    for ci, chart in enumerate(g.atlas.charts):
        grids = [midpoint_grid(chart.truncation, shp)[:2] for shp in shapes]
        pts = np.concatenate([p for p, _ in grids])
        psi = eval_on_points(pou.fields[ci], pts)
        on = psi != 0.0
        psi, pts = psi[on], pts[on]
        dens = eval_on_points(g.sqrt_det[ci], pts)
        row = np.zeros(on.size)
        sums = tuple([] for _ in grids)
        for x in integrand(ci, pts):
            row[on] = psi * x * dens
            lo = 0
            for out, (p, cellvol) in zip(sums, grids):
                out.append(float(np.sum(row[lo:lo + len(p)]) * cellvol))
                lo += len(p)
        per_chart.append(sums)
    return tuple([list(r) for r in zip(*grid)] for grid in zip(*per_chart))


def manifold_lq_norm(u: TensorField, g: MetricField, pou: PartitionOfUnity,
                     q: float = 2.0, N=None) -> Report:
    """Intrinsic L^q norm, reported together with the chart-sum variant.

    The primary value integrates |u|_E^q against the volume density; the
    report also carries the local-representation variant (the sum over
    charts and components of Euclidean L^q norms of the weighted local
    representations) and the ratio of the two.
    """
    atlas = u.atlas
    _, q, shape = NormVariant("chart", pou=pou).check(atlas, 0, q, N)

    (per_chart,), (coarse,) = _intrinsic_integrals(
        lambda ci, pts: fiber_norm_values([u], g, ci, pts) ** q, g, pou,
        shape)
    value = sum(per_chart) ** (1.0 / q)
    value_c = sum(coarse) ** (1.0 / q)

    chart_sum = chart_sobolev_norm(u, pou, e=0, q=q, N=shape)
    extras = {"intrinsic_value": value, "chart_sum_value": chart_sum.value}
    if value > 0:
        extras["variant_ratio"] = chart_sum.value / value
    terms = [{"kind": "intrinsic", "chart": chart.name, "value": v}
             for chart, v in zip(atlas.charts, per_chart)]
    terms += [{"kind": "chart-sum", **t} for t in chart_sum.terms]
    return _norm_report(value, terms, {"resolution": list(shape)},
                        abs(value - value_c), extras, coarse=value_c,
                        manifold=atlas.manifold, atlas=atlas.manifold,
                        pou=pou.name)


def chart_sobolev_norm(u: TensorField, pou: PartitionOfUnity,
                       e: float = 1.0, q: float = 2.0, N=None) -> Report:
    """Chart-based W^{e,q} norm: the sum of the box norms (value, error
    estimate and ``coarse``) of the partition-weighted local
    representations, each on its chart's truncation box."""
    atlas = u.atlas
    e, q, shape = NormVariant("chart", pou=pou).check(atlas, e, q, N)

    value = value_c = 0.0  # at N and at N // 2
    err = 0.0
    terms = []
    for ci, chart in enumerate(atlas.charts):
        for key, comp in zip(u.keys(), u.comps[ci]):
            rep = sobolev_norm(mul(pou.fields[ci], comp), chart.truncation,
                               e, q, shape)
            value += rep.value
            err += rep.error_estimate
            value_c += rep.coarse
            terms.append({"chart": chart.name,
                          "component": list(map(list, key)),
                          "value": rep.value})
    return _norm_report(
        value, terms, {"resolution": list(shape), "e": e, "q": q},
        err, coarse=value_c, manifold=atlas.manifold, atlas=atlas.manifold,
        pou=pou.name)


def connection_sobolev_norm(u: TensorField, g: MetricField, k: int = 1,
                            q: float = 2.0, N=None,
                            pou: PartitionOfUnity = None) -> Report:
    """Connection-route W^{k,q} norm for integer k:

        ( sum_{i=0..k} || |nabla^i u|_F ||_{L^q}^q )^{1/q}
    """
    atlas = u.atlas
    k, q, shape = NormVariant("connection", metric=g).check(atlas, k, q, N)
    k = int(k)
    if pou is None:
        pou = build_partition_of_unity(atlas)

    derivatives = [u]  # u, nabla u, ..., nabla^k u
    for _ in range(k):
        derivatives.append(covariant_derivative(derivatives[-1], g, 1))

    fine, coarse = _intrinsic_integrals(
        lambda ci, pts: fiber_norm_values(derivatives, g, ci, pts) ** q, g,
        pou, shape)
    fine = list(map(sum, fine))
    value = sum(fine) ** (1.0 / q)
    value_c = sum(map(sum, coarse)) ** (1.0 / q)
    terms = [{"order": i, "lq_value": power ** (1.0 / q)}
             for i, power in enumerate(fine)]
    return _norm_report(
        value, terms, {"resolution": list(shape), "k": k, "q": q},
        abs(value - value_c), coarse=value_c,
        manifold=atlas.manifold, atlas=atlas.manifold, pou=pou.name)


# ---------------------------------------------------------------------------
# Norm comparison harness
# ---------------------------------------------------------------------------

@dataclass
class NormVariant:
    """One norm route: a chart norm for a given partition of unity, the
    connection norm for a metric, or (on a torus) the box norm of the
    local representation over one exact period.  Made without its
    partition or metric, a route is an :class:`~sobolev.ArgumentError`."""

    kind: str                      # "chart" | "connection" | "box"
    pou: PartitionOfUnity | None = None
    metric: MetricField | None = None

    def __post_init__(self):
        if self.kind not in ("chart", "connection", "box"):
            raise ArgumentError(f"unknown norm variant {self.kind!r}")
        if self.kind == "chart" and self.pou is None:
            raise ArgumentError("the chart route needs a partition of unity")
        if self.kind == "connection" and self.metric is None:
            raise ArgumentError("the connection route needs a metric")

    def check(self, atlas, e, q, N):
        """``(e, q, shape)`` checked: raise :class:`~sobolev.ArgumentError`
        unless this route takes order ``e``, exponent ``q`` and grid ``N``
        on ``atlas``.  Every argument rule of the route is stated here."""
        e = _check_order(e, "k" if self.kind == "connection" else "e")
        if self.kind == "connection" and e % 1:
            raise ArgumentError("the connection route needs integer order")
        if self.kind == "box" and atlas.period_box is None:
            raise ArgumentError("the box route integrates one exact period; "
                                "it applies to the torus manifolds")
        return e, _check_p(q), grid_shape(atlas.dim, N, e)

    def compute(self, u, e, q, N) -> float:
        self.check(u.atlas, e, q, N)
        return self._ladder(u, e, q, N)[0]

    def _ladder(self, u, e, q, N) -> tuple[float, float]:
        """The norm at N and at N // 2 of arguments :meth:`check` took."""
        if self.kind == "chart":
            reps = [chart_sobolev_norm(u, self.pou, e, q, N)]
        elif self.kind == "connection":
            reps = [connection_sobolev_norm(u, self.metric, e, q, N,
                                            self.pou)]
        else:  # the sum of the components' box norms
            reps = [sobolev_norm(comp, u.atlas.period_box, e, q, N)
                    for comp in u.comps[0]]
        return sum(r.value for r in reps), sum(r.coarse for r in reps)

    def describe(self) -> str:
        if self.kind == "chart":
            return f"chart[{self.pou.name}]"
        return self.kind


def _ratio(top, bottom, index: int, variant: NormVariant, shape) -> float:
    """top / bottom for family member ``index``, whose ``variant`` norm on
    the grid of ``shape`` is ``bottom``: 0 is a ``ZeroDivisionError``."""
    if bottom == 0:
        raise ZeroDivisionError(
            f"family member {index} has {variant.describe()} norm 0 on the "
            f"grid {list(shape)}, so its ratio is undefined")
    return top / bottom


def compare_norms(family, variant_a: NormVariant, variant_b: NormVariant,
                  e: float, q: float = 2.0, N=None) -> Report:
    """Per-function ratios A/B with their min/max bracket.

    Both routes are checked (:meth:`NormVariant.check`) before any norm
    is computed.  Every norm is 1-homogeneous, so the ratios do not
    depend on the scale of a function; the tests check that property on
    every route, so a report does not recompute it.  A zero B norm is a
    ``ZeroDivisionError`` (:func:`_ratio`).
    """
    if not family:
        raise ArgumentError("the function family is empty")
    atlas = family[0].atlas
    for variant in (variant_a, variant_b):  # before the first norm
        *_, shape = variant.check(atlas, e, q, N)
    ratios = [_ratio(variant_a._ladder(u, e, q, N)[0],
                     variant_b._ladder(u, e, q, N)[0], i, variant_b, shape)
              for i, u in enumerate(family)]
    return Report("norm_comparison",
                  variant_a=variant_a.describe(),
                  variant_b=variant_b.describe(),
                  e=float(e), q=float(q), ratios=ratios,
                  bracket=[min(ratios), max(ratios)])
