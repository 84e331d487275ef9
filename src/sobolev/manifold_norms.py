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

Equivalence statements between routes are verified empirically as ratio
brackets over function families; no equivalence constants are claimed.

Chart terms are independent of each other; reports assemble them in a
fixed chart order (deterministic reduction), so results are bit-stable
regardless of any parallel schedule an embedder might choose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sobolev.atlas import Atlas, PartitionOfUnity, build_partition_of_unity
from sobolev.funcexpr import eval_on_points, mul
from sobolev.geometry import (
    MetricField, TensorField, covariant_derivative, fiber_norm_values,
)
from sobolev.quadrature import (
    Report, _check_p, _norm_report, coarse_shape, grid_shape, midpoint_grid,
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


def _pou_integral(integrand, atlas: Atlas, g: MetricField,
                  pou: PartitionOfUnity, shape) -> tuple:
    """sum_alpha integral psi_alpha X sqrt(det g) with
    X = integrand(chart index, points): the total and the per-chart
    contributions, in chart order."""
    per_chart = []
    total = 0.0
    for ci, chart in enumerate(atlas.charts):
        pts, cellvol, _ = midpoint_grid(chart.truncation, shape)
        psi = eval_on_points(pou.fields[ci], pts)
        dens = eval_on_points(g.sqrt_det[ci], pts)
        contrib = float(np.sum(psi * integrand(ci, pts) * dens) * cellvol)
        per_chart.append(contrib)
        total += contrib
    return total, per_chart


def _intrinsic_lq_power(tensor: TensorField, g: MetricField,
                        pou: PartitionOfUnity, q: float, shape) -> tuple:
    """sum_alpha integral psi_alpha |u|_E^q sqrt(det g): the q-th power of
    the intrinsic norm, with per-chart contributions."""
    return _pou_integral(
        lambda ci, pts: fiber_norm_values(tensor, g, ci, pts) ** q,
        tensor.atlas, g, pou, shape)


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

    total, per_chart = _intrinsic_lq_power(u, g, pou, q, shape)
    value = total ** (1.0 / q)
    coarse, _ = _intrinsic_lq_power(u, g, pou, q, coarse_shape(shape))
    err = abs(value - coarse ** (1.0 / q))

    chart_sum = chart_sobolev_norm(u, pou, e=0, q=q, N=shape)
    extras = {"intrinsic_value": value, "chart_sum_value": chart_sum.value}
    if value > 0:
        extras["variant_ratio"] = chart_sum.value / value
    terms = [{"kind": "intrinsic", "chart": atlas.charts[ci].name,
              "value": per_chart[ci]} for ci in range(len(atlas.charts))]
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
        raise ValueError("numerical manifold norms require e >= 0")
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
    k = int(k)
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if pou is None:
        pou = build_partition_of_unity(atlas)
    q = _check_p(q)
    shape = grid_shape(atlas.dim, N)

    total = 0.0
    coarse_total = 0.0
    coarse = coarse_shape(shape)
    terms = []
    current = u
    for i in range(k + 1):
        if i > 0:
            current = covariant_derivative(current, g, 1)
        power, _ = _intrinsic_lq_power(current, g, pou, q, shape)
        cpower, _ = _intrinsic_lq_power(current, g, pou, q, coarse)
        total += power
        coarse_total += cpower
        terms.append({"order": i, "lq_value": power ** (1.0 / q)})
    value = total ** (1.0 / q)
    err = abs(value - coarse_total ** (1.0 / q))
    return _norm_report(
        value, terms, {"resolution": list(shape), "k": k, "q": q}, err,
        manifold=atlas.manifold, atlas=atlas.manifold, pou=pou.name)


# ---------------------------------------------------------------------------
# Norm comparison harness
# ---------------------------------------------------------------------------

@dataclass
class NormVariant:
    """One side of a norm comparison: a chart norm for a given partition
    of unity, or the connection norm for a metric."""

    kind: str                      # "chart" | "connection"
    pou: PartitionOfUnity | None = None
    metric: MetricField | None = None

    def compute(self, u, e, q, N) -> float:
        if self.kind == "chart":
            return chart_sobolev_norm(u, pou=self.pou, e=e, q=q, N=N).value
        if self.kind == "connection":
            if abs(e - round(e)) > 1e-12:
                raise ValueError("the connection route needs integer order")
            return connection_sobolev_norm(u, self.metric, k=int(round(e)),
                                           q=q, N=N, pou=self.pou).value
        raise ValueError(f"unknown norm variant {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "chart":
            return f"chart[{self.pou.name}]"
        return "connection"


def compare_norms(family, variant_a: NormVariant, variant_b: NormVariant,
                  e: float, q: float = 2.0, N=None) -> Report:
    """Per-function ratios A/B with min/max bracket and scale invariance.

    Each ratio is recomputed with the function scaled by ``SCALE_CHECK``;
    homogeneity of both norms makes the ratio invariant (to roundoff),
    which is asserted in the report rather than silently assumed.
    """
    if not family:
        raise ValueError("the function family is empty")
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
