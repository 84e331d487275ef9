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

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from sobolev.atlas import Atlas, PartitionOfUnity, build_partition_of_unity, \
    transition_map
from sobolev.fields import Field
from sobolev.funcexpr import Expr, const, mul, parse_expr
from sobolev.geometry import (
    MetricField, TensorField, covariant_derivative, fiber_norm_values,
    scalar_field,
)
from sobolev.quadrature import (
    coarse_shape, grid_shape, lp_norm, midpoint_grid, sobolev_norm,
)

__all__ = [
    "ManifoldFunction", "ManifoldNormReport", "manifold_lq_norm",
    "chart_sobolev_norm", "connection_sobolev_norm", "compare_norms",
    "NormVariant", "check_function_consistency", "scale_tensor",
]


@dataclass
class ManifoldFunction:
    """A function on a manifold via per-chart local representations.

    Constructed either from an expression in ambient coordinates (x1..xm
    for the ambient dimension) or from explicit per-chart fields.
    """

    atlas: Atlas
    tensor: TensorField
    ambient_expr: Expr | None = None

    @classmethod
    def from_ambient(cls, atlas: Atlas, u) -> "ManifoldFunction":
        expr = parse_expr(u, atlas.ambient_dim) if isinstance(u, str) else u
        fields = [atlas.local_representation(expr, ci)
                  for ci in range(atlas.chart_count())]
        return cls(atlas, scalar_field(atlas, fields), expr)

    @classmethod
    def from_chart_fields(cls, atlas: Atlas, fields: list[Field]):
        return cls(atlas, scalar_field(atlas, fields))

    def scaled(self, c: float) -> "ManifoldFunction":
        return ManifoldFunction(self.atlas, scale_tensor(self.tensor, c),
                                None)


def scale_tensor(t: TensorField, c: float) -> TensorField:
    return TensorField(t.atlas, t.k_cov, t.l_con,
                       [{k: Field(mul(const(c), f.expr), f.n)
                         for k, f in block.items()}
                        for block in t.comps])


def _as_tensor(u) -> tuple[Atlas, TensorField]:
    if isinstance(u, ManifoldFunction):
        return u.atlas, u.tensor
    if isinstance(u, TensorField):
        return u.atlas, u
    raise TypeError(
        f"expected a ManifoldFunction or TensorField, got {type(u).__name__}")


def check_function_consistency(u, npts: int = 200) -> float:
    """Max disagreement of scalar local representations across overlaps."""
    atlas, tensor = _as_tensor(u)
    if tensor.k_cov or tensor.l_con:
        from sobolev.geometry import check_overlap_consistency
        return check_overlap_consistency(tensor, npts)
    worst = 0.0
    pts = atlas.sample_points(npts)
    for a in range(atlas.chart_count()):
        chart_a = atlas.charts[a]
        mask = chart_a.contains(pts)
        coords = chart_a.to_chart(pts[mask])
        coords = coords[chart_a.truncation.interior(coords)]
        vals_a = tensor.component(a, (), ()).values(coords)
        for b in range(atlas.chart_count()):
            if a == b:
                continue
            tm = transition_map(atlas, a, b)
            ok = tm.domain_mask(coords)
            cb = tm(coords[ok])
            inside = atlas.charts[b].truncation.interior(cb)
            if not inside.any():
                continue
            vals_b = tensor.component(b, (), ()).values(cb[inside])
            worst = max(worst, float(np.max(np.abs(
                vals_a[ok][inside] - vals_b))))
    return worst


@dataclass
class ManifoldNormReport:
    """Norm value with per-chart breakdown and reproducibility metadata."""

    value: float
    manifold: str
    atlas_id: str
    pou_id: str
    terms: list = dataclass_field(default_factory=list)
    grid: dict = dataclass_field(default_factory=dict)
    error_estimate: float = 0.0
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "kind": "manifold_norm_report",
            "value": self.value,
            "manifold": self.manifold,
            "atlas": self.atlas_id,
            "pou": self.pou_id,
            "terms": self.terms,
            "grid": self.grid,
            "error_estimate": self.error_estimate,
            **({"extras": self.extras} if self.extras else {}),
        }


def _intrinsic_lq_power(tensor: TensorField, g: MetricField,
                        pou: PartitionOfUnity, q: float, shape) -> tuple:
    """sum_alpha integral psi_alpha |u|_E^q sqrt(det g): the q-th power of
    the intrinsic norm, with per-chart contributions."""
    atlas = tensor.atlas
    per_chart = []
    total = 0.0
    for ci, chart in enumerate(atlas.charts):
        pts, cellvol, _ = midpoint_grid(chart.truncation, shape)
        psi = pou.fields[ci].values(pts)
        dens = g.sqrt_det_field(ci).values(pts)
        fib = fiber_norm_values(tensor, g, ci, pts)
        contrib = float(np.sum(psi * fib ** q * dens) * cellvol)
        per_chart.append(contrib)
        total += contrib
    return total, per_chart


def manifold_lq_norm(u, g: MetricField, atlas: Atlas = None,
                     pou: PartitionOfUnity = None, q: float = 2.0,
                     N=None) -> ManifoldNormReport:
    """Intrinsic L^q norm, reported together with the chart-sum variant.

    The primary value integrates |u|_E^q against the volume density; the
    report also carries the local-representation variant (the sum over
    charts and components of Euclidean L^q norms of the weighted local
    representations) and the ratio of the two.
    """
    atlas_u, tensor = _as_tensor(u)
    atlas = atlas or atlas_u
    if pou is None:
        pou = build_partition_of_unity(atlas)
    q = float(q)
    if not q > 1:
        raise ValueError("q must be > 1")
    shape = grid_shape(atlas.dim, N)

    total, per_chart = _intrinsic_lq_power(tensor, g, pou, q, shape)
    value = total ** (1.0 / q)
    coarse, _ = _intrinsic_lq_power(tensor, g, pou, q, coarse_shape(shape))
    err = abs(value - coarse ** (1.0 / q))

    chart_sum = 0.0
    chart_terms = []
    for ci, chart in enumerate(atlas.charts):
        for key in tensor.keys():
            f = Field(mul(pou.fields[ci].expr,
                          tensor.component(ci, *key).expr), atlas.dim)
            rep = lp_norm(f, chart.truncation, q, shape)
            chart_sum += rep.value
            chart_terms.append({"chart": chart.name, "component": list(map(list, key)),
                                "value": rep.value})

    extras = {"intrinsic_value": value, "chart_sum_value": chart_sum}
    if value > 0:
        extras["variant_ratio"] = chart_sum / value
    terms = [{"kind": "intrinsic", "chart": atlas.charts[ci].name,
              "value": per_chart[ci]} for ci in range(atlas.chart_count())]
    terms += [{"kind": "chart-sum", **t} for t in chart_terms]
    return ManifoldNormReport(
        value=value, manifold=atlas.manifold, atlas_id=atlas.manifold,
        pou_id=pou.name, terms=terms,
        grid={"resolution": list(shape)},
        error_estimate=err, extras=extras)


def chart_sobolev_norm(u, atlas: Atlas = None, pou: PartitionOfUnity = None,
                       e: float = 1.0, q: float = 2.0, N=None,
                       variant: str = "seminorm") -> ManifoldNormReport:
    """Chart-based W^{e,q} norm: each chart term is a compactly supported
    Euclidean norm of the partition-weighted local representation."""
    atlas_u, tensor = _as_tensor(u)
    atlas = atlas or atlas_u
    if pou is None:
        pou = build_partition_of_unity(atlas)
    if e < 0:
        raise ValueError("numerical manifold norms require e >= 0")
    shape = grid_shape(atlas.dim, N)

    value = 0.0
    err = 0.0
    terms = []
    for ci, chart in enumerate(atlas.charts):
        for key in tensor.keys():
            f = Field(mul(pou.fields[ci].expr,
                          tensor.component(ci, *key).expr), atlas.dim)
            rep = sobolev_norm(f, chart.truncation, e, q, shape,
                               variant=variant)
            value += rep.value
            err += rep.error_estimate
            terms.append({"chart": chart.name,
                          "component": list(map(list, key)),
                          "value": rep.value})
    return ManifoldNormReport(
        value=value, manifold=atlas.manifold, atlas_id=atlas.manifold,
        pou_id=pou.name, terms=terms,
        grid={"resolution": list(shape), "e": float(e), "q": float(q)},
        error_estimate=err)


def connection_sobolev_norm(u, g: MetricField, k: int = 1, q: float = 2.0,
                            N=None, pou: PartitionOfUnity = None
                            ) -> ManifoldNormReport:
    """Connection-route W^{k,q} norm for integer k:

        ( sum_{i=0..k} || |nabla^i u|_F ||_{L^q}^q )^{1/q}
    """
    atlas, tensor = _as_tensor(u)
    k = int(k)
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if pou is None:
        pou = build_partition_of_unity(atlas)
    q = float(q)
    shape = grid_shape(atlas.dim, N)

    total = 0.0
    coarse_total = 0.0
    coarse = coarse_shape(shape)
    terms = []
    current = tensor
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
    return ManifoldNormReport(
        value=value, manifold=atlas.manifold, atlas_id=atlas.manifold,
        pou_id=pou.name, terms=terms,
        grid={"resolution": list(shape), "k": k, "q": q},
        error_estimate=err)


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
    label: str = ""

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
        if self.label:
            return self.label
        if self.kind == "chart":
            return f"chart[{self.pou.name}]"
        return "connection"


def compare_norms(family, variant_a: NormVariant, variant_b: NormVariant,
                  e: float, q: float = 2.0, N=None,
                  scale_check: float = 5.0) -> dict:
    """Per-function ratios A/B with min/max bracket and scale invariance.

    Each ratio is recomputed with the function scaled by ``scale_check``;
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
        us = u.scaled(scale_check) if isinstance(u, ManifoldFunction) \
            else scale_tensor(u, scale_check)
        a2 = variant_a.compute(us, e, q, N)
        b2 = variant_b.compute(us, e, q, N)
        scale_dev = max(scale_dev, abs(a2 / b2 - ratio) / ratio)
    return {
        "schema": "v1",
        "kind": "norm_comparison",
        "variant_a": variant_a.describe(),
        "variant_b": variant_b.describe(),
        "e": float(e),
        "q": float(q),
        "ratios": ratios,
        "bracket": [min(ratios), max(ratios)],
        "scale_invariance_max_rel_dev": scale_dev,
    }
