"""Chartwise differential operators and empirical operator norms.

The four built-in operators act through their chart local
representations on component fields:

    d        : f |-> (d_1 f, ..., d_n f)            (function -> 1-form)
    grad     : f |-> g^{ij} d_j f                   (function -> vector)
    div      : Y |-> (det g)^{-1/2} d_j((det g)^{1/2} Y^j)
    laplace  : div o grad

All are local (support never grows: every pipeline is differentiation
and multiplication by fixed coefficient functions), so applying them
chart by chart is consistent on overlaps.

Boundedness between Sobolev scales is assessed empirically: the sup of
norm ratios over a function family, at two grid resolutions.  On tori
the local representations are periodic and the fundamental cell is a
box, so the "box" route integrates them over one exact period; the
"chart" route uses the partition-of-unity chart norms on any manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sobolev.atlas import Atlas, PartitionOfUnity, build_partition_of_unity
from sobolev.exponents import DomainClass, check_derivative, space
from sobolev.fields import Field
from sobolev.funcexpr import ONE, diff_expr, div, expr_to_text, mul, sum_exprs
from sobolev.geometry import MetricField, TensorField
from sobolev.manifold_norms import (
    ManifoldFunction, _as_tensor, chart_sobolev_norm, scale_tensor,
)
from sobolev.quadrature import (
    BoxDomain, coarse_shape, grid_shape, midpoint_grid, sobolev_norm,
)

__all__ = [
    "LocalOperator", "OPERATOR_IDS", "build_operator", "local_representation",
    "apply_operator", "empirical_bound", "divergence_integral",
    "describe_components",
]

OPERATOR_IDS = ("d", "grad", "div", "laplace")

_VALENCES = {
    # operator: ((k_cov, l_con) source, (k_cov, l_con) target, order)
    "d": ((0, 0), (1, 0), 1),
    "grad": ((0, 0), (0, 1), 1),
    "div": ((0, 1), (0, 0), 1),
    "laplace": ((0, 0), (0, 0), 2),
}


class ValenceMismatch(TypeError):
    pass


@dataclass
class LocalOperatorBlock:
    """The local representation on one chart: a map of component fields."""

    op_id: str
    metric: MetricField
    chart_index: int

    def apply(self, comps: dict) -> dict:
        n = self.metric.atlas.dim
        g = self.metric
        ci = self.chart_index
        if self.op_id == "d":
            f = comps[((), ())]
            return {((), (i,)): f.partial(i + 1) for i in range(n)}
        if self.op_id == "grad":
            f = comps[((), ())].expr
            ginv = g.inv_comps[ci]
            return {((a,), ()): Field(sum_exprs(
                mul(ginv[a][j], diff_expr(f, j + 1)) for j in range(n)), n)
                for a in range(n)}
        if self.op_id == "div":
            sqrtdet = g.sqrt_det[ci]
            total = sum_exprs(
                diff_expr(mul(sqrtdet, comps[((j,), ())].expr), j + 1)
                for j in range(n))
            return {((), ()): Field(mul(div(ONE, sqrtdet), total), n)}
        if self.op_id == "laplace":
            grad_block = LocalOperatorBlock("grad", g, ci)
            div_block = LocalOperatorBlock("div", g, ci)
            return div_block.apply(grad_block.apply(comps))
        raise KeyError(f"unknown operator {self.op_id!r}")


@dataclass
class LocalOperator:
    """A local operator given by per-chart component pipelines."""

    op_id: str
    metric: MetricField

    def __post_init__(self):
        if self.op_id not in OPERATOR_IDS:
            raise KeyError(f"unknown operator {self.op_id!r}; "
                           f"known: {', '.join(OPERATOR_IDS)}")

    @property
    def atlas(self) -> Atlas:
        return self.metric.atlas

    @property
    def source_valence(self):
        return _VALENCES[self.op_id][0]

    @property
    def target_valence(self):
        return _VALENCES[self.op_id][1]

    @property
    def order(self) -> int:
        return _VALENCES[self.op_id][2]

    def exponent_map(self, e, q):
        """Declared mapping on Sobolev exponents: (e, q) -> (e - order, q)."""
        return (e - self.order, q)

    def block(self, chart_index: int) -> LocalOperatorBlock:
        return LocalOperatorBlock(self.op_id, self.metric, chart_index)


def build_operator(op_id: str, g: MetricField) -> LocalOperator:
    return LocalOperator(op_id, g)


def local_representation(op_id: str, g: MetricField,
                         chart: int) -> LocalOperatorBlock:
    """The chart block of a built-in operator."""
    return build_operator(op_id, g).block(chart)


def apply_operator(op: LocalOperator, u):
    """Apply chartwise; returns a ManifoldFunction for scalar output,
    otherwise a TensorField."""
    atlas, tensor = _as_tensor(u)
    if (tensor.k_cov, tensor.l_con) != op.source_valence:
        raise ValenceMismatch(
            f"operator {op.op_id} expects valence {op.source_valence}, "
            f"got ({tensor.k_cov}, {tensor.l_con})")
    out_comps = [op.block(ci).apply(tensor.comps[ci])
                 for ci in range(atlas.chart_count())]
    k, l = op.target_valence
    out = TensorField(atlas, k, l, out_comps)
    if (k, l) == (0, 0):
        return ManifoldFunction(atlas, out)
    return out


def describe_components(u, chart: int) -> dict:
    """Printable component expressions of a function/tensor field on one
    chart, in the syntax of :func:`sobolev.funcexpr.parse_expr`; a
    component containing a piecewise node renders as ``"<piecewise>"``."""
    _, tensor = _as_tensor(u)
    out = {}
    for key in tensor.keys():
        f = tensor.component(chart, *key)
        label = "^" + "".join(str(i + 1) for i in key[0]) + \
                "_" + "".join(str(i + 1) for i in key[1])
        try:
            out[label] = expr_to_text(f.expr)
        except TypeError:
            out[label] = "<piecewise>"
    return out


# ---------------------------------------------------------------------------
# Empirical operator norms
# ---------------------------------------------------------------------------

def _tensor_box_norm(tensor: TensorField, box: BoxDomain, e, q, shape) -> float:
    total = 0.0
    for key in tensor.keys():
        total += sobolev_norm(tensor.component(0, *key), box, e, q,
                              shape).value
    return total


def _norm_for_route(u, route, e, q, shape, pou) -> float:
    atlas, tensor = _as_tensor(u)
    if route == "box":
        if atlas.family != "torus":
            raise ValueError("the box route integrates one exact period; "
                             "it applies to the torus manifolds")
        box = BoxDomain(tuple((0.0, 1.0) for _ in range(atlas.dim)))
        return _tensor_box_norm(tensor, box, e, q, shape)
    return chart_sobolev_norm(u, atlas, pou, e, q, shape).value


def _chart_domain_class(atlas: Atlas) -> DomainClass:
    return DomainClass.FULL_SPACE if atlas.classification == "super nice" \
        else DomainClass.BOUNDED_LIPSCHITZ


def empirical_bound(op: LocalOperator, from_exponents, to_exponents, family,
                    N=None, route: str = "box",
                    pou: PartitionOfUnity | None = None,
                    screen: bool = True) -> dict:
    """Empirical operator norm: sup over the family of
    ||op u||_{to} / ||u||_{from}, at two grid resolutions.

    ``from_exponents``/``to_exponents`` are (e, q) pairs with e >= 0.
    The pair is pre-screened against the chartwise differentiation
    theorem (chart images are the whole space or Lipschitz boxes) unless
    ``screen=False``.
    """
    if not family:
        raise ValueError("the function family is empty")
    e, q = float(from_exponents[0]), float(from_exponents[1])
    et, qt = float(to_exponents[0]), float(to_exponents[1])
    if e < 0 or et < 0:
        raise ValueError("numerical norms require nonnegative orders")
    atlas = op.atlas
    verdict_json = None
    if screen:
        frm = space(Fraction(str(from_exponents[0])),
                    Fraction(str(from_exponents[1])),
                    atlas.dim, _chart_domain_class(atlas))
        verdict = check_derivative(frm, op.order)
        verdict_json = verdict.to_json()
        if not verdict.admissible:
            raise ValueError(
                f"exponent screen failed for {op.op_id}: the chartwise "
                f"differentiation theorem does not cover order {op.order} "
                f"from W^({e},{q}); pass screen=False to force")
        if et > e - op.order:
            raise ValueError(
                f"target order {et} exceeds the declared map "
                f"(e - {op.order}); pass screen=False to force")
    if pou is None and route == "chart":
        pou = build_partition_of_unity(atlas)

    if N is None:
        N = 256 if atlas.dim == 1 else 32
    shape = grid_shape(atlas.dim, N)

    def sup_at(resolution):
        ratios = []
        for u in family:
            image = apply_operator(op, u)
            nu = _norm_for_route(u, route, e, q, resolution, pou)
            nop = _norm_for_route(image, route, et, qt, resolution, pou)
            ratios.append(nop / nu)
        return ratios

    ratios = sup_at(shape)
    coarse = sup_at(coarse_shape(shape))
    sup_fine = max(ratios)
    sup_coarse = max(coarse)
    # scale invariance spot check on the worst function
    worst = int(np.argmax(ratios))
    u5 = family[worst].scaled(5.0) if isinstance(family[worst], ManifoldFunction) \
        else scale_tensor(family[worst], 5.0)
    r5 = (_norm_for_route(apply_operator(op, u5), route, et, qt, shape, pou)
          / _norm_for_route(u5, route, e, q, shape, pou))
    return {
        "schema": "v1",
        "kind": "operator_bound",
        "operator": op.op_id,
        "from": [e, q],
        "to": [et, qt],
        "route": route,
        "ratios": ratios,
        "sup": sup_fine,
        "sup_coarse": sup_coarse,
        "relative_change": abs(sup_fine - sup_coarse) / sup_fine
        if sup_fine > 0 else 0.0,
        "scale_invariance_rel_dev": abs(r5 - ratios[worst]) / ratios[worst]
        if ratios[worst] > 0 else 0.0,
        **({"screen": verdict_json} if verdict_json else {}),
    }


def divergence_integral(X, g: MetricField, pou: PartitionOfUnity = None,
                        N=None) -> dict:
    """integral_M (div X) dV_g, which vanishes on a closed manifold.

    Returns the signed integral and a two-grid error estimate; computed
    as the intrinsic integral of the scalar div X through the partition
    of unity.
    """
    atlas, tensor = _as_tensor(X)
    if (tensor.k_cov, tensor.l_con) != (0, 1):
        raise ValenceMismatch("divergence needs a vector field")
    if pou is None:
        pou = build_partition_of_unity(atlas)
    op = build_operator("div", g)
    divX = apply_operator(op, X)
    shape = grid_shape(atlas.dim, N)

    def signed_integral(shp):
        total = 0.0
        for ci, chart in enumerate(atlas.charts):
            pts, cellvol, _ = midpoint_grid(chart.truncation, shp)
            psi = pou.fields[ci].values(pts)
            dens = g.sqrt_det_field(ci).values(pts)
            vals = divX.tensor.component(ci, (), ()).values(pts)
            total += float(np.sum(psi * vals * dens) * cellvol)
        return total

    value = signed_integral(shape)
    coarse = signed_integral(coarse_shape(shape))
    err = abs(value - coarse)
    return {
        "schema": "v1",
        "kind": "divergence_integral",
        "value": value,
        "error_estimate": err,
    }
