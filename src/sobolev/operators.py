"""Differential operators on manifolds and empirical operator norms.

The four built-in operators come from the connection and the metric:

    d        : f |-> nabla f                        (function -> 1-form)
    grad     : f |-> (nabla f)^sharp = g^{ij} d_j f (function -> vector)
    div      : Y |-> (det g)^{-1/2} d_j((det g)^{1/2} Y^j)
    laplace  : div o grad

``d`` and ``grad`` are :func:`~sobolev.geometry.covariant_derivative`
and its :func:`~sobolev.geometry.musical` sharp; ``div`` is read chart by
chart.  All are local (support never grows: every pipeline is
differentiation and multiplication by fixed coefficient functions), so
applying them chart by chart is consistent on overlaps.

Boundedness between Sobolev scales is assessed empirically: the sup of
norm ratios over a function family, at two grid resolutions.  On tori
the local representations are periodic and the fundamental cell is a
box, so the "box" route integrates them over one exact period; the
"chart" route uses the partition-of-unity chart norms on any manifold.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sobolev import ArgumentError, Report
from sobolev.atlas import Atlas, PartitionOfUnity, build_partition_of_unity
from sobolev.exponents import (
    DomainClass, ExponentError, check_derivative, space,
)
from sobolev.funcexpr import (
    ONE, diff_expr, div, eval_on_points, expr_to_text, mul, sum_exprs,
)
from sobolev.geometry import (
    MetricField, TensorField, covariant_derivative, musical,
)
from sobolev.manifold_norms import (
    SCALE_CHECK, NormVariant, _intrinsic_integrals,
)
from sobolev.quadrature import _check_halvings, _check_p, _two_grid, grid_shape

__all__ = [
    "ValenceMismatch", "apply_operator", "empirical_bound",
    "divergence_integral", "describe_components",
]

_VALENCES = {
    # operator: ((k_cov, l_con) source valence, order)
    "d": ((0, 0), 1),
    "grad": ((0, 0), 1),
    "div": ((0, 1), 1),
    "laplace": ((0, 0), 2),
}


class ValenceMismatch(TypeError):
    pass


def _divergence(X: TensorField, g: MetricField) -> TensorField:
    """(det g)^{-1/2} d_j((det g)^{1/2} X^j) of a vector field, chart by
    chart."""
    n = X.atlas.dim
    comps = []
    for ci, block in enumerate(X.comps):
        sqrtdet = g.sqrt_det[ci]
        total = sum_exprs(diff_expr(mul(sqrtdet, block[j]), j + 1)
                          for j in range(n))
        comps.append((mul(div(ONE, sqrtdet), total),))
    return TensorField(X.atlas, 0, 0, comps)


def apply_operator(op_id: str, g: MetricField,
                   u: TensorField) -> TensorField:
    """The operator ``op_id`` (one of d, grad, div, laplace) applied to
    ``u`` with the metric ``g``; an unknown id is a ``KeyError`` and a
    field of the wrong valence a :class:`ValenceMismatch`."""
    if op_id not in _VALENCES:
        raise KeyError(f"unknown operator {op_id!r}; "
                       f"known: {', '.join(_VALENCES)}")
    source = _VALENCES[op_id][0]
    if (u.k_cov, u.l_con) != source:
        raise ValenceMismatch(
            f"operator {op_id} expects valence {source}, "
            f"got ({u.k_cov}, {u.l_con})")
    if op_id == "div":
        return _divergence(u, g)
    du = covariant_derivative(u, g)
    if op_id == "d":
        return du
    grad = musical(du, g, "sharp")
    return grad if op_id == "grad" else _divergence(grad, g)


def describe_components(u: TensorField, chart: int) -> dict:
    """Printable component expressions of a function/tensor field on one
    chart, in the syntax of :func:`sobolev.funcexpr.parse_expr`, so each
    parses back to the same node; a piecewise component, which has no
    text form, is a ``TypeError``."""
    out = {}
    for key, comp in zip(u.keys(), u.comps[chart]):
        label = "^" + "".join(str(i + 1) for i in key[0]) + \
                "_" + "".join(str(i + 1) for i in key[1])
        out[label] = expr_to_text(comp)
    return out


# ---------------------------------------------------------------------------
# Empirical operator norms
# ---------------------------------------------------------------------------

def _chart_domain_class(atlas: Atlas) -> DomainClass:
    return DomainClass.FULL_SPACE if atlas.classification == "super nice" \
        else DomainClass.BOUNDED_LIPSCHITZ


def empirical_bound(op_id: str, g: MetricField, from_exponents,
                    to_exponents, family, N=None, route: str | None = None,
                    pou: PartitionOfUnity | None = None) -> Report:
    """Empirical norm of the operator ``op_id`` with the metric ``g``: sup
    over the family of ||op u||_{to} / ||u||_{from}, at two grid
    resolutions.

    ``from_exponents``/``to_exponents`` are (e, q) pairs with e >= 0.
    The pair is first screened against the chartwise differentiation
    theorem (chart images are the whole space or Lipschitz boxes), whose
    verdict the report carries under ``screen``; a pair it does not
    cover, or a target order above ``e - order``, raises
    :class:`~sobolev.exponents.ExponentError`.  Every refused argument
    raises a :class:`~sobolev.ArgumentError` before any norm is
    computed.  The ratio at the worst
    function is then recomputed with that function scaled by
    ``SCALE_CHECK``.  Without ``route`` the norms take the "box" route
    on a torus and the "chart" route on any other manifold.
    """
    if not family:
        raise ArgumentError("the function family is empty")
    # every order is read once, exactly, so "3/2", "1.5" and
    # Fraction(3, 2) give the same screen and the same floats
    try:
        exact = [Fraction(str(x)) for x in (*from_exponents, *to_exponents)]
        e, q, et, qt = map(float, exact)
    except (ValueError, OverflowError) as exc:
        raise ArgumentError(f"orders must be (e, q) pairs of rationals "
                            f"with finite floats: {exc}") from None
    if e < 0 or et < 0:
        raise ArgumentError("numerical norms require nonnegative orders")
    _check_p(qt)  # the screen below checks q
    atlas = g.atlas
    shape = grid_shape(atlas.dim, N)
    _check_halvings(shape, 1 + bool(e % 1 or et % 1))
    order = _VALENCES[op_id][1]
    frm = space(exact[0], exact[1], atlas.dim, _chart_domain_class(atlas))
    verdict = check_derivative(frm, order)
    if not verdict.admissible:
        raise ExponentError(
            f"exponent screen failed for {op_id}: the chartwise "
            f"differentiation theorem does not cover order {order} "
            f"from W^({e},{q})")
    if et > e - order:
        raise ExponentError(
            f"target order {et} exceeds the declared map (e - {order})")
    if route is None:
        route = "chart" if atlas.period_box is None else "box"
    if pou is None and route == "chart":
        pou = build_partition_of_unity(atlas)
    norm = NormVariant(route, pou=pou).compute

    def sup_at(resolution):
        ratios = []
        for u in family:
            image = apply_operator(op_id, g, u)
            nu = norm(u, e, q, resolution)
            ratios.append(norm(image, et, qt, resolution) / nu)
        return ratios

    ratios, coarse = _two_grid(sup_at, shape)
    sup_fine = max(ratios)
    sup_coarse = max(coarse)
    # scale invariance spot check on the worst function
    worst = int(np.argmax(ratios))
    us = family[worst].scaled(SCALE_CHECK)
    rs = (norm(apply_operator(op_id, g, us), et, qt, shape)
          / norm(us, e, q, shape))
    return Report(
        "operator_bound", operator=op_id,
        **{"from": [e, q]}, to=[et, qt], route=route, ratios=ratios,
        sup=sup_fine, sup_coarse=sup_coarse,
        relative_change=abs(sup_fine - sup_coarse) / sup_fine
        if sup_fine > 0 else 0.0,
        scale_invariance_rel_dev=abs(rs - ratios[worst]) / ratios[worst]
        if ratios[worst] > 0 else 0.0,
        screen=verdict.to_json())


def divergence_integral(X: TensorField, g: MetricField,
                        pou: PartitionOfUnity = None, N=None) -> Report:
    """integral_M (div X) dV_g, which vanishes on a closed manifold.

    Returns the signed integral and a two-grid error estimate; computed
    as the intrinsic integral of the scalar div X through the partition
    of unity.
    """
    divX = apply_operator("div", g, X)
    if pou is None:
        pou = build_partition_of_unity(X.atlas)
    (fine,), (coarse,) = _intrinsic_integrals(
        lambda ci, pts: [eval_on_points(divX.comps[ci][0], pts)], g, pou,
        grid_shape(X.atlas.dim, N))
    value = sum(fine)
    return Report("divergence_integral", value=value,
                  error_estimate=abs(value - sum(coarse)))
