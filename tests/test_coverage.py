"""Error-estimate coverage against closed forms: |value - exact| must not
exceed the reported ``error_estimate``.

The exact values are those of ``perfbench/README.md``: the W^{k,2}
connection norms of sin(2 pi x1) cos(2 pi x2) on the flat 2-torus and of
x1 x2 on the unit circle, and the 1d linear Gagliardo seminorm.  They are
independent of the evaluator, so they also check the evaluation of
tensor, metric and Christoffel blocks end to end.
"""

import math

from hypothesis import given, settings, strategies as st

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import parse_expr
from sobolev.geometry import TensorField
from sobolev.manifold_norms import connection_sobolev_norm
from sobolev.quadrature import BoxDomain, gagliardo_seminorm


def assert_covered(report, exact):
    assert abs(report.value - exact) <= report.error_estimate, (
        f"value {report.value!r}, exact {exact!r}, "
        f"error_estimate {report.error_estimate!r}")


def torus2_trig_norm(k: int) -> float:
    """sum_i 2^i (2 pi)^(2i) / 4 under the square root."""
    return math.sqrt(sum(2 ** i * (2 * math.pi) ** (2 * i) / 4
                         for i in range(k + 1)))


def circle_product_norm(k: int) -> float:
    """x1 x2 = sin(2t)/2 in the arc length t: sum_i 4^i pi / 4 under the
    square root."""
    return math.sqrt(sum(4.0 ** i * math.pi / 4 for i in range(k + 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.sampled_from([16, 32, 64]))
def test_torus2_connection_norm_covered(k, N):
    atlas, pou, g = builtin_manifold("torus2")
    u = TensorField.from_ambient(atlas, "sin(2*pi*x1)*cos(2*pi*x2)")
    assert_covered(connection_sobolev_norm(u, g, k=k, N=N, pou=pou),
                   torus2_trig_norm(k))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.sampled_from([32, 64, 128, 256]))
def test_circle_connection_norm_covered(k, N):
    atlas, pou, g = builtin_manifold("s1-stereo")
    u = TensorField.from_ambient(atlas, "x1*x2")
    assert_covered(connection_sobolev_norm(u, g, k=k, N=N, pou=pou),
                   circle_product_norm(k))


def linear_seminorm(theta: float, p: float) -> float:
    """|x|_{theta,p} on [0, 1]: the double integral of |x - y|^(a - 1)
    with a = p (1 - theta) is 2 / (a (a + 1))."""
    a = p * (1.0 - theta)
    return (2.0 / (a * (a + 1.0))) ** (1.0 / p)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1.5, 2.0, 3.0]),
       st.floats(0.01, 0.99, allow_nan=False), st.integers(8, 512))
def test_linear_gagliardo_seminorm_covered(p, theta, N):
    report = gagliardo_seminorm(parse_expr("x1", 1), BoxDomain(((0.0, 1.0),)),
                                theta=theta, p=p, N=N)
    assert_covered(report, linear_seminorm(theta, p))
