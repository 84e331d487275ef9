"""Differential operators from the connection and the metric.

d is the covariant derivative of a function, grad its sharp, div is read
chart by chart and the Laplace-Beltrami operator is div o grad; because
they are local (supports never grow), the chartwise results patch to
global objects.  Boundedness between Sobolev scales is probed
empirically as a sup of norm ratios over a family.
"""

import math

import numpy as np

from sobolev.atlas import builtin_manifold
from sobolev.funcexpr import eval_many
from sobolev.geometry import TensorField
from sobolev.operators import (
    apply_operator, describe_components, divergence_integral, empirical_bound,
)

atlas, pou, g = builtin_manifold("torus1")
u = TensorField.from_ambient(atlas, "sin(2*pi*x1)")

print("laplace of sin(2 pi x) per chart:")
out = apply_operator("laplace", g, u)
for ci, chart in enumerate(atlas.charts):
    print(f"   {chart.name}: {describe_components(out, ci)}")

# empirical boundedness of d: W^{1,2} -> L^2; the ratio never exceeds 1
# because the W^{1,2} norm contains the derivative term
family = [TensorField.from_ambient(atlas, f"sin(2*pi*{k}*x1)")
          for k in (1, 2, 3)]
b = empirical_bound("d", g, ("1", "2"), ("0", "2"), family, N=256,
                    route="box")
print(f"d: sup ratio = {b['sup']:.4f}  "
      f"(coarse grid {b['sup_coarse']:.4f}, change {b['relative_change']:.1%})")

# the Laplace ratios have closed forms (2 pi k)^2 / (1 + 2 pi k + (2 pi k)^2)
b = empirical_bound("laplace", g, ("2", "2"), ("0", "2"), family, N=256,
                    route="box")
for k, ratio in zip((1, 2, 3), b["ratios"]):
    w = 2 * math.pi * k
    print(f"laplace ratio k={k}: {ratio:.5f}   "
          f"closed form {w**2 / (1 + w + w**2):.5f}")

# on a closed manifold the divergence integrates to zero; we use the
# gradient of the ambient height function on the round sphere
s_atlas, s_pou, s_g = builtin_manifold("s2-stereo")
f = TensorField.from_ambient(s_atlas, "x3")
X = apply_operator("grad", s_g, f)
ident = divergence_integral(X, s_g, s_pou, N=96)
print(f"sphere: int div(grad x3) dV = {ident['value']:.2e} "
      f"(error estimate {ident['error_estimate']:.2e})")

# round-sphere geometry cross-check: the Christoffel symbols of the
# stereographic metric follow the conformal closed form
gamma = s_g.christoffel[0]
pt = np.array([[0.3, -0.2]])
print("Gamma^1_{11} at (0.3, -0.2):", eval_many([gamma[0][0][0]], pt)[0, 0],
      "  closed form:", -2 * 0.3 / (1 + 0.3**2 + 0.2**2))
