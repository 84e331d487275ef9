"""Charts, partitions of unity and Sobolev norms on compact manifolds.

Built-ins: the circle and sphere under two stereographic charts (chart
images are all of R^n), and flat tori as translated unit cells.  All
numerics run on compact truncation boxes, fixed by the manifold's name,
that contain every partition-of-unity support, so L^q and integer-order
chart terms lose nothing; a fractional chart term is the Gagliardo
seminorm over the truncation box, not over the chart image, so it
depends on the box.
"""

import math

import numpy as np

from sobolev.atlas import (
    TransitionMap, alternate_seeds, build_partition_of_unity,
    builtin_manifold, quasirandom_points,
)
from sobolev.geometry import TensorField
from sobolev.manifold_norms import (
    NormVariant, chart_sobolev_norm, compare_norms, connection_sobolev_norm,
    manifold_lq_norm,
)

atlas, pou, g = builtin_manifold("s1-stereo")
print("atlas:", atlas.manifold, "| classification:", atlas.classification)
print("charts:", [c.name for c in atlas.charts])

# the transition between the two stereographic charts is t -> 1/t
tm = TransitionMap(atlas, 0, 1)
t = np.array([[0.5], [2.0], [-3.0]])
print("transition of [0.5, 2, -3]:", tm(t).ravel())

# the partition of unity sums to 1 everywhere on the manifold
pts = quasirandom_points("s1-stereo", 5000)
sums = pou.values_at(pts).sum(axis=0)
print(f"partition sum deviation: {np.max(np.abs(sums - 1)):.2e}")

# intrinsic L^2 norm of u = 1 is the square root of the circumference
one = TensorField.from_ambient(atlas, "1")
rep = manifold_lq_norm(one, g, pou, q=2, N=512)
print(f"||1||_L2(S^1) = {rep.value:.5f}   sqrt(2 pi) = "
      f"{math.sqrt(2 * math.pi):.5f}")
print(f"   chart-sum variant = {rep.extras['chart_sum_value']:.5f}, "
      f"ratio = {rep.extras['variant_ratio']:.4f}")

# chart norm and connection norm of the same function on the flat torus
t_atlas, t_pou, t_g = builtin_manifold("torus1")
u = TensorField.from_ambient(t_atlas, "sin(2*pi*x1)")
print("torus1, u = sin(2 pi x):")
print(f"   chart W^(1,2) norm      = "
      f"{chart_sobolev_norm(u, t_pou, e=1, q=2, N=512).value:.5f}")
conn = connection_sobolev_norm(u, t_g, k=1, q=2, N=512, pou=t_pou).value
print(f"   connection W^(1,2) norm = {conn:.5f} "
      f"(closed form {math.sqrt(0.5 + (2 * math.pi) ** 2 / 2):.5f})")

# norm equivalence in action: two different partitions of unity give
# uniformly comparable chart norms over a whole family of functions
pou_alt = build_partition_of_unity(atlas, alternate_seeds(atlas), "alt")
family = [TensorField.from_ambient(atlas, txt)
          for txt in ("x1", "x2", "x1*x2", "x1^2 - x2^2", "x2^3")]
out = compare_norms(family, NormVariant("chart", pou=pou),
                    NormVariant("chart", pou=pou_alt), e=1, q=2, N=256)
print("two-PoU norm ratios:", [f"{r:.4f}" for r in out["ratios"]])
print("bracket:", [f"{b:.4f}" for b in out["bracket"]])
