"""Numerical Sobolev-Slobodeckij norms on boxes.

The fractional seminorm is the singular double integral

    |u|_{theta,p}^p = int int |u(x) - u(y)|^p / |x-y|^{n + theta p} dx dy

computed by a midpoint rule over cell pairs with the diagonal excluded;
the diagonal's contribution is bounded by a Lipschitz model and folded
into the error estimate.  Closed forms for u(x) = x on [0,1]:

    theta = 1/2, p = 2:  integrand is identically 1, seminorm = 1
    theta = 1/4, p = 2:  int int |x-y|^(1/2) = 8/15
"""

import math

from sobolev.fields import box_bump
from sobolev.funcexpr import parse_expr
from sobolev.quadrature import (
    BoxDomain, extend_by_zero, gagliardo_seminorm, lp_norm, sobolev_norm,
)

unit = BoxDomain(((0.0, 1.0),))
x = parse_expr("x1", 1)

print("L^2 norm of x on [0,1]  (exact 1/sqrt(3) = %.6f)" % (1 / math.sqrt(3)))
rep = lp_norm(x, unit, p=2, N=256)
print(f"   value = {rep.value:.6f}   error estimate = {rep.error_estimate:.1e}")

for theta, exact in ((0.5, 1.0), (0.25, math.sqrt(8 / 15))):
    rep = gagliardo_seminorm(x, unit, theta=theta, p=2, N=512)
    print(f"Gagliardo seminorm, theta={theta}:")
    print(f"   value = {rep.value:.6f}   exact = {exact:.6f}   "
          f"error estimate = {rep.error_estimate:.1e}")

# The full W^{3/2,2} norm of x: ||x||_2 + ||1||_2 + |1|_{1/2,2}
#                             = 1/sqrt(3) + 1 + 0
rep = sobolev_norm(x, unit, s=1.5, p=2, N=256)
print(f"W^(3/2,2) norm of x = {rep.value:.6f} "
      f"(exact {1 / math.sqrt(3) + 1:.6f}); terms:")
for t in rep.terms:
    print(f"   {t['kind']:<10} d^{t['multi_index']}  -> {t['value']:.6f}")

# Extension by zero of a mollifier bump: the extension is the expression
# Piecewise(open unit interval, bump, 0), and its norm over the larger box
# dominates the inner norm.
bump = box_bump(1, ("1/2",), "1/5", "2/5")
outer = BoxDomain(((-1.0, 2.0),))
ext = extend_by_zero(bump, unit, N=256)
for s in (0.0, 0.5, 1.0):
    inner_v = sobolev_norm(bump, unit, s=s, p=2, N=256).value
    outer_v = sobolev_norm(ext, outer, s=s, p=2, N=768).value
    print(f"s = {s}:  ||u||_inner = {inner_v:.6f}   "
          f"||ext u||_outer = {outer_v:.6f}   (>= holds)")
