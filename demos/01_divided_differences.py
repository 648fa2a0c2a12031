"""Four independent routes to the same divided difference.

The difference-quotient recursion and the symmetric sum need distinct nodes;
the circle integral and the simplex integral of the n-th derivative do not.
On common ground all four must coincide, and the closed forms for powers of z
pin the values down independently.
"""

import numpy as np

from opcalc import (
    bang_shriek,
    dd_contour,
    dd_explicit,
    dd_hermite,
    dd_power,
    dd_recursive,
    exp_function,
    power_function,
    resolvent_function,
    simplex_moment_s,
)

print("=" * 70)
print("1. four routes, one value")
print("=" * 70)

exp = exp_function()
nodes = np.array([0.1, 0.7 + 0.2j, -0.3j])
for name, value in [
    ("recursion       ", dd_recursive(exp, nodes)),
    ("symmetric sum   ", dd_explicit(exp, nodes)),
    ("circle integral ", dd_contour(exp, nodes)),
    ("simplex integral", dd_hermite(exp, nodes)),
]:
    print(f"  {name}  {value:.15f}")

print("\ncoincident nodes? only the integral routes apply:")
print(f"  [0,0]exp via contour  = {dd_contour(exp, [0.0, 0.0]):.15f}  (= exp'(0) = 1)")
print(f"  [0,0,0]exp via simplex = {dd_hermite(exp, [0.0, 0.0, 0.0]):.15f}  (= 1/2! = 0.5)")

print()
print("=" * 70)
print("2. powers of z have closed forms")
print("=" * 70)

xs = np.array([1.0, 2.0, 3.0])
print(f"  [1,2,3] z^3 = {dd_power(xs, 3):.1f}   (monomials of degree 1: 1+2+3 = 6)")
print(f"  [1,2,3] z^1 = {dd_power(xs, 1):.1f}   (degree below the node count: 0)")
print(f"  [1,2]  z^-1 = {dd_power([1.0, 2.0], -1):.2f} (mirrored sum over 1/(z0 z1))")
for N in range(-3, 7):
    closed = dd_power(xs, N)
    via = dd_recursive(power_function(N), xs)
    print(f"    N = {N:+d}: closed {closed:+.6f}  recursion {via:+.6f}  "
          f"diff {abs(closed - via):.1e}")

print()
print("=" * 70)
print("3. simplex moments and the partial-sum factorials")
print("=" * 70)

print(f"  volume of the 2-simplex: {simplex_moment_s((0, 0, 0))}  (= 1/2)")
print(f"  s-moment of (1,1,1):     {simplex_moment_s((1, 1, 1))}  (= 1/120)")
print(f"  (1,2)!? and (1,2)?! :    {bang_shriek((1, 2))}  (= 20, 30)")

print()
print("=" * 70)
print("4. resolvents: a product of resolvent values, four routes again")
print("=" * 70)

resolvent = resolvent_function(3.0)
rng = np.random.default_rng(1)
pts = 0.6 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
closed = np.prod(1.0 / (3.0 - pts))
vals = [dd_recursive(resolvent, pts), dd_explicit(resolvent, pts),
        dd_contour(resolvent, pts), dd_hermite(resolvent, pts)]
print(f"  closed form prod (3 - x_j)^-1: {closed:.15f}")
print(f"  spread over routes: {max(abs(v - w) for v in vals for w in vals):.2e}")
print(f"  worst route vs closed form: {max(abs(v - closed) for v in vals):.2e}")
