"""Tour of the algebra layer: exact prime-field arithmetic, Vandermonde
systems, and the closed-form dual multipliers behind every stabilizer
block in this package.
"""

import numpy as np

from pdmm import FieldContext, grs_generator, shifted_dual_multipliers, sso_check

ctx = FieldContext(131)
print(f"working over F_{ctx.p}")
print("inv(17) =", ctx.inv(17), "check:", 17 * ctx.inv(17) % ctx.p)

# interpolation: recover a cubic from four evaluations
coeffs = np.array([5, 0, 7, 2])
points = [3, 10, 44, 90]
vand = ctx.vandermonde(points, range(4))
values = ctx.matmul(vand, coeffs.reshape(-1, 1))
print("recovered coefficients:", ctx.matmul(ctx.mat_inverse(vand), values).ravel().tolist())

# dual multipliers: one closed form makes every split orthogonal
pts = [1, 2, 3, 4, 5, 6]
u = [1] * 6
v = shifted_dual_multipliers(ctx, pts, u, 0, 0)
print("dual multipliers:", v.tolist())
for k in range(len(pts) + 1):
    g1 = grs_generator(ctx, pts, u, k)
    g2 = grs_generator(ctx, pts, v, len(pts) - k)
    assert not ctx.matmul(g1.T, g2).any()
print("orthogonality holds for every split k = 0 ..", len(pts))

# the same works with shifted generators, which is what the protocol uses
shift = 4
v_shifted = shifted_dual_multipliers(ctx, pts, u, shift, shift)
g1 = grs_generator(ctx, pts, u, 3, shift=shift)
g2 = grs_generator(ctx, pts, v_shifted, 3, shift=shift)
print("shifted pair orthogonal:", not ctx.matmul(g1.T, g2).any())

# stacking a dual pair block-diagonally gives a symplectic
# self-orthogonal matrix, the raw material of a transfer matrix
n, k = 6, 3
block = np.block([
    [grs_generator(ctx, pts, u, k), np.zeros((n, n - k), dtype=np.int64)],
    [np.zeros((n, k), dtype=np.int64), grs_generator(ctx, pts, v, n - k)],
])
print("block-diagonal dual pair is SSO:", sso_check(ctx, block))
