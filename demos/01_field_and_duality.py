"""Tour of the algebra layer: exact prime-field arithmetic, Vandermonde
systems, and the closed-form dual multipliers behind every stabilizer
block in this package.
"""

import math

import numpy as np

from pdmm import FieldContext, sso_check

ctx = FieldContext(131)


def dual_multipliers(points, u, shift_sum):
    """v_i = (u_i x_i^shift_sum prod_{j != i} (x_j - x_i))^-1, from exact integer products."""
    return [ctx.inv(u_i * x**shift_sum * math.prod(y - x for y in points if y != x))
            for x, u_i in zip(points, u)]


def generator(points, u, dim, shift=0):
    """The N x dim generator with rows u_i [x_i^shift, ..., x_i^(shift+dim-1)]."""
    return np.asarray(u)[:, None] * ctx.vandermonde(points, range(shift, shift + dim)) % ctx.p


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
v = dual_multipliers(pts, u, 0)
print("dual multipliers:", v)
for k in range(len(pts) + 1):
    g1 = generator(pts, u, k)
    g2 = generator(pts, v, len(pts) - k)
    assert not ctx.matmul(g1.T, g2).any()
print("orthogonality holds for every split k = 0 ..", len(pts))

# the same works with shifted generators, which is what the protocol uses
shift = 4
v_shifted = dual_multipliers(pts, u, 2 * shift)
g1 = generator(pts, u, 3, shift=shift)
g2 = generator(pts, v_shifted, 3, shift=shift)
print("shifted pair orthogonal:", not ctx.matmul(g1.T, g2).any())

# stacking a dual pair block-diagonally gives a symplectic
# self-orthogonal matrix, the raw material of a transfer matrix
n, k = 6, 3
block = np.block([
    [generator(pts, u, k), np.zeros((n, n - k), dtype=np.int64)],
    [np.zeros((n, k), dtype=np.int64), generator(pts, v, n - k)],
])
print("block-diagonal dual pair is SSO:", sso_check(ctx, block))
