"""GRS duality in closed form, the reference the frame's algebra is checked against.

No run calls these: ``EvalFrame`` reads its generator off its power
table and its dual multipliers v off the one Fermat pass of its
generator inverse.  Here each is formed from its definition, on a
``FieldContext``:

- the node products prod_{j != i} (x_j - x_i), one array step per x_j;
- the dual multipliers v_i = (u_i x_i^(l1+l2) prod_{j != i} (x_j - x_i))^-1,
  which make the l1-shifted GRS code on u and the l2-shifted code on v
  dual for every split of the N points into a k- and an (N-k)-dimensional
  code (MacWilliams and Sloane, ch. 10);
- the N x dim generator with rows u_i [x_i^shift, ..., x_i^(shift+dim-1)].

``test_grs.loop_dual_multipliers`` checks the multipliers scalar by scalar.
"""

import numpy as np

from pdmm.gf import FieldContext


def node_products(x: np.ndarray, p: int) -> np.ndarray:
    """prod_{j != i} (x[j] - x[i]) mod p for every i, for canonical int64 x."""
    nodes = np.ones_like(x)
    for j, xj in enumerate(x.tolist()):
        factor = (xj - x) % p
        factor[j] = 1
        nodes = nodes * factor % p
    return nodes


def dual_multipliers(ctx: FieldContext, points, u, l1: int, l2: int) -> np.ndarray:
    """v of the l2-shifted code dual to the l1-shifted code on u, by one Fermat pass."""
    p = ctx.p
    scale = ctx.asarray(u) * ctx.vandermonde(points, [l1 + l2])[:, 0] % p
    return ctx._inverse_all(scale * node_products(ctx.asarray(points), p) % p)


def generator(ctx: FieldContext, points, u, dim: int, shift: int = 0) -> np.ndarray:
    """N x dim generator with rows u_i * [x_i^shift, ..., x_i^(shift+dim-1)]."""
    return ctx.asarray(u)[:, None] * ctx.vandermonde(points, range(shift, shift + dim)) % ctx.p
