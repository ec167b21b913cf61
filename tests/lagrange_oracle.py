"""A frame's point algebra as it was computed before it was read off one power run.

``vandermonde_inverse`` inverts the generator (x_i^(e_j)) by Lagrange
interpolation the way ``FieldContext._vandermonde_inverse`` did: the
quotient table by synthetic division (Horner's rule, one step per
degree), the weights w_i = 1 / prod_{k != i} (x_i - x_k) by a Fermat
pass over the node products (``grs_oracle.node_products``), and the
g x g correction for the g gaps in the exponents.  ``dual_pair`` gives
the frame's dual multipliers as ``EvalFrame`` formed them,
v = (-1)^(N-1) w x^(-2s) and v^-1 = x^(2s) prod_{k != i} (x_k - x_i).  The frame now reads all of it
off its power run x^0, ..., x^N with one Fermat pass; these are the
oracles its differential tests compare it with.
"""

import numpy as np

from grs_oracle import node_products
from pdmm.gf import FieldContext, _gaps


def vandermonde_inverse(ctx: FieldContext, x: np.ndarray, exponents) -> tuple:
    """(inverse, weights) of the generator on canonical distinct points x and ascending
    exponents."""
    p = ctx.p
    n = x.size
    master = np.zeros(n + 1, dtype=np.int64)  # a_n .. a_0, highest degree first
    master[0] = 1
    for k, xk in enumerate(x.tolist()):
        master[1:k + 2] = (master[1:k + 2] - xk * master[:k + 1]) % p  # times (X - xk)
    quotients = np.empty((n, n), dtype=np.int64)  # row j: the X^j coefficients
    row = np.ones(n, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        quotients[j] = row
        row = (master[n - j] + x * row) % p  # master[n - j] is a_j
    # prod_{k != i} (x_i - x_k) = (-1)^(n-1) prod_{k != i} (x_k - x_i)
    nodes = node_products(x, p)
    if n % 2 == 0:
        nodes = (p - nodes) % p
    weights = ctx._inverse_all(nodes)
    lagrange = quotients * weights % p
    exps = np.asarray(exponents, dtype=np.int64)
    gaps = _gaps(exps)
    if not gaps.size:
        return lagrange, weights

    def multiples(rows):
        """Entry (e, l): a_(e - l), the X^e coefficient of X^l P(X), for l < g."""
        k = rows[:, None] - np.arange(gaps.size)
        return np.where((k >= 0) & (k <= n), master[n - k.clip(0, n)], 0)

    lagrange = np.vstack([lagrange, np.zeros((gaps.size, n), dtype=np.int64)])
    h = ctx.matmul(ctx.mat_inverse(multiples(gaps)), lagrange[gaps])
    return (lagrange[exps] - ctx.matmul(multiples(exps), h)) % p, weights


def dual_pair(ctx: FieldContext, points, weights: np.ndarray, shift: int) -> tuple:
    """(v, v^-1) of the shift-shifted duals on ones, from the Lagrange weights and node products."""
    p, x = ctx.p, ctx.asarray(points)
    v = weights * ctx.vandermonde(points, [-2 * shift])[:, 0] % p
    if x.size % 2 == 0:  # (-1)^(N-1) = -1
        v = (p - v) % p
    return v, node_products(x, p) * ctx.vandermonde(points, [2 * shift])[:, 0] % p
