"""Sort-and-merge of gasp_r's interference intervals, the reference for its bitmask.

``degree_tables._gasp_r_interference`` builds the interference set of a
gasp_r plan as one integer bitmask.  ``merge`` gets the same set the
plain way: it lists every noise block's interval, sorts them and joins
touching ones, for the tests to compare against.
"""


def merge(K, L, T, r):
    """Server count and merged interference intervals of gasp_r(K, L, T, r).

    The information sums are exactly 0..KL-1 and every other table
    entry is at least KL, so the interference sums are the union of
    the three noise blocks' integer intervals: alpha1 x beta2 is one
    interval, alpha2 x beta1 and alpha2 x beta2 decompose along the
    chain blocks.  Merging them (touching intervals join) gives the
    maximal runs of the interference set as ascending (lo, hi) pairs,
    so N = KL + their total length.
    """
    kl = K * L
    chains = -(-T // r)
    tail = T - (chains - 1) * r
    last = chains + L - 2
    spans = [(kl, kl + K + T - 2)]
    for d in range(last + 1):
        start = kl + d * K
        spans.append((start, start + (r if d < last else tail) - 1))
    for c in range(chains):
        start = 2 * kl + c * K
        spans.append((start, start + (r if c < chains - 1 else tail) + T - 2))
    spans.sort()
    merged = []
    lo, hi = spans[0]
    for a, b in spans:
        if a > hi + 1:
            merged.append((lo, hi))
            lo, hi = a, b
        elif b > hi:
            hi = b
    merged.append((lo, hi))
    return kl + sum(b - a + 1 for a, b in merged), merged
