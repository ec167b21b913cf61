"""The decodability check as it read the degree table's row tuples.

``check_decodable`` counts the flat sums of ``plan.table.sums`` once and
walks the information sums in row-major (k, l) order.  ``check`` gets
the same report the plain way: it builds the table as row tuples of
Python ints, counts their entries and looks up rows[i][j] for every
pair of info indices, for the tests to compare against.
"""

from collections import Counter

from pdmm.degree_tables import DecodabilityReport, ExponentPlan


def check(plan: ExponentPlan) -> DecodabilityReport:
    """The four conditions of ``check_decodable``, in its order, from the row tuples."""
    q, n = plan.modulus_q, plan.table.n_servers
    if q and n != q:
        return DecodabilityReport(False, f"cyclic table has N = {n} servers, not q = {q}")
    for side, noise in (("alpha", plan.noise_alpha), ("beta", plan.noise_beta)):
        if len(set(noise)) != len(noise):
            return DecodabilityReport(False, f"duplicate noise exponent in {side}")
        if len(noise) < plan.T:
            return DecodabilityReport(
                False, f"{side} has {len(noise)} noise exponents, fewer than T = {plan.T}")
    rows = tuple(map(tuple, plan.table.sums.tolist()))
    counts = Counter(v for row in rows for v in row)
    for i in plan.info_alpha:
        for j in plan.info_beta:
            v = rows[i][j]
            if counts[v] != 1:
                return DecodabilityReport(
                    False, f"information sum {v} collides with another table entry",
                    violation=(i, j))
    return DecodabilityReport(True)
