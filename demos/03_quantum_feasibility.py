"""When does a classical plan extend to the two-instance quantum
protocol?  The interference exponents must contain a consecutive run at
least half the server count long.  This script shows the check, then
finds the exact minimum privacy level (a galloping search over T on the
gasp_r interference bitmask) and compares it against the quadratic
estimate.
"""

from pdmm import (
    build_gasp_r,
    check_feasible,
    longest_run,
    min_feasible_t,
    optimal_gasp_r,
    t_hat_estimate,
)

for T in (1, 2, 3):
    plan = optimal_gasp_r(2, 2, T)
    table = plan.table
    report = check_feasible(plan)
    print(f"gasp(2,2,{T}): N={table.n_servers}, interference run "
          f"{len(report.run)} vs threshold {report.threshold} -> "
          f"{'feasible' if report.feasible else 'not feasible'}")

print()
print("the run itself, for gasp(2,2,3):")
table = build_gasp_r(2, 2, 3, 2).table
print("  interference:", sorted(table.interference))
print("  longest run: ", longest_run(table.interference))

print()
print("minimum privacy level for K = L, brute force vs estimate:")
print(f"{'K':>3} {'T_min':>6} {'estimate':>9} {'delta':>6}")
for K in range(2, 7):
    t_min = min_feasible_t(K, K)
    t_hat = t_hat_estimate(K, K)
    print(f"{K:>3} {t_min:>6} {t_hat:>9.3f} {t_min - round(t_hat):>6}")
