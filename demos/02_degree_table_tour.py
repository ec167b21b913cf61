"""Build one plan from every code family and show its degree table,
server count, and decodability verdict.
"""

from pdmm import (
    build_cat,
    build_dog,
    build_gasp_r,
    build_gasp_rs,
    build_low_privacy,
    build_qf_additive,
    build_qf_klt,
    build_qf_kt,
    build_qf_kt_shift,
    build_qf_power,
    build_qf_square,
    check_decodable,
    gasp_server_formula,
    plan_record,
)

plans = [
    build_gasp_r(2, 2, 3, 2),
    build_gasp_rs(2, 2, 2, 1, 1),
    build_dog(2, 2, 2, 1, 1),
    build_cat(2, 2, 2),
    build_qf_square(2),
    build_qf_power(2, 2, 3),
    build_qf_additive(2, 1, 1),
    build_qf_klt(3, 2),
    build_qf_kt(2, 3, 1),
    build_qf_kt_shift(2, 1, 1),
    build_low_privacy(4, 4, 3),
    build_low_privacy(2, 2, 1),
]

for plan in plans:
    table = plan.table
    run = check_decodable(plan)
    print(f"{plan.family:12s} K={plan.K} L={plan.L} T={plan.T}  "
          f"N={table.n_servers:3d}  decodable={run.ok}")
    print("  alpha:", plan.alpha)
    print("  beta: ", plan.beta)
    print("  info sums:", sorted(table.info))

print()
print("the gasp server count has a closed form; no table needed:")
for r in (1, 2, 3):
    print(f"  gasp(4,4,4) with chain length {r}: "
          f"{gasp_server_formula(4, 4, 4, r)} servers")

print()
print("plans serialize to one-line records:")
print(" ", plan_record(build_cat(2, 2, 2)))
