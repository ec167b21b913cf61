"""Private distributed matrix multiplication codes over prime fields.

Degree-table constructions for the classical and quantum settings,
generalized Reed-Solomon duality, transfer-matrix assembly, and exact
end-to-end protocol simulation with privacy auditing and rate reports.
"""

from .gf import (
    DuplicatePointError,
    FieldContext,
    SingularMatrixError,
    ZeroPointError,
    element_of_order,
    is_prime,
    next_prime,
)
from .degree_tables import (
    DecodabilityReport,
    DegreeTable,
    ExponentPlan,
    NoSolutionError,
    ParamOutOfRangeError,
    SideConditionViolatedError,
    best_classical_plan,
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
    gap_progression,
    gasp_server_formula,
    optimal_gasp_r,
    outer_sum,
    parse_plan_record,
    plan_record,
)
from .feasibility import (
    FeasibilityReport,
    check_feasible,
    feasibility_rows,
    longest_run,
    min_feasible_t,
    t_hat_estimate,
)
from .grs import (
    ShapeMismatchError,
    grs_generator,
    shifted_dual_multipliers,
    sso_check,
)
from .nsumbox import NotSSOError, TransferMatrix, apply_box
from .protocol import (
    AuditReport,
    EvalFrame,
    NotFeasibleError,
    ProtocolConfig,
    RateReport,
    ResampleExhaustedError,
    Transcript,
    decode_classical,
    decode_quantum,
    default_field,
    encode_and_multiply,
    privacy_audit,
    quantum_transfer,
    rate_ratio,
    rate_report,
    run_protocol,
    sample_frame,
    transcript_dump,
)

__version__ = "0.1.0"
