import dataclasses
import inspect
import sys

import numpy as np

import pdmm


def test_reexports_are_listed_in_defining_module_all():
    missing = []
    for name, obj in vars(pdmm).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        module = sys.modules[obj.__module__]
        if name not in module.__all__:
            missing.append(f"{module.__name__}.{name}")
    assert not missing


def test_every_all_entry_is_bound_and_reexported():
    modules = [obj for obj in vars(pdmm).values()
               if inspect.ismodule(obj) and hasattr(obj, "__all__")]
    assert len(modules) == 6
    stale = [f"{module.__name__}.{name}" for module in modules for name in module.__all__
             if not hasattr(module, name) or getattr(pdmm, name, None) is not getattr(module, name)]
    assert not stale


# The next change to any of these pins has to be made on purpose, with a CHANGES.md note.
def test_public_names_are_pinned():
    assert sorted(name for name, obj in vars(pdmm).items()
                  if not name.startswith("_") and not inspect.ismodule(obj)) == [
        "AuditReport", "DecodabilityReport", "DegreeTable", "DuplicatePointError", "EvalFrame",
        "ExponentPlan", "FeasibilityReport", "FieldContext", "NoSolutionError",
        "NotFeasibleError", "NotSSOError", "ParamOutOfRangeError", "ProtocolConfig",
        "RateReport", "ResampleExhaustedError", "ShapeMismatchError",
        "SideConditionViolatedError", "SingularMatrixError", "Transcript", "TransferMatrix",
        "ZeroPointError", "apply_box", "best_classical_plan", "build_cat", "build_dog",
        "build_gasp_r", "build_gasp_rs", "build_low_privacy", "build_qf_additive",
        "build_qf_klt", "build_qf_kt", "build_qf_kt_shift", "build_qf_power",
        "build_qf_square", "check_decodable", "check_feasible", "decode_classical",
        "decode_quantum", "default_field", "element_of_order", "encode_and_multiply",
        "feasibility_rows", "gap_progression", "gasp_server_formula", "is_prime",
        "longest_run", "min_feasible_t", "next_prime", "optimal_gasp_r", "outer_sum",
        "parse_plan_record", "plan_record", "privacy_audit", "quantum_transfer", "rate_ratio",
        "rate_report", "run_protocol", "sample_frame", "sso_check", "t_hat_estimate",
        "transcript_dump"]


def test_transcript_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(pdmm.Transcript)] == [
        "plan", "modulus", "mode", "seed", "points", "a_inputs", "b_inputs", "noise_f",
        "noise_g", "responses", "decoded", "decode_ok", "audit", "rate"]
    assert {"shares_f", "shares_g"} <= {name for name, value in vars(pdmm.Transcript).items()
                                        if isinstance(value, property)}


def test_encode_and_multiply_returns_one_array():
    t = pdmm.run_protocol(pdmm.ProtocolConfig(plan=pdmm.build_cat(2, 2, 2), dims=(4, 6, 4)))
    frame, _ = pdmm.sample_frame(pdmm.ProtocolConfig(plan=t.plan, dims=(4, 6, 4)),
                                 np.random.default_rng(t.seed))
    a, b = t.a_inputs[0].reshape(2, 2, 6), t.b_inputs[0].reshape(6, 2, 2).swapaxes(0, 1)
    products = pdmm.encode_and_multiply(frame, a, b, t.noise_f[0], t.noise_g[0])
    assert type(products) is np.ndarray and products.dtype == np.int64
    assert np.array_equal(products, t.responses[0])
