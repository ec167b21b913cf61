"""Every plan record and config either runs or is refused at the boundary.

A hypothesis search over small plan records (both modes, with and
without a cyclic modulus q, exponents and indices that may be negative
or out of range) and ``ProtocolConfig`` fields.  Every example must
either decode, with a passing audit, or raise one of the documented
refusals below, of exactly that type and with a message that names the
field or the plan fact at fault.  Any other exception (a
``ZeroDivisionError``, an ``IndexError``, a numpy error) fails the gate.
Uneven block shapes also reach the fused encode-and-product pass here.
A negative control removes one boundary check and must fail the gate.
"""

import re

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pdmm import degree_tables
from pdmm.degree_tables import ParamOutOfRangeError, parse_plan_record
from pdmm.grs import ShapeMismatchError
from pdmm.protocol import (
    NotFeasibleError,
    ProtocolConfig,
    ResampleExhaustedError,
    run_protocol,
)

# (exact error type, message pattern); each names the field or plan fact at fault
DOCUMENTED = [
    (ParamOutOfRangeError, r"^need (K, L >= 1|T >= 0), got [KLT]="),
    (ValueError, r"^(alpha|beta) exponents must be non-negative, got "),
    (ValueError, r"^info index sets must have sizes K and L$"),
    (ValueError, r"^info index out of range$"),
    (ValueError, r"^info exponents must be pairwise distinct$"),
    (ValueError, r"^modulus_q must be >= 1, got "),
    (ValueError, r"^(mode|seed|prime|audit_cap) must be "),
    (ShapeMismatchError, r"^dims "),
    (ValueError, r"^plan is not decodable: "),
    (ValueError, r"^no field modulus below 2\^31 for prime floor "),
    (NotFeasibleError, r"^interference run \d+ < \d+ for "),
    (ResampleExhaustedError, r"^no admissible frame within \d+ attempts? over F_\d+ "),
]


def outcome(record: str, **fields) -> str:
    """"decoded", or the name of the documented error the run raised.

    Raises ``AssertionError`` for an undocumented error, and for a run
    that returns without decoding or with a failed audit.
    """
    try:
        t = run_protocol(ProtocolConfig(plan=parse_plan_record(record), **fields))
    except Exception as error:
        if not any(type(error) is kind and re.search(pattern, str(error))
                   for kind, pattern in DOCUMENTED):
            raise AssertionError(f"undocumented {type(error).__name__}: {error}") from error
        return type(error).__name__
    assert t.decode_ok and t.audit.ok
    return "decoded"


@st.composite
def plan_records(draw):
    """A plan record of small integers; in about half, every field is in range
    and T is at most either side's noise count."""
    lo = draw(st.sampled_from([-1, 1]))  # -1: anything goes; 1: fields in range
    K, L = draw(st.integers(lo, 3)), draw(st.integers(lo, 3))
    sides = []
    for k in (K, L):
        exps = draw(st.lists(st.integers(min(lo, 0), 12), min_size=max(k, 0),
                             max_size=max(k, 0) + 3, unique=True))
        info = st.permutations(range(len(exps))).map(lambda xs, k=k: xs[:k])
        if lo < 0:
            info = st.one_of(info, st.lists(st.integers(-1, 5), max_size=3))
        sides.append((exps, draw(info)))
    (alpha, info_alpha), (beta, info_beta) = sides
    T = draw(st.integers(-1, 3) if lo < 0 else
             st.integers(0, min(len(alpha) - K, len(beta) - L)))
    q = draw(st.one_of(st.none(), st.integers(lo, 12)))
    fields = [f"x - {K} {L} {T}", alpha, beta, info_alpha, info_beta]
    return " | ".join(f if isinstance(f, str) else " ".join(map(str, f)) for f in fields) \
        + f" | {'-' if q is None else q}"


valid_configs = st.fixed_dictionaries({
    "mode": st.sampled_from(["classical", "quantum"]),
    "seed": st.integers(0, 3),
    "prime": st.one_of(st.none(), st.integers(2, 60)),
    "audit_cap": st.sampled_from([1, 3, 100]),
    "dims": st.one_of(st.none(), st.tuples(st.sampled_from([6, 12]), st.integers(1, 5),
                                           st.sampled_from([6, 12]))),
})
configs = st.one_of(valid_configs, st.fixed_dictionaries({
    "mode": st.sampled_from(["classical", "quantum", "bogus"]),
    "seed": st.integers(-1, 3),
    "prime": st.one_of(st.none(), st.integers(0, 60), st.sampled_from([2**31 - 1, 2**31])),
    "audit_cap": st.sampled_from([0, 1, 3, 100]),
    "dims": st.one_of(st.none(), st.tuples(*[st.integers(0, 6)] * 3), st.just((1, 1))),
}))

K_ZERO = "x - 0 2 1 | 2 4 | 10 5 7 8 |  | 0 1 | -"


@given(plan_records(), configs)
@example(K_ZERO, {})
@example("gasp_r r=2 2 2 -1 | 0 1 4 5 6 | 0 2 4 5 6 | 0 1 | 0 1 | -", {})  # negative T
@example("x - 1 1 0 | 8 | 2 | 0 | 0 | 11", {})  # cyclic, N = 1 != q
@example("x - 1 1 0 | 0 | 0 | 0 | 0 | 1", {})  # cyclic, q = 1
@example("x - 1 1 0 | 0 1 2 3 | 0 | 0 | 0 | 4", {"prime": 2**31 - 1})  # no F_p below 2^31
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_record_and_config_decodes_or_is_refused_at_the_boundary(record, fields):
    event(outcome(record, **fields))


@pytest.mark.parametrize("record, fields, want", [
    (K_ZERO, {}, "ParamOutOfRangeError"),
    ("x - 1 1 0 | 0 | 0 | 0 | 0 | 1", {}, "decoded"),
    ("x - 1 1 1 | 0 1 | 0 1 | 0 | 0 | -", {"dims": (2, 3, 1), "mode": "quantum"}, "decoded"),
    ("x - 1 1 0 | 0 1 2 3 | 0 | 0 | 0 | 4", {"prime": 2**31 - 1}, "ValueError"),
])
def test_boundary_outcomes(record, fields, want):
    assert outcome(record, **fields) == want


def test_the_gate_catches_a_removed_boundary_check(monkeypatch):
    """Without the K, L >= 1 check, K = 0 reaches ``ProtocolConfig.block_dims``
    and divides by zero."""
    monkeypatch.setattr(degree_tables, "_require_positive", lambda **values: None)
    with pytest.raises(AssertionError, match="^undocumented ZeroDivisionError"):
        outcome(K_ZERO)
