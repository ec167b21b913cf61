"""Every plan record and config either runs or is refused at the boundary.

A hypothesis search over small plan records (both modes, with and
without a cyclic modulus q, exponents and indices that may be negative
or out of range) and ``ProtocolConfig`` fields, and over the same plans
built directly with K, L, T or info indices given as floats or numpy
integers: a float is refused naming its field, and a numpy integer must
give the outcome the int gives.  ``ProtocolConfig``'s seed, prime,
audit_cap and dims entries are retyped too: a numpy integer must give the
int outcome, and a bool is refused naming its field.  Every example must
either decode, with a passing audit, or raise one of the documented
refusals below, of exactly that type and with a message that names the
field or the plan fact at fault.  Any other exception (a
``ZeroDivisionError``, an ``IndexError``, a numpy error) fails the gate.
Uneven block shapes also reach ``encode_and_multiply`` here.
Four negative controls, one removing the K, L >= 1 check, one the
integer read of K, L and T, one storing ``modulus_q`` unread and one
reading config fields as ``numbers.Integral`` (which admits a bool),
must each fail the gate.
"""

import numbers
import re

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pdmm import degree_tables, protocol
from pdmm.degree_tables import ExponentPlan, ParamOutOfRangeError, parse_plan_record, plan_record
from pdmm.grs import ShapeMismatchError
from pdmm.protocol import (
    NotFeasibleError,
    ProtocolConfig,
    ResampleExhaustedError,
    run_protocol,
)

# (exact error type, message pattern); each names the field or plan fact at fault
DOCUMENTED = [
    (TypeError, r"^([KLT]|modulus_q) must be an integer, got \1="),
    (TypeError, r"^info_(alpha|beta) indices must be integers, got "),
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


def outcome(record: str | dict, **fields) -> str:
    """"decoded", or the name of the documented error the run raised.

    ``record`` is a plan record, or the ``ExponentPlan`` fields of one.
    Raises ``AssertionError`` for an undocumented error, and for a run
    that returns without decoding or with a failed audit.
    """
    try:
        plan = ExponentPlan(**record) if isinstance(record, dict) else parse_plan_record(record)
        t = run_protocol(ProtocolConfig(plan=plan, **fields))
    except Exception as error:
        if not any(type(error) is kind and re.search(pattern, str(error))
                   for kind, pattern in DOCUMENTED):
            raise AssertionError(f"undocumented {type(error).__name__}: {error}") from error
        return type(error).__name__
    assert t.decode_ok and t.audit.ok
    return "decoded"


@st.composite
def plan_fields(draw):
    """``ExponentPlan`` fields of small integers; in about half, every field is
    in range and T is at most either side's noise count."""
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
    return dict(family="x", K=K, L=L, T=T, alpha=tuple(alpha), beta=tuple(beta),
                info_alpha=tuple(info_alpha), info_beta=tuple(info_beta), modulus_q=q)


def record(fields: dict) -> str:
    """The plan record of ``plan_fields`` output."""
    head = [f"x - {fields['K']} {fields['L']} {fields['T']}"]
    q = fields["modulus_q"]
    return " | ".join(head + [" ".join(map(str, fields[name]))
                              for name in ("alpha", "beta", "info_alpha", "info_beta")]
                      + ["-" if q is None else str(q)])


plan_records = plan_fields().map(record)


@st.composite
def retyped_plan_fields(draw):
    """``plan_fields`` output with K, L, T or one side's info indices retyped:
    (fields, the int fields, the retyped names, whether they became floats)."""
    fields = draw(plan_fields())
    names = draw(st.sampled_from([("K",), ("L",), ("T",), ("info_alpha",), ("info_beta",),
                                  ("K", "L", "T", "info_alpha", "info_beta")]))
    as_float = draw(st.booleans())
    kind = float if as_float else np.int64
    retyped = {name: tuple(map(kind, fields[name])) if name.startswith("info")
               else kind(fields[name]) for name in names}
    return {**fields, **retyped}, fields, names, as_float


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


@st.composite
def retyped_configs(draw):
    """``valid_configs`` output with seed, audit_cap, a given prime or one dims entry
    retyped to a numpy integer or a bool: (fields, the int fields, the retyped name,
    whether it became a bool)."""
    ints = draw(valid_configs)
    name = draw(st.sampled_from([name for name in ("seed", "prime", "audit_cap", "dims")
                                 if ints[name] is not None]))
    as_bool = draw(st.booleans())
    kind = (lambda value: draw(st.booleans())) if as_bool else np.int64
    if name == "dims":
        at = draw(st.integers(0, 2))
        value = tuple(kind(d) if i == at else d for i, d in enumerate(ints["dims"]))
    else:
        value = kind(ints[name])
    return {**ints, name: value}, ints, name, as_bool


def check_retyped_config(record, case) -> str:
    """The run's outcome; a numpy field must give the int outcome, and a bool
    must be refused by ``ProtocolConfig``, naming its field, wherever the plan parses."""
    retyped, ints, name, as_bool = case
    got = outcome(record, **retyped)
    if not as_bool:
        assert got == outcome(record, **ints)
        return got
    try:
        plan = parse_plan_record(record)
    except (TypeError, ValueError):
        return got  # refused before any config field is read
    try:
        ProtocolConfig(plan=plan, **retyped)
    except ValueError as error:
        assert type(error) is (ShapeMismatchError if name == "dims" else ValueError)
        assert str(error).startswith(f"{name} must be ")
        return got
    raise AssertionError(f"bool {name} accepted")


K_ZERO = "x - 0 2 1 | 2 4 | 10 5 7 8 |  | 0 1 | -"


@given(plan_records, configs)
@example(K_ZERO, {})
@example("gasp_r r=2 2 2 -1 | 0 1 4 5 6 | 0 2 4 5 6 | 0 1 | 0 1 | -", {})  # negative T
@example("x - 1 1 0 | 8 | 2 | 0 | 0 | 11", {})  # cyclic, N = 1 != q
@example("x - 1 1 0 | 0 | 0 | 0 | 0 | 1", {})  # cyclic, q = 1
@example("x - 1 1 0 | 0 1 2 3 | 0 | 0 | 0 | 4", {"prime": 2**31 - 1})  # no F_p below 2^31
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_record_and_config_decodes_or_is_refused_at_the_boundary(record, fields):
    event(outcome(record, **fields))


@given(retyped_plan_fields(), valid_configs)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_float_and_numpy_integer_plan_fields_are_refused_or_read_as_ints(case, fields):
    retyped, ints, names, as_float = case
    got = outcome(retyped, **fields)
    event(got)
    if as_float:
        try:
            ExponentPlan(**retyped)
        except TypeError as error:
            assert re.match(f"^({'|'.join(names)}) ", str(error))
            return
        except ValueError:
            pass
        # K, L and T are read first; a float index passes only where an earlier
        # check refuses the plan, or where its side is empty and holds no float
        assert not {"K", "L", "T"}.intersection(names)
    assert got == outcome(ints, **fields)


@given(plan_records, retyped_configs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_numpy_integer_config_fields_read_as_ints_and_bools_are_refused(record, case):
    event(check_retyped_config(record, case))


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


def test_the_gate_catches_a_float_t_read_without_operator_index(monkeypatch):
    """Without the integer read T = 1.0 is accepted, and the audit's
    ``math.comb`` fails on it during the run."""
    fields = dict(family="x", K=1, L=1, T=1.0, alpha=(0, 1), beta=(0, 2),
                  info_alpha=(0,), info_beta=(0,))
    assert outcome(fields) == "TypeError"
    monkeypatch.setattr(degree_tables, "_index", lambda **values: list(values.values()))
    with pytest.raises(AssertionError, match="^undocumented TypeError: 'float' object"):
        outcome(fields)


def test_the_gate_catches_a_bool_config_field_read_as_an_integer(monkeypatch):
    """With the ``numbers.Integral`` read restored, ``seed=True`` is accepted
    and the run decodes."""
    record = "x - 1 1 1 | 0 1 | 0 1 | 0 | 0 | -"
    case = ({"seed": True}, {"seed": 1}, "seed", True)
    assert check_retyped_config(record, case) == "ValueError"
    monkeypatch.setattr(protocol, "_integer",
                        lambda value: value if isinstance(value, numbers.Integral) else None)
    assert outcome(record, seed=True) == "decoded"
    with pytest.raises(AssertionError, match="^bool seed accepted$"):
        check_retyped_config(record, case)


ONE_BY_ONE = dict(family="x", K=1, L=1, T=0, alpha=(0,), beta=(0,), info_alpha=(0,),
                  info_beta=(0,))


def modulus_q_reads() -> dict:
    """What ``ExponentPlan`` makes of a bool, a float and a numpy integer ``modulus_q``:
    the error's type name, or the stored value's type name and the record's last field."""
    reads = {}
    for q in (True, 1.5, np.int64(5)):
        try:
            plan = ExponentPlan(**ONE_BY_ONE, modulus_q=q)
        except Exception as error:
            reads[repr(q)] = type(error).__name__
        else:
            reads[repr(q)] = (type(plan.modulus_q).__name__, plan_record(plan).rsplit("| ", 1)[1])
    return reads


def test_modulus_q_is_read_like_k_l_and_t():
    assert modulus_q_reads() == {"True": "TypeError", "1.5": "TypeError",
                                 "np.int64(5)": ("int", "5")}
    assert outcome({**ONE_BY_ONE, "modulus_q": True}) == "TypeError"
    with pytest.raises(TypeError, match=r"^modulus_q must be an integer, got modulus_q=1\.5$"):
        ExponentPlan(**ONE_BY_ONE, modulus_q=1.5)


def test_the_gate_catches_modulus_q_stored_as_given(monkeypatch):
    """With ``modulus_q`` stored unread, a bool builds a plan whose record
    ends in True, a numpy integer stays one, and a float reaches
    ``outer_sum``, where numpy refuses it with an undocumented error."""
    real = degree_tables._index
    monkeypatch.setattr(degree_tables, "_index", lambda **values: (
        list(values.values()) if list(values) == ["modulus_q"] else real(**values)))
    reads = modulus_q_reads()
    assert reads.pop("True") == ("bool", "True") and reads.pop("np.int64(5)") == ("int64", "5")
    with pytest.raises(AssertionError, match="^undocumented .*UFunc"):
        outcome({**ONE_BY_ONE, "modulus_q": 1.5})
