"""The real-number rule and the positive-and-finite rule: every number a
caller hands the package is a ``numbers.Real`` that is not a ``bool``
(``errors.is_real``), and every length, period, ratio and count the
package checks goes through ``errors.require_positive``.  Both that rule
and ``errors.require_finite`` count an integer beyond float range as not
finite."""

from __future__ import annotations

import dataclasses
import math
import re
from decimal import Decimal
from typing import Optional, Union
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kitefusion import attitude, errors, estimator, frames, lineangle, pipelines, simkite
from kitefusion.errors import DomainError, require_positive
from kitefusion.lineangle import EncoderGeometry
from kitefusion.pipelines import EstimatorConfig
from kitefusion.simkite import NoiseSpec, TrajectoryParams

UNIT = np.array([1.0, 0.0, 0.0, 0.0])

#: (module that runs the guard, parameter it names, call with the value).
GUARDS = [
    (attitude, "dt", lambda v: attitude.body_rates_between(UNIT, UNIT, v)),
    (estimator, "ts", lambda v: estimator.build_system(v)),
    (estimator, "ts", lambda v: estimator.axis_gain.__wrapped__(v, 500.0)),
    (estimator, "ratio", lambda v: estimator.axis_gain.__wrapped__(0.02, v)),
    (estimator, "ts", lambda v: estimator._unit_circle_magnitudes(v, [], None)),
    (frames, "r", lambda v: frames.spherical_to_cartesian(0.3, 0.1, v)),
    (frames, "r", lambda v: frames._elevation(5.0, v)),
    (lineangle, "counts_per_rev", lambda v: lineangle.resolution(v)),
    (pipelines, "r", lambda v: EstimatorConfig(r=v)),
    (pipelines, "ts", lambda v: EstimatorConfig(ts=v)),
    (pipelines, "ratios", lambda v: EstimatorConfig(ratios=(v, v, v))),
    (simkite, "r", lambda v: TrajectoryParams(r=v)),
    (simkite, "f_loop", lambda v: TrajectoryParams(f_loop=v)),
    (simkite, "speed_scale", lambda v: TrajectoryParams(speed_scale=v)),
    (simkite, "duration", lambda v: TrajectoryParams(duration=v)),
    (simkite, "ts", lambda v: simkite.synthesize(TrajectoryParams(duration=0.2),
                                                 NoiseSpec.none(), ts=v)),
]
IDS = [f"{module.__name__.split('.')[-1]}-{name}-{i}"
       for i, (module, name, _) in enumerate(GUARDS)]

not_positive = st.one_of(
    st.sampled_from([0, 0.0, -0.0, math.nan, math.inf, -math.inf, "1", None, True]),
    st.floats(max_value=0.0, allow_nan=False),
    st.integers(min_value=-2 ** 53, max_value=0),
)
positive = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.integers(min_value=1, max_value=2 ** 53),
)


class _PastGuard(Exception):
    """Raised right after the guard under test has let its value through."""


def _stop_after(name):
    """A stand-in for ``require_positive`` that runs the real rule and
    then stops the caller once the parameter ``name`` has passed it."""
    def check(checked, value):
        require_positive(checked, value)
        if checked == name:
            raise _PastGuard
    return check


@pytest.mark.parametrize("module, name, call", GUARDS, ids=IDS)
@given(value=not_positive)
def test_guard_rejects_by_name(module, name, call, value):
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be"):
        call(value)


@pytest.mark.parametrize("module, name, call", GUARDS, ids=IDS)
@given(value=positive)
def test_guard_passes_positive_finite(module, name, call, value):
    # The guarded bodies are stopped right after the guard, so a tiny
    # ts never asks synthesize for billions of ticks.
    with mock.patch.object(module, "require_positive", _stop_after(name)):
        with pytest.raises(_PastGuard):
            call(value)


@given(value=positive)
def test_rule_accepts_positive_finite(value):
    require_positive("x", value)


@given(value=not_positive)
def test_rule_message(value):
    with pytest.raises(DomainError) as info:
        require_positive("x", value)
    assert str(info.value) == f"x must be positive and finite, got {value!r}"


#: An integer that no float holds: ``float(BEYOND_FLOAT)`` overflows.
BEYOND_FLOAT = 10 ** 400
#: One that ``str`` refuses too, past its default 4,300-digit limit.
BEYOND_STR = 10 ** 5000

#: Every guard above, plus fields only ``require_finite`` checks and a
#: function that reaches ``require_positive`` through another.
BEYOND_FLOAT_CALLS = [(name, call) for _, name, call in GUARDS] + [
    ("seed", lambda v: NoiseSpec(seed=v)),
    ("encoder_cpr", lambda v: NoiseSpec(encoder_cpr=v)),
    ("approach", lambda v: EstimatorConfig(approach=v)),
    ("phi_g", lambda v: TrajectoryParams(phi_g=v)),
    ("guide_rise", lambda v: EncoderGeometry(guide_rise=v)),
    ("counts_per_rev", lambda v: lineangle.angles_to_encoder(0.5, 0.1, EncoderGeometry(),
                                                             counts_per_rev=v)),
]


@pytest.mark.parametrize("value", [BEYOND_FLOAT, BEYOND_STR], ids=["401-digits", "5001-digits"])
@pytest.mark.parametrize("name, call", BEYOND_FLOAT_CALLS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(BEYOND_FLOAT_CALLS)])
def test_integer_beyond_float_range_rejected_by_name(name, call, value):
    # The dataclasses run require_finite before require_positive.
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be (positive and )?finite"):
        call(value)


def test_rule_message_beyond_float_range():
    with pytest.raises(DomainError) as info:
        require_positive("x", BEYOND_FLOAT)
    assert str(info.value) == "x must be positive and finite, got an integer of 401 digits"
    with pytest.raises(DomainError) as info:
        require_positive("x", BEYOND_STR)
    assert str(info.value) == "x must be positive and finite, got an integer of 5001 digits"
    with pytest.raises(DomainError) as info:
        EstimatorConfig(ratios=(1.0, -0.0, BEYOND_STR))
    assert str(info.value) == "ratios must be finite, got (1.0, -0.0, an integer of 5001 digits)"


#: Every guard above, plus functions that reach ``require_positive``
#: through another.
DECIMAL_CALLS = [(name, call) for _, name, call in GUARDS] + [
    ("r", lambda v: frames.cartesian_to_spherical(np.array([3.0, 4.0, 29.0]), v)),
    ("r", lambda v: pipelines.geometric_correction((3.0, 4.0, 29.0), v)),
    ("ts", lambda v: estimator.kf_frequency_response((0.5, 0.1), v, [1.0])),
    ("counts_per_rev", lambda v: lineangle.angles_to_encoder(0.5, 0.1, EncoderGeometry(),
                                                             counts_per_rev=v)),
]


@pytest.mark.parametrize("name, call", DECIMAL_CALLS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(DECIMAL_CALLS)])
def test_decimal_rejected_by_name(name, call):
    """A ``Decimal`` passes ``math.isfinite`` and ``> 0.0`` but is not a
    ``numbers.Real``: it is refused by name, not by a bare ``TypeError``
    from float arithmetic further in."""
    with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be .*Decimal\('30'\)"):
        call(Decimal("30"))


@pytest.mark.parametrize("value, shown", [
    (10 ** 30 - 1, str(10 ** 30 - 1)),
    (-(10 ** 30 - 1), str(-(10 ** 30 - 1))),
    (10 ** 30, "an integer of 31 digits"),
    (-(10 ** 30), "an integer of 31 digits"),
    (2 ** 1000, "an integer of 302 digits"),
    (10 ** 400 - 1, "an integer of 400 digits"),
    (True, "True"),
    (1.5e300, "1.5e+300"),
    ((), "()"),
    ((0.4,), "(0.4,)"),
    ([BEYOND_STR, "a"], "[an integer of 5001 digits, 'a']"),
], ids=["30-digits", "minus-30-digits", "31-digits", "minus-31-digits", "2**1000",
        "400-nines", "bool", "float", "empty-tuple", "one-tuple", "list"])
def test_shown_by_digit_count_past_30_digits(value, shown):
    assert errors._shown(value) == shown


@pytest.mark.parametrize("call, message", [
    (lambda: EstimatorConfig(ratios=[1.0, 2.0, 3.0]),
     "ratios must be a tuple of finite numbers, got [1.0, 2.0, 3.0]"),
    (lambda: EstimatorConfig(ratios=np.array([1.0, 2.0, 3.0])),
     "ratios must be a tuple of finite numbers, got array([1., 2., 3.])"),
    (lambda: EstimatorConfig(k_gamma=(0.4, "0.9")),
     "k_gamma must be a tuple of finite numbers, got (0.4, '0.9')"),
    (lambda: EstimatorConfig(k_gamma=(BEYOND_STR, None)),
     "k_gamma must be a tuple of finite numbers, got (an integer of 5001 digits, None)"),
    (lambda: EstimatorConfig(r=np.array([30.0])), "r must be a finite number, got array([30.])"),
    (lambda: TrajectoryParams(r="30"), "r must be a finite number, got '30'"),
    (lambda: NoiseSpec(seed=None), "seed must be a finite number, got None"),
    (lambda: EncoderGeometry(guide_reach=[0.3]), "guide_reach must be a finite number, got [0.3]"),
    (lambda: EstimatorConfig(use_imu=2.5), "use_imu must be of type bool, got 2.5"),
    (lambda: EstimatorConfig(use_imu=np.int64(0)), "use_imu must be of type bool, got 0"),
    (lambda: EstimatorConfig(use_imu="yes"), "use_imu must be of type bool, got 'yes'"),
    (lambda: EstimatorConfig(geometry=NoiseSpec()),
     f"geometry must be of type EncoderGeometry, got {NoiseSpec()!r}"),
    (lambda: EstimatorConfig(geometry=0.3), "geometry must be of type EncoderGeometry, got 0.3"),
], ids=["list", "ndarray", "string-entry", "huge-entry", "ndarray-scalar-field", "string",
        "none", "list-scalar-field", "fraction-bool", "int64-bool", "string-bool",
        "other-dataclass", "number-dataclass"])
def test_field_not_a_number_rejected_by_name(call, message):
    """A field of the wrong kind raises ``DomainError`` naming it, not the
    bare ``TypeError`` of ``math.isfinite``, nor a bare error when a
    pipeline reads it; a ``bool`` field refuses anything but a Python or
    numpy bool, rather than running 2.5 as True."""
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: NoiseSpec(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: NoiseSpec(seed=np.float64(3.0)), "seed must be an integer, got 3.0"),
    (lambda: NoiseSpec(encoder_cpr=2.5), "encoder_cpr must be an integer, got 2.5"),
    (lambda: NoiseSpec(encoder_cpr=False), "encoder_cpr must be an integer, got False"),
    (lambda: EstimatorConfig(approach=True), "approach must be an integer, got True"),
    (lambda: EstimatorConfig(approach=2.0), "approach must be an integer, got 2.0"),
], ids=["fractional-seed", "float-seed", "fractional-count", "bool-count", "bool-approach",
        "float-approach"])
def test_integer_field_refuses_non_integers(call, message):
    """An ``int`` field refuses a float, however whole, and a ``bool`` by
    name, rather than failing in numpy, rounding readings to a fractional
    count, or running ``True`` as routing 1."""
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", [2, np.int64(2), np.int32(2)], ids=["int", "int64", "int32"])
def test_integer_field_keeps_any_integer(value):
    assert NoiseSpec(seed=value).seed is value
    assert EstimatorConfig(approach=value).approach is value


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(2), 2],
                         ids=["float64", "float32", "int64", "int"])
def test_numbers_of_other_types_accepted(value):
    assert EncoderGeometry(guide_rise=value).guide_rise == value
    assert EstimatorConfig(ratios=(value, 1.0, 1.0)).ratios[0] == value


@pytest.mark.parametrize("call, message", [
    (lambda: EncoderGeometry(guide_rise=True), "guide_rise must be a finite number, got True"),
    (lambda: EstimatorConfig(ratios=(True, 1.0, 1.0)),
     "ratios must be a tuple of finite numbers, got (True, 1.0, 1.0)"),
    (lambda: EstimatorConfig(r=True), "r must be a finite number, got True"),
    (lambda: simkite.synthesize(TrajectoryParams(duration=0.1), NoiseSpec.none(), ts=True),
     "ts must be positive and finite, got True"),
    (lambda: lineangle.resolution(True), "counts_per_rev must be positive and finite, got True"),
    (lambda: EstimatorConfig(ratios=(np.True_, 1.0, 1.0)),
     "ratios must be a tuple of finite numbers, got (np.True_, 1.0, 1.0)"),
], ids=["float-field", "tuple-field", "length-field", "tick-period", "line-count",
        "numpy-bool"])
def test_bool_refused_by_name(call, message):
    """A ``bool`` is not a number: ``True`` does not run as 1, as a length,
    a period, a ratio or a line count."""
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value, real", [
    (1.5, True), (-2, True), (np.float32(0.5), True), (np.int64(3), True), (math.nan, True),
    (10 ** 400, True), (True, False), (np.True_, False), (Decimal("1.5"), False),
    ("1.5", False), (None, False), (2j, False), (np.array(1.5), False),
], ids=["float", "int", "float32", "int64", "nan", "huge-int", "bool", "numpy-bool",
        "decimal", "text", "none", "complex", "0-d-array"])
def test_one_rule_for_a_real_number(value, real):
    assert errors.is_real(value) is real


#: (argument named, call with the value as one of its numbers), for each
#: public function that takes a number from its caller directly.
TAKES_A_NUMBER = [
    ("p_tilde", lambda v: pipelines.geometric_correction((3.0, 4.0, v), 30.0)),
    ("p", lambda v: frames.cartesian_to_spherical((3.0, 4.0, v), 30.0)),
    ("angle", lambda v: frames.wrap_angle(v)),
    ("theta", lambda v: frames.spherical_to_cartesian(v, 0.1, 30.0)),
    ("phi", lambda v: frames.spherical_to_cartesian(0.5, v, 30.0)),
    ("reading", lambda v: lineangle.encoder_to_angles((v, 0.1), EncoderGeometry())),
    ("theta", lambda v: lineangle.angles_to_encoder(v, 0.1, EncoderGeometry())),
    ("phi", lambda v: lineangle.angles_to_encoder(0.5, v, EncoderGeometry())),
    ("gains", lambda v: estimator.kf_frequency_response((v, 2.0), 0.02, [1.0])),
    ("k_gamma", lambda v: estimator.lo_frequency_response((v, 2.0), 0.02, [1.0])),
]


@pytest.mark.parametrize("value", ["0.5", None, True, Decimal("0.5")],
                         ids=["text", "none", "bool", "decimal"])
@pytest.mark.parametrize("name, call", TAKES_A_NUMBER,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(TAKES_A_NUMBER)])
def test_number_from_a_caller_refused_by_name(name, call, value):
    """Text is not read as a number, and nothing raises a bare
    ``TypeError`` or numpy's ``UFuncTypeError`` further in."""
    with pytest.raises(DomainError,
                       match=rf"^{name} must (be a real number|hold \d real numbers), got "):
        call(value)


@pytest.mark.parametrize("call, message", [
    (lambda: pipelines.geometric_correction(("3", "4", "5"), 30.0),
     "p_tilde must hold 3 real numbers, got ('3', '4', '5')"),
    (lambda: frames.wrap_angle("4"), "angle must be a real number, got '4'"),
    (lambda: estimator.kf_frequency_response(("0.5", "2"), 0.02, [1.0]),
     "gains must hold 2 real numbers, got ('0.5', '2')"),
], ids=["position", "angle", "gains"])
def test_refusal_shows_the_value(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("cls", [EncoderGeometry, EstimatorConfig, TrajectoryParams, NoiseSpec],
                         ids=lambda cls: cls.__name__)
def test_real_fields_stored_as_python_floats(cls):
    """Every ``float`` field given a float32 holds the Python float of its
    value, and every tuple field a tuple of Python floats; ``int`` and
    ``bool`` fields keep what was given."""
    defaults = cls()
    given, kept = {}, {}
    for field in dataclasses.fields(cls):
        value = getattr(defaults, field.name)
        if field.type == "float" or field.type.startswith("tuple"):
            given[field.name] = (tuple(map(np.float32, value)) if isinstance(value, tuple)
                                 else np.float32(value))
        elif field.type == "int":
            given[field.name] = kept[field.name] = np.int64(value)
        elif field.type == "bool":
            given[field.name] = kept[field.name] = np.bool_(value)
    spec = cls(**given)
    for name, value in given.items():
        stored = getattr(spec, name)
        if name in kept:
            assert stored is value, name
        elif isinstance(value, tuple):
            assert type(stored) is tuple and stored == tuple(map(float, value)), name
            assert {type(entry) for entry in stored} == {float}, name
        else:
            assert type(stored) is float and stored == float(value), name


@pytest.mark.parametrize("hint, width", [
    (tuple[float, float, float], 3),
    (tuple[float, float] | None, 2),
    (Optional[tuple[float, float, float, float]], 4),
    (tuple[float | None, float], 2),
    (tuple[float, ...], None),
    (float, None),
    (float | None, None),
    (Union[tuple[float, float], int], None),
    (int, None),
], ids=["tuple", "optional", "typing-optional", "union-entry", "variadic", "float",
        "optional-float", "union", "int"])
def test_tuple_width(hint, width):
    """Only a union is unwrapped: a bare tuple's arguments are its
    entries, an optional entry included."""
    assert errors._tuple_width(hint) == width
