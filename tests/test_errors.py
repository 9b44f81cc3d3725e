"""The positive-and-finite rule: every length, period, ratio and count the
package checks goes through ``errors.require_positive``.  Both that rule
and ``errors.require_finite`` count an integer beyond float range as not
finite."""

from __future__ import annotations

import math
import re
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
    st.sampled_from([0, 0.0, -0.0, math.nan, math.inf, -math.inf]),
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
    assert str(info.value) == f"x must be positive and finite, got {value}"


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
], ids=["30-digits", "minus-30-digits", "31-digits", "minus-31-digits", "2**1000",
        "400-nines", "bool", "float", "empty-tuple"])
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
], ids=["list", "ndarray", "string-entry", "huge-entry", "ndarray-scalar-field", "string",
        "none", "list-scalar-field"])
def test_field_not_a_number_rejected_by_name(call, message):
    """A field of the wrong kind raises ``DomainError`` naming it, not the
    bare ``TypeError`` of ``math.isfinite``."""
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(2), 2, True],
                         ids=["float64", "float32", "int64", "int", "bool"])
def test_numbers_of_other_types_accepted(value):
    assert EncoderGeometry(guide_rise=value).guide_rise == value
    assert EstimatorConfig(ratios=(value, 1.0, 1.0)).ratios[0] == value
