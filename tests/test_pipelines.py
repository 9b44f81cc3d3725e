from __future__ import annotations

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from filter_reference import (
    KinematicState,
    encoder_fix,
    gamma_unfiltered,
    luenberger_step,
    measurement_update,
    time_update,
    velocity_angle,
)
from kitefusion import pipelines
from kitefusion.attitude import GRAVITY, inertial_accel, quats_to_rots
from kitefusion.errors import DegenerateInputError, DomainError, LogFormatError
from kitefusion.estimator import axis_gain
from kitefusion.evalio import default_configs
from kitefusion.frames import (
    Z_OVER_R_TOL,
    cartesian_to_spherical,
    rot_g_to_l,
    rot_ned_to_g,
    spherical_to_cartesian,
    wrap_angle,
)
from kitefusion.lineangle import EncoderGeometry, EncoderReading, encoder_to_angles
from kitefusion.pipelines import (
    EstimateOutput,
    EstimationPipeline,
    EstimatorConfig,
    SensorFrame,
    geometric_correction,
    lo_frequency_response,
)
from kitefusion.simkite import NoiseSpec, TrajectoryParams, synthesize

R = 30.0
TS = 0.02
# geometry whose arm angles equal the wing's sphere angles directly
PASSTHROUGH = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                              pivot_height=0.0, pivot_setback=0.0)
NED_TO_G0 = rot_ned_to_g(0.0)
IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def pattern(t, r=R, f=0.16):
    """Analytic figure-eight state: angles, position, velocity,
    acceleration (ground frame) and velocity angle at time ``t``."""
    w_th, w_ph = 4.0 * np.pi * f, 2.0 * np.pi * f
    th = 0.7 + 0.15 * np.sin(w_th * t)
    thd = 0.15 * w_th * np.cos(w_th * t)
    thdd = -0.15 * w_th ** 2 * np.sin(w_th * t)
    ph = 0.75 * np.sin(w_ph * t)
    phd = 0.75 * w_ph * np.cos(w_ph * t)
    phdd = -0.75 * w_ph ** 2 * np.sin(w_ph * t)
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    p = r * np.array([ct * cp, ct * sp, st])
    v = r * np.array([-st * thd * cp - ct * sp * phd,
                      -st * thd * sp + ct * cp * phd,
                      ct * thd])
    a = r * np.array([
        -ct * cp * (thd ** 2 + phd ** 2) - st * cp * thdd
        + 2.0 * st * sp * thd * phd - ct * sp * phdd,
        -ct * sp * (thd ** 2 + phd ** 2) - st * sp * thdd
        - 2.0 * st * cp * thd * phd + ct * cp * phdd,
        -st * thd ** 2 + ct * thdd,
    ])
    gamma = math.atan2(ct * phd, thd)
    return th, ph, p, v, a, gamma


def accel_body(a_g):
    """Body-frame specific force that maps back to ``a_g`` at identity
    attitude and zero ground-frame heading."""
    return NED_TO_G0 @ (a_g - np.array([0.0, 0.0, GRAVITY]))


def encoder_frames(n, with_imu=True, drop=()):
    frames = []
    for k in range(n):
        t = k * TS
        th, ph, _, _, a, _ = pattern(t)
        frames.append(SensorFrame(
            t=t,
            accel_k=accel_body(a) if with_imu else None,
            quat=IDENTITY_Q.copy() if with_imu else None,
            encoder=None if k in drop else EncoderReading(th, ph),
        ))
    return frames


class TestPatternHelper:
    def test_derivatives_match_finite_differences(self):
        dt = 1e-5
        for t in (0.3, 1.7, 4.2):
            _, _, pm, _, _, _ = pattern(t - dt)
            _, _, p0, v0, _, _ = pattern(t)
            _, _, pp, _, _, _ = pattern(t + dt)
            assert_allclose(v0, (pp - pm) / (2 * dt), atol=1e-5)
        dt = 1e-4  # wider step: the second difference amplifies roundoff
        for t in (0.3, 1.7, 4.2):
            _, _, pm, _, _, _ = pattern(t - dt)
            _, _, p0, _, a0, _ = pattern(t)
            _, _, pp, _, _, _ = pattern(t + dt)
            assert_allclose(a0, (pp - 2 * p0 + pm) / dt ** 2, atol=1e-4)

    def test_velocity_angle_consistent_with_tangent_frame(self):
        for t in (0.1, 0.9, 2.6, 5.0):
            th, ph, _, v, _, gamma = pattern(t)
            assert_allclose(velocity_angle(rot_g_to_l(th, ph) @ v), gamma, atol=1e-12)


class TestGeometricCorrection:
    def test_worked_example(self):
        out = geometric_correction(np.array([4.0, 3.0, 0.0]), 10.0)
        assert_allclose(out, [8.0, 6.0, 0.0], atol=1e-12)
        assert type(out) is tuple and all(type(v) is float for v in out)

    def test_infinite_radius_rejected(self):
        # The rescale would put the fix at (inf, inf, 5.0).
        with pytest.raises(DomainError, match="r must be positive and finite"):
            geometric_correction(np.array([1.0, 2.0, 5.0]), math.inf)

    def test_height_passes_through_bit_exact(self):
        z = 0.1 + 0.2  # deliberately not representable as a round literal
        out = geometric_correction(np.array([5.0, 1.0, z]), 30.0)
        assert out[2] == z

    def test_result_lies_on_sphere(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.normal(scale=10.0, size=3)
            p[2] = rng.uniform(-25.0, 25.0)
            out = geometric_correction(p, 30.0)
            assert_allclose(np.linalg.norm(out), 30.0, atol=1e-9)
            # direction of XY preserved
            assert_allclose(math.atan2(out[1], out[0]),
                            math.atan2(p[1], p[0]), atol=1e-12)

    def test_height_outside_sphere_rejected(self):
        with pytest.raises(DomainError):
            geometric_correction(np.array([1.0, 1.0, 31.0]), 30.0)

    def test_zero_xy_rejected(self):
        with pytest.raises(DegenerateInputError):
            geometric_correction(np.array([0.0, 0.0, 10.0]), 30.0)

    @pytest.mark.parametrize("xy", [(0.0, 2.225073858507203e-309), (5e-324, -5e-324)])
    def test_xy_too_small_to_scale_rejected(self, xy):
        """r cos(elevation) / hypot(x, y) overflows: the zero component
        would come out NaN, the subnormal ones infinite."""
        with pytest.raises(DegenerateInputError, match="too small to scale"):
            geometric_correction(np.array([*xy, 0.0]), 1.0)

    @pytest.mark.parametrize("xy", [(math.nan, 1.0), (20.0, math.nan), (math.inf, 1.0),
                                    (20.0, -math.inf)])
    def test_non_finite_xy_rejected(self, xy):
        with pytest.raises(DomainError, match="XY components"):
            geometric_correction(np.array([*xy, 10.0]), 30.0)

    @pytest.mark.parametrize("z", [30.0 * (1.0 + 0.5 * Z_OVER_R_TOL), -30.0, 12.5,
                                   30.0 * (1.0 + 2.0 * Z_OVER_R_TOL), -31.0,
                                   math.nan, math.inf])
    def test_elevation_rule_shared_with_frames(self, z):
        """The correction accepts the heights cartesian_to_spherical
        accepts, and keeps the horizontal distance of their elevation."""
        p = (20.0, 1.0, z)
        try:
            theta, _ = cartesian_to_spherical(p, 30.0)
        except DomainError:
            with pytest.raises(DomainError):
                geometric_correction(p, 30.0)
        else:
            x, y, _ = geometric_correction(p, 30.0)
            assert_allclose(math.hypot(x, y), 30.0 * math.cos(theta), rtol=1e-15, atol=1e-15)

    def test_height_slack_is_the_frames_tolerance(self):
        z = 30.0 * (1.0 + 0.5 * Z_OVER_R_TOL)
        assert geometric_correction(np.array([1.0, 1.0, z]), 30.0)[2] == z
        with pytest.raises(DomainError):
            geometric_correction(np.array([1.0, 1.0, 30.0 * (1.0 + 2.0 * Z_OVER_R_TOL)]), 30.0)


class TestGammaUnfiltered:
    def test_recovers_angle_set_in_tangent_frame(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            th = rng.uniform(-1.2, 1.2)
            ph = rng.uniform(-3.0, 3.0)
            gamma = rng.uniform(-np.pi, np.pi)
            v_l = np.array([np.cos(gamma), np.sin(gamma), rng.normal()])
            v_g = rot_g_to_l(th, ph).T @ v_l
            assert_allclose(wrap_angle(gamma_unfiltered(v_g, th, ph) - gamma),
                            0.0, atol=1e-12)

    def test_zero_velocity_rejected(self):
        with pytest.raises(DegenerateInputError):
            gamma_unfiltered(np.zeros(3), 0.5, 0.2)


class TestLuenberger:
    K = (0.4, 0.9)

    def test_single_step_example(self):
        out = luenberger_step(np.array([0.0, 0.0]), 0.1, self.K, TS)
        assert_allclose(out, [0.04, 0.09], atol=1e-15)

    def test_innovation_wraps(self):
        out = luenberger_step(np.array([np.pi - 0.1, 0.0]), -np.pi + 0.1, self.K, TS)
        # the short way round is +0.2, not -2*pi + 0.2
        assert_allclose(out[0], np.pi - 0.1 + 0.4 * 0.2, atol=1e-12)
        assert_allclose(out[1], 0.9 * 0.2, atol=1e-12)

    def test_converges_to_constant(self):
        obs = np.array([0.0, 0.0])
        for _ in range(2000):
            obs = luenberger_step(obs, 1.0, self.K, TS)
        assert_allclose(obs, [1.0, 0.0], atol=1e-9)

    def test_tracks_ramp_without_lag(self):
        slope = 0.7
        obs = np.array([0.0, 0.0])
        for k in range(4000):
            obs = luenberger_step(obs, slope * k * TS, self.K, TS)
        # predictor state holds the value for sample k = 4000
        assert_allclose(obs[0], slope * 4000 * TS, atol=1e-9)
        assert_allclose(obs[1], slope, atol=1e-9)


class TestLoFrequencyResponse:
    def test_dc_limits(self):
        mag_angle, mag_rate = lo_frequency_response((0.4, 0.9), TS, np.array([1e-5]))
        assert_allclose(mag_angle[0], 1.0, atol=1e-6)
        assert mag_rate[0] < 1e-3

    def test_matches_time_domain_sinusoid(self):
        f = 0.3
        amp = 0.05  # small enough that wrapping never engages
        mag_angle, mag_rate = lo_frequency_response((0.4, 0.9), TS, np.array([f]))
        n_settle, n_meas = 3000, 5000  # 5000 samples = 30 whole periods
        emitted = np.empty((n_meas, 2))
        obs = np.array([0.0, 0.0])
        for k in range(n_settle + n_meas):
            if k >= n_settle:
                emitted[k - n_settle] = obs
            obs = luenberger_step(obs, amp * np.sin(2 * np.pi * f * k * TS), (0.4, 0.9), TS)
        k = np.arange(n_settle, n_settle + n_meas)
        phasor = np.exp(-2j * np.pi * f * k * TS)
        assert_allclose(2.0 * abs(emitted[:, 0] @ phasor) / n_meas, amp * mag_angle[0],
                        rtol=1e-6)
        assert_allclose(2.0 * abs(emitted[:, 1] @ phasor) / n_meas, amp * mag_rate[0],
                        rtol=1e-6)

    def test_band_validation(self):
        with pytest.raises(DomainError):
            lo_frequency_response((0.4, 0.9), TS, np.array([0.0]))
        with pytest.raises(DomainError):
            lo_frequency_response((0.4, 0.9), TS, np.array([25.0]))
        with pytest.raises(DomainError):
            lo_frequency_response((0.4, 0.9), TS, np.array([0.5, math.nan]))

    def test_zero_sample_time_rejected(self):
        # The Nyquist frequency 0.5 / ts would otherwise divide by zero.
        with pytest.raises(DomainError, match="ts must be positive and finite"):
            lo_frequency_response((0.4, 0.9), 0.0, [0.5])


class TestConfigValidation:
    def test_defaults_accepted(self):
        cfg = EstimatorConfig()
        assert cfg.approach == 3 and cfg.use_imu

    @pytest.mark.parametrize("kwargs", [
        {"r": 0.0},
        {"ts": -0.02},
        {"ratios": (500.0, 0.0, 500.0)},
        {"approach": 4},
        {"k_gamma": (0.0, 0.0)},
        {"r": math.inf},
        {"r": math.nan},
        {"phi_g": math.nan},
        {"phi_g": -math.inf},
        {"ts": math.inf},
        {"ratios": (500.0, math.inf, 500.0)},
        {"ratios": (500.0, 500.0, math.nan)},
        {"k_gamma": (math.nan, 0.9)},
        {"k_gamma": (0.4, math.inf)},
        {"k_gamma": (0.4, 0.9, 1.0)},
        {"k_gamma": (0.4,)},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EstimatorConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("r", math.nan), ("phi_g", -math.inf), ("ts", math.inf),
        ("ratios", (500.0, math.inf, 500.0)), ("k_gamma", (math.nan, 0.9)),
    ])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            EstimatorConfig(**{field: value})


def run(pipeline, frames):
    return [pipeline.step(f) for f in frames]


class TestPipelineLineAngle:
    def cfg(self, **kw):
        kw.setdefault("approach", 3)
        kw.setdefault("geometry", PASSTHROUGH)
        return EstimatorConfig(**kw)

    def test_first_encoder_tick_initialises(self):
        pipe = EstimationPipeline(self.cfg())
        th, ph, p, _, _, _ = pattern(0.0)
        out = pipe.step(SensorFrame(t=0.0, encoder=EncoderReading(th, ph)))
        assert out is not None
        assert_allclose(out.p_hat, p, atol=1e-12)
        assert_allclose(out.v_hat, 0.0)
        assert out.gamma_hat == 0.0  # no velocity yet, observer not started

    def test_noiseless_tracking_with_imu(self):
        pipe = EstimationPipeline(self.cfg())
        outs = run(pipe, encoder_frames(1500))
        errs_p, errs_g = [], []
        for out in outs:
            if out is None or out.t < 2.0:
                continue
            _, _, p, _, _, gamma = pattern(out.t)
            errs_p.append(np.max(np.abs(out.p_hat - p)))
            errs_g.append(abs(wrap_angle(out.gamma_hat - gamma)))
        assert max(errs_p) < 5e-3
        assert max(errs_g) < 0.25

    def test_gamma_output_is_continuous(self):
        pipe = EstimationPipeline(self.cfg())
        outs = [o for o in run(pipe, encoder_frames(1500)) if o is not None]
        gammas = np.array([o.gamma_hat for o in outs])
        steps = np.abs(wrap_angle(np.diff(gammas)))
        assert np.max(steps) < np.pi / 4

    def test_imu_reduces_error(self):
        with_imu = EstimationPipeline(self.cfg(use_imu=True))
        without = EstimationPipeline(self.cfg(use_imu=False))
        frames = encoder_frames(1500)
        err = {}
        for key, pipe in (("imu", with_imu), ("none", without)):
            worst = 0.0
            for out in run(pipe, frames):
                if out is None or out.t < 2.0:
                    continue
                _, _, p, _, _, _ = pattern(out.t)
                worst = max(worst, float(np.max(np.abs(out.p_hat - p))))
            err[key] = worst
        assert err["imu"] < err["none"]
        assert err["none"] < 1.0

    def test_encoder_gap_keeps_emitting(self):
        gap = set(range(300, 340))
        pipe = EstimationPipeline(self.cfg())
        outs = run(pipe, encoder_frames(600, drop=gap))
        assert all(o is not None for o in outs)
        # no correction was applied during the gap
        assert pipe.last_measurement is not None
        pipe2 = EstimationPipeline(self.cfg())
        for k, frame in enumerate(encoder_frames(600, drop=gap)):
            pipe2.step(frame)
            if k in gap:
                assert pipe2.last_measurement is None

    def test_other_sensors_ignored(self):
        frames_clean = encoder_frames(400)
        frames_dirty = encoder_frames(400)
        rng = np.random.default_rng(0)
        for f in frames_dirty:
            f.gps_xy = rng.normal(scale=100.0, size=2)
            f.baro_z = float(rng.normal(scale=100.0))
        a = run(EstimationPipeline(self.cfg()), frames_clean)
        b = run(EstimationPipeline(self.cfg()), frames_dirty)
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.p_hat, ob.p_hat)
            assert oa.gamma_hat == ob.gamma_hat

    def test_determinism(self):
        a = run(EstimationPipeline(self.cfg()), encoder_frames(500))
        b = run(EstimationPipeline(self.cfg()), encoder_frames(500))
        for oa, ob in zip(a, b):
            assert np.array_equal(oa.p_hat, ob.p_hat)
            assert np.array_equal(oa.v_hat, ob.v_hat)

    def test_time_regression_rejected(self):
        pipe = EstimationPipeline(self.cfg())
        pipe.step(SensorFrame(t=0.0))
        with pytest.raises(LogFormatError):
            pipe.step(SensorFrame(t=0.0))


finite = st.floats(allow_nan=False, allow_infinity=False)
geometries = st.one_of(
    st.just(PASSTHROUGH),
    st.builds(EncoderGeometry, guide_rise=st.floats(0.0, 2.0), guide_reach=st.floats(0.01, 2.0),
              pivot_height=st.floats(-1.0, 1.0), pivot_setback=st.floats(-1.0, 1.0)))
readings = st.builds(EncoderReading, finite, finite)
any_readings = st.builds(EncoderReading, st.floats(), st.floats())


def sphere_point(reading, geometry, r):
    """The routing-3 fix as the helpers compute it, or None for a
    vertical tether."""
    try:
        return spherical_to_cartesian(*encoder_to_angles(reading, geometry), r)
    except DegenerateInputError:
        return None


class TestEncoderFix:
    """Routing 3's fix is the line guide's direction scaled to the tether
    length: the point encoder_to_angles and spherical_to_cartesian give,
    to rounding, and it fails as they do."""

    @settings(max_examples=300, deadline=None)
    @given(geometry=geometries, r=st.floats(0.5, 2000.0),
           pair=st.lists(readings | any_readings, min_size=2, max_size=2))
    def test_matches_helpers(self, geometry, r, pair):
        """Two readings, NaN and infinite ones among them: each is refused
        with the helpers' message, dropped where they find a vertical
        tether, or gives their point within 1e-12 * r, the first fix as
        the seeded position and a later one as the shown correction."""
        pipe = EstimationPipeline(EstimatorConfig(approach=3, r=r, geometry=geometry))
        seeded = False
        for k, reading in enumerate(pair):
            frame = SensorFrame(t=k * TS, encoder=reading)
            try:
                want = sphere_point(reading, geometry, r)
            except DomainError as exc:
                with pytest.raises(DomainError) as raised:
                    pipe.step(frame)
                assert str(raised.value) == str(exc)
                continue
            out = pipe.step(frame)
            shown = pipe.last_measurement
            if not seeded:
                # The first fix seeds the position and is not shown.
                assert shown is None
                shown = None if out is None else (np.array(out.p_hat), (0, 1, 2))
                seeded = out is not None
            assert (shown is None) == (want is None)
            if want is not None:
                assert shown[1] == (0, 1, 2)
                assert np.max(np.abs(shown[0] - want)) <= 1e-12 * r, (shown[0], want)

    def test_guide_a_subnormal_distance_away(self):
        """A guide so close to the origin that r / |g| overflows still
        gives the helpers' point on the sphere."""
        geometry = EncoderGeometry(guide_rise=0.0, guide_reach=5e-324,
                                   pivot_height=0.0, pivot_setback=0.0)
        reading = EncoderReading(0.5, 0.5)
        out = EstimationPipeline(EstimatorConfig(approach=3, geometry=geometry)).step(
            SensorFrame(t=0.0, encoder=reading))
        assert out.p_hat == tuple(sphere_point(reading, geometry, R)) == (R, 0.0, 0.0)

    VERTICAL = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                               pivot_height=0.0, pivot_setback=1.0)

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("reading, error, message", [
        (EncoderReading(0.0, 0.0), None, None),
        (EncoderReading(math.inf, 0.1), DomainError,
         "encoder reading EncoderReading(theta_b=inf, phi_b=0.1) is not finite"),
        (EncoderReading(0.3, -math.inf), DomainError,
         "encoder reading EncoderReading(theta_b=0.3, phi_b=-inf) is not finite"),
        (EncoderReading(math.nan, math.inf), DomainError,
         "encoder reading EncoderReading(theta_b=nan, phi_b=inf) is not finite"),
        (EncoderReading(math.nan, 0.2), DomainError,
         "encoder reading EncoderReading(theta_b=nan, phi_b=0.2) is not finite"),
        (EncoderReading(0.5, math.nan), DomainError,
         "encoder reading EncoderReading(theta_b=0.5, phi_b=nan) is not finite"),
    ], ids=["vertical", "inf-elevation", "inf-azimuth", "nan-then-inf", "nan-elevation",
            "nan-azimuth"])
    def test_bad_reading(self, seeded, reading, error, message):
        """A vertical tether drops the fix; an infinite or NaN reading
        raises, on the seeding tick and later, and changes no state."""
        config = EstimatorConfig(approach=3, geometry=self.VERTICAL)
        hit, clean = EstimationPipeline(config), EstimationPipeline(config)
        ticks = [SensorFrame(t=k * TS, encoder=EncoderReading(0.2 + 0.01 * k, 0.3))
                 for k in range(6)]
        before = ticks[:3] if seeded else []
        for frame in before:
            hit.step(frame)
            clean.step(frame)
        bad = SensorFrame(t=len(before) * TS, encoder=reading)
        if error is None:
            got, want = hit.step(bad), clean.step(dataclasses.replace(bad, encoder=None))
            assert got == want and hit.last_measurement is None
        else:
            with pytest.raises(error) as raised:
                hit.step(bad)
            assert str(raised.value) == message
            if any(map(math.isinf, reading)):  # math's error, chained
                assert isinstance(raised.value.__cause__, ValueError)
        for frame in ticks[len(before) + 1:]:
            assert hit.step(frame) == clean.step(frame)
            assert repr(hit.last_measurement) == repr(clean.last_measurement)


def shown_bits(pipe):
    """``last_measurement`` of ``pipe`` as (bytes of p_meas, axes), or None."""
    shown = pipe.last_measurement
    return None if shown is None else (shown[0].tobytes(), shown[1])


def oracle_bits(reading, geometry, r):
    """What ``shown_bits`` reads after a seeded pipeline steps ``reading``
    alone, from the reference copy of the fix."""
    point = encoder_fix(reading, geometry, r)
    return None if point is None else (point.tobytes(), (0, 1, 2))


class TestFixMemo:
    """Each routing-3 pipeline holds the fix of every reading it has
    inverted and looks it up when the reading comes back; every tick
    still matches the per-reading inversion bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries, pool=st.lists(readings, min_size=1, max_size=4),
           picks=st.lists(st.integers(0, 3), min_size=2, max_size=40))
    def test_repeats_match_per_reading_oracle(self, geometry, pool, picks):
        """Readings drawn from a small set, so most ticks look their fix
        up, step like HelperPipeline, which inverts every reading."""
        frames = [SensorFrame(t=k * TS, encoder=pool[pick % len(pool)])
                  for k, pick in enumerate(picks)]
        config = EstimatorConfig(approach=3, geometry=geometry, use_imu=False)
        if all(encoder_fix(frame.encoder, geometry, config.r) is None for frame in frames):
            return  # nothing seeds, so nothing is emitted to compare
        assert replay_against_helpers(config, frames) is None

    def test_hit_ticks_show_fresh_arrays(self, monkeypatch):
        frames = encoder_frames(40, with_imu=False)
        loop = [EncoderReading(*map(float, f.encoder)) for f in frames[1:6]]
        frames = [dataclasses.replace(f, encoder=loop[k % 5]) for k, f in enumerate(frames)]
        pipe = EstimationPipeline(EstimatorConfig(approach=3))
        ref = HelperPipeline(EstimatorConfig(approach=3))
        inverted = []
        invert = pipelines._guide_point
        monkeypatch.setattr(pipelines, "_guide_point",
                            lambda *args: inverted.append(args[:2]) or invert(*args))
        for k, frame in enumerate(frames):
            assert_same_tick(k, pipe, ref, pipe.step(frame), ref.step(frame))
        assert inverted == loop  # every later tick was a lookup
        assert len(pipe._fixes) == 5
        first, again = pipe.last_measurement[0], pipe.last_measurement[0]
        assert first is not again
        first[:] = 0.0
        assert pipe.last_measurement[0].tobytes() == again.tobytes()
        assert again.tobytes() == oracle_bits(loop[39 % 5], EncoderGeometry(), R)[0]

    # The sign of a zero azimuth reading carries into the side of the
    # fix, and with a pivot height of -0.0 the sign of a zero elevation
    # reading carries into its height.
    SIGNED = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                             pivot_height=-0.0, pivot_setback=2.0)

    @pytest.mark.parametrize("zero, signed", [
        (EncoderReading(0.3, 0.0), EncoderReading(0.3, -0.0)),
        (EncoderReading(0.0, 0.4), EncoderReading(-0.0, 0.4)),
    ], ids=["azimuth", "elevation"])
    def test_signed_zero_readings_inverted_apart(self, zero, signed):
        assert oracle_bits(zero, self.SIGNED, R) != oracle_bits(signed, self.SIGNED, R)
        pipe = EstimationPipeline(EstimatorConfig(approach=3, geometry=self.SIGNED))
        pipe.step(SensorFrame(t=0.0, encoder=EncoderReading(0.5, 0.5)))
        for k, reading in enumerate([zero, signed, zero, signed, signed, zero]):
            pipe.step(SensorFrame(t=(k + 1) * TS, encoder=reading))
            assert shown_bits(pipe) == oracle_bits(reading, self.SIGNED, R), k
        assert list(pipe._fixes) == [(0.5, 0.5)]

    def test_readings_not_of_floats_inverted_apart(self):
        """A float32 reading equal to a float one computes in float32 and
        is not looked up; a list reading is unpacked, and held when it
        holds floats."""
        pipe = EstimationPipeline(EstimatorConfig(approach=3))
        single = np.float32(0.7), np.float32(0.3)
        as_float = EncoderReading(float(single[0]), float(single[1]))
        assert as_float == single
        assert oracle_bits(as_float, EncoderGeometry(), R) != \
            oracle_bits(EncoderReading(*single), EncoderGeometry(), R)
        pipe.step(SensorFrame(t=0.0, encoder=as_float))
        for k, reading in enumerate([as_float, single, list(single), [0.7, 0.3]]):
            pipe.step(SensorFrame(t=(k + 1) * TS, encoder=reading))
            assert shown_bits(pipe) == oracle_bits(EncoderReading(*reading),
                                                   EncoderGeometry(), R), k
        assert list(pipe._fixes) == [as_float, (0.7, 0.3)]

    # Forward and side both vanish for a nonzero reading: the guide sits
    # at exactly the setback, and the side offset underflows to zero.
    SUBNORMAL_VERTICAL = (EncoderGeometry(guide_rise=0.0, guide_reach=1.0, pivot_height=0.0,
                                          pivot_setback=math.cos(1.2)),
                          EncoderReading(1.2, 5e-324))

    @pytest.mark.parametrize("reading, error, message", [
        (EncoderReading(math.inf, 0.1), DomainError,
         "encoder reading EncoderReading(theta_b=inf, phi_b=0.1) is not finite"),
        (EncoderReading(0.3, math.nan), DomainError,
         "encoder reading EncoderReading(theta_b=0.3, phi_b=nan) is not finite"),
        (EncoderReading(0.0, 0.0), None, None),
        ("subnormal", None, None),
    ], ids=["infinite", "nan", "vertical", "vertical-nonzero"])
    def test_bad_readings_every_time(self, reading, error, message):
        """An infinite or NaN reading raises each time it comes, and a
        vertical one drops the fix each time; neither is held."""
        geometry = TestEncoderFix.VERTICAL
        if reading == "subnormal":
            geometry, reading = self.SUBNORMAL_VERTICAL
        if error is None:
            assert encoder_fix(reading, geometry, R) is None  # a vertical tether
        config = EstimatorConfig(approach=3, geometry=geometry, use_imu=False)
        hit, clean = EstimationPipeline(config), EstimationPipeline(config)
        good = [EncoderReading(0.2, 0.3), EncoderReading(0.25, 0.35)]
        for k in range(12):
            frame = SensorFrame(t=k * TS, encoder=reading if k % 3 == 1 else good[k % 2])
            if k % 3 != 1:
                assert hit.step(frame) == clean.step(frame)
                assert shown_bits(hit) == shown_bits(clean)
            elif error is None:
                assert hit.step(frame) == clean.step(dataclasses.replace(frame, encoder=None))
                assert hit.last_measurement is None
            else:
                with pytest.raises(error) as raised:
                    hit.step(frame)
                assert str(raised.value) == message
        assert list(hit._fixes) == [tuple(good[0]), tuple(good[1])]

    @staticmethod
    def distinct_frames(count, repeat):
        """``count`` distinct readings, each held for ``repeat`` ticks."""
        return [SensorFrame(t=k * TS, encoder=EncoderReading(0.3 + 1e-4 * (k // repeat),
                                                             0.2 - 1e-4 * (k // repeat)))
                for k in range(count * repeat)]

    def test_held_fixes_bounded(self):
        """Readings that come back (each for three ticks) fill the held
        fixes slowly: past ``_FIXES_HELD`` nothing more is held, held
        readings are still looked up, and the readings past the bound
        step like HelperPipeline."""
        held = pipelines._FIXES_HELD
        frames = self.distinct_frames(held + 50, 3)
        frames += frames[:20] + frames[-20:]  # held readings, then readings past the bound
        frames = [dataclasses.replace(f, t=k * TS) for k, f in enumerate(frames)]
        config = EstimatorConfig(approach=3, use_imu=False)
        pipe = EstimationPipeline(config)
        for frame in frames:
            pipe.step(frame)
        assert list(pipe._fixes) == [tuple(f.encoder) for f in frames[:3 * held:3]]
        assert replay_against_helpers(config, frames) is None


def unit_quaternion(q):
    norm = math.sqrt(sum(x * x for x in q))
    return np.array([x / norm for x in q])


def bounded(limit):
    return st.floats(-limit, limit)


frames_bounded = st.lists(st.fixed_dictionaries({
    "accel_k": st.none() | st.lists(bounded(1e3), min_size=3, max_size=3).map(np.array),
    "quat": st.none() | st.lists(bounded(1.0), min_size=4, max_size=4).filter(
        lambda q: sum(x * x for x in q) > 0.01).map(unit_quaternion),
    "gps_xy": st.none() | st.lists(bounded(1e4), min_size=2, max_size=2).map(np.array),
    "baro_z": st.none() | bounded(1e4),
    "encoder": st.none() | st.builds(EncoderReading, bounded(10.0), bounded(10.0)),
}), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(approach=st.sampled_from([1, 2, 3]), use_imu=st.booleans(),
       phi_g=bounded(math.pi), r=st.floats(1.0, 1e3), geometry=geometries, channels=frames_bounded)
def test_finite_frames_give_finite_outputs(approach, use_imu, phi_g, r, geometry, channels):
    """On every routing, finite and bounded frames (unit quaternions)
    step without raising, and every output field is finite."""
    config = EstimatorConfig(approach=approach, use_imu=use_imu, phi_g=phi_g, r=r,
                             geometry=geometry)
    pipe = EstimationPipeline(config)
    for k, fields in enumerate(channels):
        out = pipe.step(SensorFrame(t=k * TS, **fields))
        if out is not None:
            values = (out.t, *out.p_hat, *out.v_hat, *out[3:])
            assert all(map(math.isfinite, values)), (k, out)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: A finite value for each vector channel a frame may lack.
FINITE_STANDIN = {"quat": (1.0, 0.0, 0.0, 0.0), "gps_xy": (3.0, 4.0), "encoder": (0.3, 0.2)}
#: The channels each routing reads besides the time and, with the IMU
#: on, the attitude.
ROUTED = {1: ("gps_xy", "baro_z"), 2: ("gps_xy", "baro_z"), 3: ("encoder",)}


@settings(max_examples=200, deadline=None)
@given(approach=st.sampled_from([1, 2, 3]), use_imu=st.booleans(), phi_g=bounded(math.pi),
       r=st.floats(1.0, 1e3), geometry=geometries,
       channels=frames_bounded.filter(lambda c: len(c) > 1), data=st.data())
def test_non_finite_frame_rejected_without_trace(approach, use_imu, phi_g, r, geometry,
                                                 channels, data):
    """On every routing, a frame whose time, or a channel the routing
    reads, is not finite raises LogFormatError or DomainError, and every
    later output is that of a pipeline that never saw the frame."""
    config = EstimatorConfig(approach=approach, use_imu=use_imu, phi_g=phi_g, r=r,
                             geometry=geometry)
    frames = [SensorFrame(t=k * TS, **fields) for k, fields in enumerate(channels)]
    at = data.draw(st.integers(0, len(frames) - 2), label="at")
    field = data.draw(st.sampled_from(("t", *("quat",) * use_imu, *ROUTED[approach])),
                      label="field")
    value = data.draw(NON_FINITE, label="value")
    bad = frames[at]
    if field in ("t", "baro_z"):
        bad = dataclasses.replace(bad, **{field: value})
    else:
        entries = list(FINITE_STANDIN[field] if getattr(bad, field) is None
                       else getattr(bad, field))
        entries[data.draw(st.integers(0, len(entries) - 1), label="entry")] = value
        bad = dataclasses.replace(bad, **{field: EncoderReading(*entries) if field == "encoder"
                                          else np.array(entries)})
        if field == "quat" and bad.accel_k is None:
            # The attitude is read only with an acceleration.
            bad = dataclasses.replace(bad, accel_k=np.zeros(3))
    seen, clean = EstimationPipeline(config), EstimationPipeline(config)
    for frame in frames[:at]:
        seen.step(frame)
        clean.step(frame)
    with pytest.raises((LogFormatError, DomainError)):
        seen.step(bad)
    for frame in frames[at + 1:]:
        assert repr(seen.step(frame)) == repr(clean.step(frame))
        assert shown_bits(seen) == shown_bits(clean)


def test_xy_too_small_to_scale_dropped():
    """Found by the test above: routing 2 dropped nothing here and
    emitted a NaN position."""
    pipe = EstimationPipeline(EstimatorConfig(approach=2, r=1.0, use_imu=False))
    assert pipe.step(SensorFrame(t=0.0, gps_xy=np.array([0.0, 2.225073858507203e-309]),
                                 baro_z=0.0)) is None
    out = pipe.step(SensorFrame(t=TS, gps_xy=np.array([0.5, 0.5]), baro_z=0.0))
    assert all(map(math.isfinite, (*out.p_hat, *out.v_hat, *out[3:])))


class TestPipelineRadio:
    # GPS every 6th tick and height every 3rd: the held height is fresh
    # whenever an XY fix arrives, and the wing was seeded with a 40 m/s
    # velocity error, so the error is judged after the transient decays
    SETTLE = 8.0

    def radio_frames(self, n, gps_every=6, baro_every=3, gps_scale=1.0,
                     with_imu=True):
        frames = []
        for k in range(n):
            t = k * TS
            _, _, p, _, a, _ = pattern(t)
            frames.append(SensorFrame(
                t=t,
                accel_k=accel_body(a) if with_imu else None,
                quat=IDENTITY_Q.copy() if with_imu else None,
                gps_xy=gps_scale * p[:2] if k % gps_every == 0 else None,
                baro_z=float(p[2]) if k % baro_every == 0 else None,
            ))
        return frames

    def test_approach1_warmup_and_tracking(self):
        pipe = EstimationPipeline(EstimatorConfig(approach=1))
        outs = run(pipe, self.radio_frames(2000))
        assert outs[0] is not None  # both sensors present on the first tick
        worst = max(np.max(np.abs(o.p_hat - pattern(o.t)[2]))
                    for o in outs if o.t >= self.SETTLE)
        assert worst < 0.3

    def test_approach1_waits_for_both_sensors(self):
        pipe = EstimationPipeline(EstimatorConfig(approach=1))
        assert pipe.step(SensorFrame(t=0.0, gps_xy=np.array([20.0, 0.0]))) is None
        assert pipe.step(SensorFrame(t=TS)) is None
        out = pipe.step(SensorFrame(t=2 * TS, baro_z=15.0))
        assert out is not None
        assert_allclose(out.p_hat, [20.0, 0.0, 15.0])

    def test_approach2_waits_for_height_before_xy(self):
        pipe = EstimationPipeline(EstimatorConfig(approach=2))
        # an XY fix before any height sample cannot be corrected: dropped
        assert pipe.step(SensorFrame(t=0.0, gps_xy=np.array([20.0, 0.0]))) is None
        assert pipe.step(SensorFrame(t=TS, baro_z=15.0)) is None
        out = pipe.step(SensorFrame(t=2 * TS, gps_xy=np.array([20.0, 0.0])))
        assert out is not None
        # seeded XY was rescaled onto the sphere of radius 30 at height 15
        assert_allclose(np.linalg.norm(out.p_hat), 30.0, atol=1e-9)

    def test_sphere_correction_cancels_radial_gps_error(self):
        """An XY fix with a purely radial error is restored exactly by the
        height-based rescaling, so routing 2 beats routing 1 by a wide
        margin when the satellite fix is scaled 20% outward."""
        frames = self.radio_frames(2000, gps_scale=1.2)
        errs = {}
        for approach in (1, 2):
            pipe = EstimationPipeline(EstimatorConfig(approach=approach))
            worst = 0.0
            for out in run(pipe, frames):
                if out is None or out.t < self.SETTLE:
                    continue
                worst = max(worst, float(np.max(np.abs(out.p_hat - pattern(out.t)[2]))))
            errs[approach] = worst
        assert errs[2] < 0.1
        assert errs[1] > 1.0

    def test_unusable_correction_sample_dropped(self):
        pipe = EstimationPipeline(EstimatorConfig(approach=2))
        pipe.step(SensorFrame(t=0.0, baro_z=15.0))
        out = pipe.step(SensorFrame(t=TS, gps_xy=np.array([0.0, 0.0])))
        assert out is None  # degenerate fix ignored, still warming up
        out = pipe.step(SensorFrame(t=2 * TS, gps_xy=np.array([20.0, 1.0])))
        assert out is not None

    def test_nan_fix_rejected(self):
        """A correction leaves every axis outside its own bit-unchanged,
        and a non-finite x fix is refused before it reaches any axis."""
        def last(x):
            pipe = EstimationPipeline(EstimatorConfig(approach=1))
            pipe.step(SensorFrame(t=0.0, gps_xy=np.array([20.0, 1.0]), baro_z=15.0))
            return pipe.step(SensorFrame(t=TS, gps_xy=np.array([x, 1.0])))

        far, good = last(1e3), last(21.0)
        assert far.p_hat[1:] == good.p_hat[1:] == (1.0, 15.0)
        assert far.v_hat[1:] == good.v_hat[1:]
        with pytest.raises(DomainError, match=r"^XY fix \(nan, 1\.0\) at t=0\.02 is not finite$"):
            last(math.nan)

    @pytest.mark.parametrize("xy", [(math.nan, 1.0), (20.0, math.inf)])
    def test_sphere_routing_rejects_non_finite_fix(self, xy):
        """Routing 2 refuses a fix with a non-finite component rather than
        dropping it unseen; the next tick is that of a run without it."""
        def run(fix):
            pipe = EstimationPipeline(EstimatorConfig(approach=2))
            pipe.step(SensorFrame(t=0.0, baro_z=15.0))
            pipe.step(SensorFrame(t=TS, gps_xy=np.array([20.0, 1.0])))
            if fix is not None:
                with pytest.raises(DomainError, match=r"^XY fix .* at t=0\.04 is not finite$"):
                    pipe.step(SensorFrame(t=2 * TS, gps_xy=fix))
            return pipe, pipe.step(SensorFrame(t=3 * TS))

        pipe, out = run(np.array(xy))
        assert pipe.last_measurement is None
        assert all(map(math.isfinite, (*out.p_hat, *out.v_hat)))
        assert repr(out) == repr(run(None)[1])


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejected_first_and_later(self, t):
        with pytest.raises(LogFormatError, match="finite"):
            EstimationPipeline(EstimatorConfig()).step(SensorFrame(t=t))
        pipe = EstimationPipeline(EstimatorConfig())
        pipe.step(SensorFrame(t=0.0))
        with pytest.raises(LogFormatError, match="finite"):
            pipe.step(SensorFrame(t=t))
        # the rejected tick leaves the increasing-time check in force
        pipe.step(SensorFrame(t=TS))
        with pytest.raises(LogFormatError, match="increase"):
            pipe.step(SensorFrame(t=0.5 * TS))

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["nan", "repeat"])
    def test_primed_pipeline_passes_a_refused_tick(self, approach, bad):
        """A tick refused for its time moves a primed pipeline past its
        acceleration, as any other tick that raises does: stepped on
        after the caught error, primed and unprimed pipelines agree tick
        by tick, bit for bit."""
        frames, _ = synthesize(TrajectoryParams(duration=1.0), NoiseSpec(seed=1))
        frames[20] = dataclasses.replace(frames[20],
                                         t=math.nan if bad == "nan" else frames[19].t)
        config = default_configs()[approach - 1]
        assert config.use_imu
        primed, unprimed = EstimationPipeline(config), EstimationPipeline(config)
        primed.prime(frames)
        for k, frame in enumerate(frames):
            if k == 20:
                for pipe in (primed, unprimed):
                    with pytest.raises(LogFormatError):
                        pipe.step(frame)
                continue
            assert repr(primed.step(frame)) == repr(unprimed.step(frame)), k


# ----------------------------------------------------------------------
# Reference: the array-form pipeline that EstimationPipeline replaced.
# Each tick runs the stacked 6x3 gain and the 3x3 rotation matrices
# through numpy; the float pipeline must agree with it on every output.


def ref_accel_to_inertial(a_k, q, phi_g):
    a_g = rot_ned_to_g(phi_g) @ (quats_to_rots([q])[0] @ np.asarray(a_k, dtype=float))
    a_g[2] += GRAVITY
    return a_g


def stacked_gain(config):
    """The 6x3 gain of the stacked filter, assembled from the per-axis
    ``(k1, k2)``: column ``axis`` holds ``k1`` in row ``axis`` and ``k2``
    in row ``axis + 3``, zeros elsewhere."""
    K = np.zeros((6, 3))
    for axis, ratio in enumerate(config.ratios):
        K[axis, axis], K[axis + 3, axis] = axis_gain(config.ts, ratio)
    return K


def ref_measurement_update(p, v, p_meas, gain, axes):
    cols = list(axes)
    dx = gain[:, cols] @ (np.asarray(p_meas, dtype=float)[cols] - p[cols])
    return p + dx[:3], v + dx[3:]


def ref_luenberger_step(obs, gamma_meas, k_gamma, ts):
    innovation = wrap_angle(gamma_meas - obs[0])
    return np.array([obs[0] + ts * obs[1] + k_gamma[0] * innovation,
                     obs[1] + k_gamma[1] * innovation])


class ArrayPipeline:
    """The previous EstimationPipeline, numpy arrays throughout."""

    def __init__(self, config):
        self.config = config
        self.gain = stacked_gain(config)
        self._state = None
        self._seed = [None, None, None]
        self._held_z = None
        self._obs = None
        self._phi_prev = 0.0
        self._last_t = None
        self.last_measurement = None

    def step(self, frame):
        if self._last_t is not None and frame.t <= self._last_t:
            raise LogFormatError(f"sample times must increase: {frame.t} after {self._last_t}")
        self._last_t = frame.t
        cfg = self.config
        if cfg.use_imu and frame.accel_k is not None and frame.quat is not None:
            a_g = ref_accel_to_inertial(frame.accel_k, frame.quat, cfg.phi_g)
        else:
            a_g = np.zeros(3)
        if self._state is not None:
            p, v = self._state
            self._state = (p + cfg.ts * v, v + cfg.ts * a_g)
        self.last_measurement = None
        self._route_measurements(frame)
        if self._state is None and all(s is not None for s in self._seed):
            self._state = (np.array(self._seed, dtype=float), np.zeros(3))
        if self._state is None:
            return None
        return self._emit(frame.t)

    def _correct(self, p_meas, axes):
        if self._state is not None:
            self._state = ref_measurement_update(*self._state, p_meas, self.gain, axes)
            self.last_measurement = (np.asarray(p_meas, dtype=float).copy(), axes)
        else:
            for axis in axes:
                self._seed[axis] = float(p_meas[axis])

    def _route_measurements(self, frame):
        cfg = self.config
        if cfg.approach == 1:
            if frame.gps_xy is not None:
                self._correct(np.array([frame.gps_xy[0], frame.gps_xy[1], 0.0]), (0, 1))
            if frame.baro_z is not None:
                self._correct(np.array([0.0, 0.0, frame.baro_z]), (2,))
        elif cfg.approach == 2:
            if frame.baro_z is not None:
                self._held_z = float(frame.baro_z)
                self._correct(np.array([0.0, 0.0, frame.baro_z]), (2,))
            if frame.gps_xy is not None and self._held_z is not None:
                raw = np.array([frame.gps_xy[0], frame.gps_xy[1], self._held_z])
                try:
                    corrected = geometric_correction(raw, cfg.r)
                except (DomainError, DegenerateInputError):
                    return
                self._correct(corrected, (0, 1))
        elif frame.encoder is not None:
            try:
                theta, phi = encoder_to_angles(frame.encoder, cfg.geometry)
            except DegenerateInputError:
                return
            self._correct(spherical_to_cartesian(theta, phi, cfg.r), (0, 1, 2))

    def _emit(self, t):
        cfg = self.config
        p, v = self._state
        theta = math.asin(min(1.0, max(-1.0, p[2] / cfg.r)))
        if p[0] == 0.0 and p[1] == 0.0:
            phi = self._phi_prev
        else:
            phi = math.atan2(p[1], p[0])
        self._phi_prev = phi
        try:
            gamma_meas = velocity_angle(rot_g_to_l(theta, phi) @ v)
        except DegenerateInputError:
            gamma_meas = None
        if self._obs is None and gamma_meas is not None:
            self._obs = np.array([gamma_meas, 0.0])
        if self._obs is None:
            gamma_out, gamma_dot_out = 0.0, 0.0
        else:
            gamma_out = float(wrap_angle(self._obs[0]))
            gamma_dot_out = float(self._obs[1])
            if gamma_meas is not None:
                self._obs = ref_luenberger_step(self._obs, gamma_meas, cfg.k_gamma, cfg.ts)
            else:
                self._obs = np.array([self._obs[0] + cfg.ts * self._obs[1], self._obs[1]])
        return EstimateOutput(t, p.copy(), v.copy(), theta, phi, gamma_out, gamma_dot_out)


def assert_close(actual, expected, what):
    """Equal within 1e-12 relative to max(1, |expected|): the float
    rotations sum in another order than numpy's matrix products."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    bound = 1e-12 * np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(actual - expected) <= bound), (what, actual, expected)


def replay_against_reference(config, frames):
    """Step both pipelines through ``frames`` and compare every tick.

    Returns the index of the tick where both raised ``DomainError``, or
    None when the whole stream ran."""
    new, ref = EstimationPipeline(config), ArrayPipeline(config)
    first_output = None
    for k, frame in enumerate(frames):
        try:
            expected = ref.step(frame)
        except DomainError:
            with pytest.raises(DomainError):
                new.step(frame)
            return k
        out = new.step(frame)
        assert (out is None) == (expected is None), k
        assert (new.last_measurement is None) == (ref.last_measurement is None), k
        if ref.last_measurement is not None:
            assert new.last_measurement[1] == ref.last_measurement[1]
            assert isinstance(new.last_measurement[0], np.ndarray)
            assert_close(new.last_measurement[0], ref.last_measurement[0], (k, "p_meas"))
        if expected is None:
            continue
        if first_output is None:
            first_output = k
        assert all(type(x) is float for x in (*out.p_hat, *out.v_hat))
        assert type(out.p_hat) is tuple and type(out.v_hat) is tuple
        for name, a, b in zip(EstimateOutput._fields, out, expected):
            assert_close(a, b, (k, name))
    assert first_output is not None
    return None


@functools.lru_cache(maxsize=None)
def reference_record(noisy, phi_g):
    noise = NoiseSpec(seed=23) if noisy else NoiseSpec.none(seed=23)
    frames, _ = synthesize(TrajectoryParams(duration=4.0, speed_scale=3.0, phi_g=phi_g), noise)
    return tuple(frames)


class TestMatchesArrayPipeline:
    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("use_imu", [True, False])
    @pytest.mark.parametrize("phi_g", [0.0, 0.6])
    def test_synthesized_records(self, approach, noisy, use_imu, phi_g):
        config = dataclasses.replace(default_configs()[approach - 1],
                                     use_imu=use_imu, phi_g=phi_g)
        assert replay_against_reference(config, reference_record(noisy, phi_g)) is None

    def test_encoder_gap(self):
        frames = [dataclasses.replace(f, encoder=None) if 60 <= k < 100 else f
                  for k, f in enumerate(reference_record(True, 0.0))]
        assert replay_against_reference(default_configs()[2], frames) is None

    def test_vertical_encoder_reading_dropped(self):
        # With the pivot set back by the full guide reach, arm angles
        # (0, 0) put the guide on the vertical through the origin.
        geometry = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                                   pivot_height=0.0, pivot_setback=1.0)
        frames = [dataclasses.replace(f, encoder=EncoderReading(0.0, 0.0)) if k in (0, 90) else f
                  for k, f in enumerate(reference_record(True, 0.0))]
        config = dataclasses.replace(default_configs()[2], geometry=geometry)
        assert replay_against_reference(config, frames) is None

    @pytest.mark.parametrize("changes", [
        {"gps_xy": np.array([0.0, 0.0])},
        {"gps_xy": np.array([20.0, 1.0]), "baro_z": 31.0},
    ])
    def test_sphere_correction_drops(self, changes):
        """XY at zero and a height above the sphere are dropped, both
        while warming up and once filtering."""
        frames = list(reference_record(True, 0.0))
        for k in (0, 1, 120):
            frames[k] = dataclasses.replace(frames[k], **changes)
        assert replay_against_reference(default_configs()[1], frames) is None

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_nan_quaternion_raises_at_its_tick(self, approach):
        """A nan attitude fails the unit-norm check like a non-unit one,
        instead of turning every later estimate into nan."""
        frames, _ = synthesize(TrajectoryParams(duration=1.0), NoiseSpec(seed=1))
        frames[10] = dataclasses.replace(frames[10], quat=np.array([math.nan, 0.0, 0.0, 0.0]))
        pipeline = EstimationPipeline(default_configs()[approach - 1])
        for frame in frames[:10]:
            pipeline.step(frame)
        with pytest.raises(DomainError, match="quaternion norm nan"):
            pipeline.step(frames[10])

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_non_unit_quaternion_raises_at_same_tick(self, approach):
        frames = list(reference_record(True, 0.0))
        frames[77] = dataclasses.replace(frames[77], quat=1.01 * frames[77].quat)
        assert replay_against_reference(default_configs()[approach - 1], frames) == 77


# ----------------------------------------------------------------------
# Reference: the step that called the helpers in filter_reference.
# EstimationPipeline.step does their arithmetic inline, in the same
# order, so it must agree with this one bit for bit on finite input.


class HelperPipeline:
    """The previous EstimationPipeline: float state in a KinematicState,
    one helper call per stage, ndarray outputs, and routing 3's fix from
    the reference copy ``encoder_fix``.  It clamps a non-finite height
    into an elevation of -pi/2, which the pipeline no longer does (see
    TestNonFiniteHeight)."""

    def __init__(self, config):
        self.config = config
        self._gains = tuple(axis_gain(config.ts, ratio) for ratio in config.ratios)
        self._heading = (math.cos(config.phi_g), math.sin(config.phi_g))
        self._state = None
        self._seed = [None, None, None]
        self._held_z = None
        self._obs = None
        self._phi_prev = 0.0
        self._last_t = None
        self.last_measurement = None

    def step(self, frame):
        t = frame.t
        if not math.isfinite(t):
            raise LogFormatError(f"sample time must be finite, got {t}")
        if self._last_t is not None and not t > self._last_t:
            raise LogFormatError(f"sample times must increase: {t} after {self._last_t}")
        self._last_t = t
        cfg = self.config
        if cfg.use_imu and frame.accel_k is not None and frame.quat is not None:
            a_g = inertial_accel(frame.accel_k.tolist(), frame.quat.tolist(), *self._heading)
        else:
            a_g = (0.0, 0.0, 0.0)
        if self._state is not None:
            time_update(self._state, a_g, cfg.ts)
        self.last_measurement = None
        self._route_measurements(frame)
        if self._state is None and None not in self._seed:
            self._state = KinematicState(list(self._seed), [0.0, 0.0, 0.0])
        if self._state is None:
            return None
        return self._emit(t)

    def _correct(self, p_meas, axes):
        if self._state is not None:
            measurement_update(self._state, p_meas.tolist(), self._gains, axes)
            self.last_measurement = (p_meas, axes)
        else:
            for axis in axes:
                self._seed[axis] = float(p_meas[axis])

    def _route_measurements(self, frame):
        cfg = self.config
        if cfg.approach == 1:
            if frame.gps_xy is not None:
                self._correct(np.array([frame.gps_xy[0], frame.gps_xy[1], 0.0]), (0, 1))
            if frame.baro_z is not None:
                self._correct(np.array([0.0, 0.0, frame.baro_z]), (2,))
        elif cfg.approach == 2:
            if frame.baro_z is not None:
                self._held_z = float(frame.baro_z)
                self._correct(np.array([0.0, 0.0, frame.baro_z]), (2,))
            if frame.gps_xy is not None and self._held_z is not None:
                raw = np.array([frame.gps_xy[0], frame.gps_xy[1], self._held_z])
                try:
                    corrected = np.array(geometric_correction(raw, cfg.r))
                except (DomainError, DegenerateInputError):
                    return
                self._correct(corrected, (0, 1))
        else:
            if frame.encoder is not None:
                fix = encoder_fix(frame.encoder, cfg.geometry, cfg.r)
                if fix is not None:
                    self._correct(fix, (0, 1, 2))

    def _emit(self, t):
        cfg = self.config
        p, v = self._state
        theta = math.asin(min(1.0, max(-1.0, p[2] / cfg.r)))
        if p[0] == 0.0 and p[1] == 0.0:
            phi = self._phi_prev
        else:
            phi = math.atan2(p[1], p[0])
        self._phi_prev = phi
        try:
            gamma_meas = gamma_unfiltered(v, theta, phi)
        except DegenerateInputError:
            gamma_meas = None
        if self._obs is None and gamma_meas is not None:
            self._obs = (gamma_meas, 0.0)
        if self._obs is None:
            gamma_out, gamma_dot_out = 0.0, 0.0
        else:
            angle, gamma_dot_out = self._obs
            gamma_out = wrap_angle(angle)
            if gamma_meas is not None:
                self._obs = luenberger_step(self._obs, gamma_meas, cfg.k_gamma, cfg.ts)
            else:
                self._obs = (angle + cfg.ts * gamma_dot_out, gamma_dot_out)
        return EstimateOutput(t, np.array(p), np.array(v), theta, phi, gamma_out, gamma_dot_out)


def same(a, b):
    """``a == b`` for floats, with the sign of zero compared too and NaN
    equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_same_tick(k, new, ref, out, expected):
    """One tick of the pipeline ``new`` against HelperPipeline ``ref``:
    each EstimateOutput field with ``==`` and its type, and
    ``last_measurement``."""
    assert (out is None) == (expected is None), k
    shown, ref_shown = new.last_measurement, ref.last_measurement
    assert (shown is None) == (ref_shown is None), k
    if ref_shown is not None:
        assert shown[1] == ref_shown[1], k
        assert isinstance(shown[0], np.ndarray) and shown[0].shape == (3,)
        assert all(map(same, shown[0].tolist(), ref_shown[0].tolist())), (k, shown, ref_shown)
    if expected is None:
        return
    assert type(out) is EstimateOutput
    assert type(out.p_hat) is tuple and type(out.v_hat) is tuple
    got = (out.t, *out.p_hat, *out.v_hat, *out[3:])
    want = (expected.t, *expected.p_hat.tolist(), *expected.v_hat.tolist(), *expected[3:])
    assert all(type(x) is float for x in got), (k, got)
    assert all(map(same, got, want)), (k, got, want)


def replay_against_helpers(config, frames):
    """Step the pipeline and HelperPipeline through ``frames`` and compare
    every tick.  Where the reference raises, the pipeline must raise the
    same exception with the same message at the same tick.

    Returns the index of that tick, or None when the whole stream ran."""
    new, ref = EstimationPipeline(config), HelperPipeline(config)
    emitted = 0
    for k, frame in enumerate(frames):
        try:
            expected = ref.step(frame)
        except (DomainError, LogFormatError) as exc:
            with pytest.raises(type(exc)) as raised:
                new.step(frame)
            assert str(raised.value) == str(exc)
            return k
        out = new.step(frame)
        assert_same_tick(k, new, ref, out, expected)
        emitted += expected is not None
    assert emitted > 0
    return None


class TestMatchesHelperPipeline:
    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("use_imu", [True, False])
    @pytest.mark.parametrize("phi_g", [0.0, 0.6])
    def test_synthesized_records(self, approach, noisy, use_imu, phi_g):
        config = dataclasses.replace(default_configs()[approach - 1],
                                     use_imu=use_imu, phi_g=phi_g)
        assert replay_against_helpers(config, reference_record(noisy, phi_g)) is None

    def test_encoder_gap_and_vertical_reading(self):
        geometry = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                                   pivot_height=0.0, pivot_setback=1.0)
        frames = list(reference_record(True, 0.0))
        for k in range(60, 100):
            frames[k] = dataclasses.replace(frames[k], encoder=None)
        for k in (0, 130):
            frames[k] = dataclasses.replace(frames[k], encoder=EncoderReading(0.0, 0.0))
        config = dataclasses.replace(default_configs()[2], geometry=geometry)
        assert replay_against_helpers(config, frames) is None

    @pytest.mark.parametrize("approach", [1, 2])
    @pytest.mark.parametrize("changes", [
        {"gps_xy": np.array([0.0, 0.0])},
        {"gps_xy": np.array([20.0, 1.0]), "baro_z": 31.0},
        {"gps_xy": np.array([20.0, 1.0]), "baro_z": None},
        {"gps_xy": None, "baro_z": 14.0},
    ])
    def test_radio_channels_and_drops(self, approach, changes):
        """Fixes alone, together, at XY zero and above the sphere, both
        while warming up and once filtering."""
        frames = list(reference_record(True, 0.0))
        for k in (0, 1, 120, 121):
            frames[k] = dataclasses.replace(frames[k], **changes)
        assert replay_against_helpers(default_configs()[approach - 1], frames) is None

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("tick", [0, 77])
    def test_non_unit_quaternion(self, approach, tick):
        """Raised before the state has seeded (tick 0) and after."""
        frames = list(reference_record(True, 0.0))
        frames[tick] = dataclasses.replace(frames[tick], quat=1.01 * frames[tick].quat)
        assert replay_against_helpers(default_configs()[approach - 1], frames) == tick

    @pytest.mark.parametrize("reading", [(math.nan, 0.2), (0.5, math.nan)])
    @pytest.mark.parametrize("tick", [0, 50])
    def test_nan_encoder_reading(self, reading, tick):
        frames = list(reference_record(True, 0.0))
        frames[tick] = dataclasses.replace(frames[tick], encoder=EncoderReading(*reading))
        assert replay_against_helpers(default_configs()[2], frames) == tick

    @pytest.mark.parametrize("reading", [(math.inf, 0.1), (0.8, math.inf),
                                         (-math.inf, math.nan)])
    @pytest.mark.parametrize("tick", [0, 50])
    def test_infinite_encoder_reading(self, reading, tick):
        """``DomainError`` naming the reading, as for NaN, and no state
        change: the ticks after it come out as if it had not been fed."""
        frames = reference_record(True, 0.0)
        hit, clean = (EstimationPipeline(default_configs()[2]) for _ in range(2))
        for frame in frames[:tick]:
            hit.step(frame)
            clean.step(frame)
        bad = dataclasses.replace(frames[tick], encoder=EncoderReading(*reading))
        with pytest.raises(DomainError, match=r"encoder reading EncoderReading\(.*inf"):
            hit.step(bad)
        for frame in frames[tick + 1:tick + 30]:
            assert hit.step(frame) == clean.step(frame)

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("t", [math.nan, math.inf, "repeat"])
    def test_bad_time(self, approach, t):
        frames = list(reference_record(False, 0.0))
        frames[40] = dataclasses.replace(frames[40], t=frames[39].t if t == "repeat" else t)
        assert replay_against_helpers(default_configs()[approach - 1], frames) == 40

    @staticmethod
    def drive(config, fixes):
        """Feed both pipelines XY fixes (height 15 with the first); each
        fix is a function of the previous output, and ``None`` skips."""
        new, ref = EstimationPipeline(config), HelperPipeline(config)
        out = None
        outputs = []
        for k, fix in enumerate(fixes):
            xy = None if fix is None else np.array(fix(out), dtype=float)
            frame = SensorFrame(t=k * TS, gps_xy=xy, baro_z=15.0 if k == 0 else None)
            out = new.step(frame)
            assert_same_tick(k, new, ref, out, ref.step(frame))
            outputs.append(out)
        return outputs

    def test_observer_coasts_at_zero_tangent_velocity(self):
        """Fixes 1 m ahead, 2 m behind and 1 m ahead of the prediction
        swing v_x from k2 to -k2 to exactly zero, so the observer starts,
        turns by pi and then coasts on its rate."""
        def ahead(by):
            return lambda out: (out.p_hat[0] + TS * out.v_hat[0] + by, 0.0)

        config = EstimatorConfig(approach=1, use_imu=False)
        outs = self.drive(config, [lambda out: (20.0, 0.0), ahead(1.0), ahead(-2.0),
                                   ahead(1.0), None])
        assert outs[3].v_hat == (0.0, 0.0, 0.0) and outs[4].v_hat == (0.0, 0.0, 0.0)
        assert outs[3].gamma_dot_hat != 0.0
        assert outs[4].gamma_hat != outs[3].gamma_hat  # coasting, not frozen

    def test_azimuth_holds_on_zenith_axis(self):
        config = EstimatorConfig(approach=1, use_imu=False)
        k1 = EstimationPipeline(config)._gains[0][0]
        z = 3.0 - 3.0 / k1
        assert 3.0 + k1 * (z - 3.0) == 0.0  # this fix lands exactly on the axis
        outs = self.drive(config, [lambda out: (3.0, 3.0), lambda out: (z, z)])
        assert outs[1].p_hat[:2] == (0.0, 0.0)
        assert outs[1].phi_hat == outs[0].phi_hat == math.atan2(3.0, 3.0)

    def test_lists_of_readings(self):
        """Fix channels given as plain sequences are read like arrays."""
        pipe, ref = EstimationPipeline(default_configs()[0]), HelperPipeline(default_configs()[0])
        for k, (xy, z) in enumerate([([20, 1], 15), ((21.0, 1.5), None), (None, 14)]):
            frame = SensorFrame(t=k * TS, gps_xy=xy, baro_z=z)
            out, expected = pipe.step(frame), ref.step(frame)
            assert out.p_hat == tuple(expected.p_hat.tolist())
            assert out.v_hat == tuple(expected.v_hat.tolist())


class TestNonFiniteHeight:
    """A non-finite height or XY fix is neither clamped into a finite
    answer nor filtered into the state."""

    def test_correction_rejects_nan_height(self):
        with pytest.raises(DomainError):
            geometric_correction(np.array([20.0, 1.0, math.nan]), 30.0)
        with pytest.raises(DomainError):
            geometric_correction(np.array([20.0, 1.0, math.inf]), 30.0)

    def test_sphere_routing_rejects_nan_height(self):
        """The height is not held: a later XY fix still lands on the
        sphere at the last finite height."""
        def run_to(baro):
            pipe = EstimationPipeline(EstimatorConfig(approach=2))
            pipe.step(SensorFrame(t=0.0, baro_z=15.0))
            pipe.step(SensorFrame(t=TS, gps_xy=np.array([20.0, 1.0])))
            if baro is not None:
                with pytest.raises(DomainError, match=r"^height nan at t=0\.04 is not finite$"):
                    pipe.step(SensorFrame(t=2 * TS, baro_z=baro))
            return pipe, pipe.step(SensorFrame(t=3 * TS, gps_xy=np.array([20.0, 1.0])))

        pipe, out = run_to(math.nan)
        assert pipe.last_measurement[1] == (0, 1)
        never, expected = run_to(None)
        assert repr(out) == repr(expected)
        assert repr(pipe.last_measurement) == repr(never.last_measurement)

    @pytest.mark.parametrize("approach", [1, 2])
    def test_nan_height_rejected(self, approach):
        """Named by channel, value and time before any state changes, so
        the elevation never turns NaN."""
        pipe = EstimationPipeline(EstimatorConfig(approach=approach))
        pipe.step(SensorFrame(t=0.0, baro_z=15.0))
        pipe.step(SensorFrame(t=TS, gps_xy=np.array([20.0, 1.0])))
        with pytest.raises(DomainError, match=r"^height nan at t=0\.04 is not finite$"):
            pipe.step(SensorFrame(t=2 * TS, baro_z=math.nan))
        out = pipe.step(SensorFrame(t=3 * TS, baro_z=14.0))
        assert all(map(math.isfinite, (*out.p_hat, out.theta_hat, out.phi_hat)))
