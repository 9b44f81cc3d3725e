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
    ArrayPipeline,
    HelperPipeline,
    encoder_fix,
    gamma_unfiltered,
    luenberger_step,
    sphere_point,
    velocity_angle,
)
from kitefusion import pipelines
from kitefusion.attitude import GRAVITY
from kitefusion.errors import DegenerateInputError, DomainError, LogFormatError
from kitefusion.estimator import lo_frequency_response
from kitefusion.evalio import default_configs, read_log, write_log
from kitefusion.frames import (
    Z_OVER_R_TOL,
    cartesian_to_spherical,
    rot_g_to_l,
    rot_ned_to_g,
    wrap_angle,
)
from kitefusion.lineangle import EncoderGeometry
from kitefusion.pipelines import (
    EstimateOutput,
    EstimationPipeline,
    EstimatorConfig,
    SensorFrame,
    geometric_correction,
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
            encoder=None if k in drop else (th, ph),
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

    @pytest.mark.parametrize("field, value, width", [
        ("ratios", (500.0, 500.0), 3),
        ("ratios", (500.0, 500.0, 500.0, 500.0), 3),
        ("k_gamma", (0.4,), 2),
        ("k_gamma", (0.4, 0.9, 1.0), 2),
    ], ids=["ratios-pair", "ratios-four", "k_gamma-one", "k_gamma-three"])
    def test_tuple_of_wrong_length_named(self, field, value, width):
        """The length is the one the field's annotation declares."""
        with pytest.raises(DomainError) as raised:
            EstimatorConfig(**{field: value})
        assert str(raised.value) == f"{field} must hold {width} finite numbers, got {value}"

    @pytest.mark.parametrize("field, value", [
        ("r", math.nan), ("phi_g", -math.inf), ("ts", math.inf),
        ("ratios", (500.0, math.inf, 500.0)), ("k_gamma", (math.nan, 0.9)),
    ])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_real_fields_kept_as_floats(self, approach):
        """Fields given as float32 or int, the geometry's included, are
        kept as Python floats, so every output field is a float, equal to
        the outputs of the config given the same values as floats."""
        given = {"r": np.float32(30.0), "phi_g": np.float32(0.3), "ts": np.float32(0.02),
                 "ratios": (np.float32(400.0), 500, np.float64(600.0)),
                 "k_gamma": (np.float32(0.4), 0.9)}
        as_floats = {name: tuple(map(float, value)) if isinstance(value, tuple) else float(value)
                     for name, value in given.items()}
        offsets = {"guide_reach": np.float32(0.5), "pivot_height": np.float32(0.2)}
        given["geometry"] = EncoderGeometry(**offsets)
        as_floats["geometry"] = EncoderGeometry(**{k: float(v) for k, v in offsets.items()})
        config = EstimatorConfig(approach=approach, **given)
        assert config == EstimatorConfig(approach=approach, **as_floats)
        assert all(type(x) is float for x in (config.r, config.phi_g, config.ts,
                                               *config.ratios, *config.k_gamma))
        frames = [dataclasses.replace(f, gps_xy=pattern(f.t)[2][:2] if k % 6 == 0 else None,
                                      baro_z=float(pattern(f.t)[2][2]) if k % 3 == 0 else None)
                  for k, f in enumerate(encoder_frames(100))]
        got = run(EstimationPipeline(config), frames)
        want = run(EstimationPipeline(EstimatorConfig(approach=approach, **as_floats)), frames)
        assert got[-1] is not None
        for out, expected in zip(got, want):
            if out is not None:
                assert all(type(x) is float for x in (out.t, *out.p_hat, *out.v_hat, *out[3:]))
            assert repr(out) == repr(expected)


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
        out = pipe.step(SensorFrame(t=0.0, encoder=(th, ph)))
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
readings = st.tuples(finite, finite)
any_readings = st.tuples(st.floats(), st.floats())


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
                shown = None if out is None else out.p_hat
                seeded = out is not None
            assert (shown is None) == (want is None)
            if want is not None:
                assert all(type(z) is float for z in shown), shown
                assert np.max(np.abs(np.array(shown) - want)) <= 1e-12 * r, (shown, want)

    def test_guide_a_subnormal_distance_away(self):
        """A guide so close to the origin that r / |g| overflows still
        gives the helpers' point on the sphere."""
        geometry = EncoderGeometry(guide_rise=0.0, guide_reach=5e-324,
                                   pivot_height=0.0, pivot_setback=0.0)
        reading = (0.5, 0.5)
        out = EstimationPipeline(EstimatorConfig(approach=3, geometry=geometry)).step(
            SensorFrame(t=0.0, encoder=reading))
        assert out.p_hat == sphere_point(reading, geometry, R) == (R, 0.0, 0.0)

    VERTICAL = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                               pivot_height=0.0, pivot_setback=1.0)

    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("reading, error, message", [
        ((0.0, 0.0), None, None),
        ((math.inf, 0.1), DomainError, "encoder reading (inf, 0.1) is not finite"),
        ((0.3, -math.inf), DomainError, "encoder reading (0.3, -inf) is not finite"),
        ((math.nan, math.inf), DomainError, "encoder reading (nan, inf) is not finite"),
        ((math.nan, 0.2), DomainError, "encoder reading (nan, 0.2) is not finite"),
        ((0.5, math.nan), DomainError, "encoder reading (0.5, nan) is not finite"),
    ], ids=["vertical", "inf-elevation", "inf-azimuth", "nan-then-inf", "nan-elevation",
            "nan-azimuth"])
    def test_bad_reading(self, seeded, reading, error, message):
        """A vertical tether drops the fix; an infinite or NaN reading
        raises, on the seeding tick and later, and changes no state."""
        config = EstimatorConfig(approach=3, geometry=self.VERTICAL)
        hit, clean = EstimationPipeline(config), EstimationPipeline(config)
        ticks = [SensorFrame(t=k * TS, encoder=(0.2 + 0.01 * k, 0.3))
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
    """``last_measurement`` of ``pipe`` as the ``float.hex`` of each
    measured axis, None on the others, or None."""
    shown = pipe.last_measurement
    return None if shown is None else tuple(None if z is None else z.hex() for z in shown)


def oracle_bits(reading, geometry, r):
    """What ``shown_bits`` reads after a seeded pipeline steps ``reading``
    alone, from the reference copy of the fix."""
    point = encoder_fix(reading, geometry, r)
    return None if point is None else tuple(map(float.hex, point))


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
        assert replay(HelperPipeline, assert_same, config, frames) == {}

    def test_hit_ticks_show_the_held_fix(self, monkeypatch):
        """A tick that looks its fix up shows the held tuple itself, which
        a caller cannot change."""
        frames = encoder_frames(40, with_imu=False)
        loop = [f.encoder for f in frames[1:6]]
        frames = [dataclasses.replace(f, encoder=loop[k % 5]) for k, f in enumerate(frames)]
        config = EstimatorConfig(approach=3)
        pipe = EstimationPipeline(config)
        inverted = []
        invert = pipelines._guide_point
        monkeypatch.setattr(pipelines, "_guide_point",
                            lambda *args: inverted.append(args[:2]) or invert(*args))
        assert replay(HelperPipeline, assert_same, config, frames, pipe=pipe) == {}
        assert inverted == loop  # every later tick was a lookup
        assert len(pipe._fixes) == 5
        assert type(pipe.last_measurement) is tuple
        assert pipe.last_measurement is pipe._fixes[loop[39 % 5]]
        assert shown_bits(pipe) == oracle_bits(loop[39 % 5], EncoderGeometry(), R)

    # The sign of a zero azimuth reading carries into the side of the
    # fix, and with a pivot height of -0.0 the sign of a zero elevation
    # reading carries into its height.
    SIGNED = EncoderGeometry(guide_rise=0.0, guide_reach=1.0,
                             pivot_height=-0.0, pivot_setback=2.0)

    @pytest.mark.parametrize("zero, signed", [
        ((0.3, 0.0), (0.3, -0.0)),
        ((0.0, 0.4), (-0.0, 0.4)),
    ], ids=["azimuth", "elevation"])
    def test_signed_zero_readings_inverted_apart(self, zero, signed):
        assert oracle_bits(zero, self.SIGNED, R) != oracle_bits(signed, self.SIGNED, R)
        pipe = EstimationPipeline(EstimatorConfig(approach=3, geometry=self.SIGNED))
        pipe.step(SensorFrame(t=0.0, encoder=(0.5, 0.5)))
        for k, reading in enumerate([zero, signed, zero, signed, signed, zero]):
            pipe.step(SensorFrame(t=(k + 1) * TS, encoder=reading))
            assert shown_bits(pipe) == oracle_bits(reading, self.SIGNED, R), k
        assert list(pipe._fixes) == [(0.5, 0.5)]

    def test_readings_not_of_floats_inverted_apart(self, monkeypatch):
        """A float32, an array or a list reading is converted to Python
        floats when the frame is built, so it is looked up under the key
        of its float64 value, and that key is held once."""
        pipe = EstimationPipeline(EstimatorConfig(approach=3))
        single = np.float32(0.7), np.float32(0.3)
        as_float = (float(single[0]), float(single[1]))
        assert as_float != (0.7, 0.3)
        inverted = []
        invert = pipelines._guide_point
        monkeypatch.setattr(pipelines, "_guide_point",
                            lambda *args: inverted.append(args[:2]) or invert(*args))
        pipe.step(SensorFrame(t=0.0, encoder=as_float))
        for k, reading in enumerate([as_float, single, list(single), np.array(single),
                                     [0.7, 0.3], np.array([0.7, 0.3])]):
            frame = SensorFrame(t=(k + 1) * TS, encoder=reading)
            assert frame.encoder == tuple(map(float, reading))
            assert all(type(angle) is float for angle in frame.encoder)
            pipe.step(frame)
            assert shown_bits(pipe) == oracle_bits(frame.encoder, EncoderGeometry(), R), k
        assert inverted == [as_float, (0.7, 0.3)]
        assert list(pipe._fixes) == [as_float, (0.7, 0.3)]

    # Forward and side both vanish for a nonzero reading: the guide sits
    # at exactly the setback, and the side offset underflows to zero.
    SUBNORMAL_VERTICAL = (EncoderGeometry(guide_rise=0.0, guide_reach=1.0, pivot_height=0.0,
                                          pivot_setback=math.cos(1.2)),
                          (1.2, 5e-324))

    @pytest.mark.parametrize("reading, error, message", [
        ((math.inf, 0.1), DomainError, "encoder reading (inf, 0.1) is not finite"),
        ((0.3, math.nan), DomainError, "encoder reading (0.3, nan) is not finite"),
        ((0.0, 0.0), None, None),
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
        good = [(0.2, 0.3), (0.25, 0.35)]
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
        assert list(hit._fixes) == good

    @staticmethod
    def distinct_frames(count, repeat):
        """``count`` distinct readings, each held for ``repeat`` ticks."""
        return [SensorFrame(t=k * TS, encoder=(0.3 + 1e-4 * (k // repeat),
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
        assert replay(HelperPipeline, assert_same, config, frames, pipe=pipe) == {}
        assert list(pipe._fixes) == [f.encoder for f in frames[:3 * held:3]]


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
    "encoder": st.none() | st.tuples(bounded(10.0), bounded(10.0)),
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
FINITE_STANDIN = {"accel_k": (0.0, 0.0, 9.8), "quat": (1.0, 0.0, 0.0, 0.0), "gps_xy": (3.0, 4.0),
                  "encoder": (0.3, 0.2)}
#: The channels each routing reads besides the time and, with the IMU
#: on, the acceleration and the attitude.
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
    field = data.draw(st.sampled_from(("t", *("accel_k", "quat") * use_imu, *ROUTED[approach])),
                      label="field")
    value = data.draw(NON_FINITE, label="value")
    bad = frames[at]
    if field in ("t", "baro_z"):
        bad = dataclasses.replace(bad, **{field: value})
    else:
        entries = list(FINITE_STANDIN[field] if getattr(bad, field) is None
                       else getattr(bad, field))
        entries[data.draw(st.integers(0, len(entries) - 1), label="entry")] = value
        bad = dataclasses.replace(bad, **{field: np.array(entries)})
        # The acceleration and the attitude are read only together.
        if field == "quat" and bad.accel_k is None:
            bad = dataclasses.replace(bad, accel_k=np.zeros(3))
        if field == "accel_k" and bad.quat is None:
            bad = dataclasses.replace(bad, quat=np.array(FINITE_STANDIN["quat"]))
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

    @pytest.mark.parametrize("approach", [1, 2])
    def test_fixes_of_one_tick_shown_together(self, approach):
        """``last_measurement`` shows every axis a tick corrects, None on
        the others: an XY fix and a height together, or the XY fix alone
        (routing 2: rescaled onto the sphere at the latest height)."""
        pipe = EstimationPipeline(EstimatorConfig(approach=approach))
        pipe.step(SensorFrame(t=0.0, gps_xy=np.array([20.0, 1.0]), baro_z=15.0))
        pipe.step(SensorFrame(t=TS, gps_xy=np.array([21.0, 1.5]), baro_z=14.5))
        x, y = 21.0, 1.5
        if approach == 2:
            x, y, _ = geometric_correction((x, y, 14.5), R)
        assert pipe.last_measurement == (x, y, 14.5)
        pipe.step(SensorFrame(t=2 * TS, gps_xy=np.array([21.0, 1.5])))
        assert pipe.last_measurement == (x, y, None)

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_finite_message(self, t):
        """The same message on the first tick and after one."""
        for times in ([], [0.0]):
            pipe = EstimationPipeline(EstimatorConfig())
            for earlier in times:
                pipe.step(SensorFrame(t=earlier))
            with pytest.raises(LogFormatError) as raised:
                pipe.step(SensorFrame(t=t))
            assert str(raised.value) == f"sample time must be finite, got {t}"

    @pytest.mark.parametrize("t", [TS, 0.5 * TS, -1.0])
    def test_increase_message(self, t):
        """An equal or earlier time names itself and the time before it."""
        pipe = EstimationPipeline(EstimatorConfig())
        pipe.step(SensorFrame(t=0.0))
        pipe.step(SensorFrame(t=TS))
        with pytest.raises(LogFormatError) as raised:
            pipe.step(SensorFrame(t=t))
        assert str(raised.value) == f"sample times must increase: {t} after {TS}"

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_refused_tick_counts_its_time(self, approach):
        """A tick refused after the time checks, here for its attitude,
        still counts its time: the same time again, or an earlier one, is
        refused as not increasing, and a later one steps."""
        pipe = EstimationPipeline(default_configs()[approach - 1])
        pipe.step(SensorFrame(t=0.0))
        with pytest.raises(DomainError, match="quaternion norm"):
            pipe.step(SensorFrame(t=TS, accel_k=(0.0, 0.0, GRAVITY), quat=(2.0, 0.0, 0.0, 0.0)))
        for t in (TS, 0.5 * TS):
            with pytest.raises(LogFormatError) as raised:
                pipe.step(SensorFrame(t=t))
            assert str(raised.value) == f"sample times must increase: {t} after {TS}"
        pipe.step(SensorFrame(t=2.0 * TS))

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("bad", ["nan", "repeat"])
    def test_primed_pipeline_passes_a_refused_tick(self, approach, bad):
        """Stepped on after a tick refused for its time, primed and
        unprimed pipelines agree tick by tick, bit for bit: the next
        frame is not the one the primed entries expect, so the primed
        pipeline rotates per tick from there on."""
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


class TestPrimedRecord:
    """A primed pipeline reads a primed acceleration only on the frame it
    was computed from; stepped on any other frame, it drops the priming
    and rotates per tick, so its outputs are the unprimed ones."""

    @staticmethod
    def record(seed):
        frames, _ = synthesize(TrajectoryParams(duration=2.0), NoiseSpec(seed=seed))
        return frames

    @staticmethod
    def primed_and_unprimed(approach, primed_on, stepped):
        config = default_configs()[approach - 1]
        primed = EstimationPipeline(config)
        primed.prime(primed_on)
        return (list(map(primed.step, stepped)),
                list(map(EstimationPipeline(config).step, stepped)))

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_stepped_past_its_record(self, approach):
        frames = self.record(1)
        got, want = self.primed_and_unprimed(approach, frames[:50], frames)
        assert len(got) == len(frames)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("stepped", ["another", "copies"])
    def test_stepped_on_another_record(self, approach, stepped):
        frames = self.record(1)
        other = (self.record(2) if stepped == "another"
                 else [dataclasses.replace(frame) for frame in frames])
        got, want = self.primed_and_unprimed(approach, frames, other)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("rows", [
        {60: (0.0, 9.8)},
        {60: (0.0, 0.0, 9.8, 1.0)},
        {60: (0.0, 9.8), 61: (0.0, 0.0, 9.8, 1.0)},
        {60: (10 ** 400, 0.0, 9.8)},
    ], ids=["2-wide", "4-wide", "2-then-4-wide", "beyond-float"])
    def test_reassigned_accelerometer_row_primes_nothing(self, approach, rows):
        """A row reassigned after its frame was built is not checked by the
        frame; priming refuses the record, so the primed pipeline raises
        what the unprimed one raises, at the same ticks, and agrees with it
        on every other tick, bit for bit."""
        frames = self.record(1)
        for k, row in rows.items():
            frames[k].accel_k = row
        config = default_configs()[approach - 1]
        primed, unprimed = EstimationPipeline(config), EstimationPipeline(config)
        primed.prime(frames)
        for k, frame in enumerate(frames):
            got, want = [], []
            for pipe, outcome in ((primed, got), (unprimed, want)):
                try:
                    outcome.append(repr(pipe.step(frame)))
                except (ValueError, OverflowError) as exc:
                    outcome.append((type(exc), str(exc)))
            assert got == want, k
            assert isinstance(got[0], tuple) == (k in rows), k

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("field, value", [
        ("accel_k", ("1.5", 0.0, 9.8)),
        ("accel_k", (0.0, b"1", 9.8)),
        ("quat", (1.0, 0.0, 0.0, bytearray(b"0"))),
        ("quat", ("1.0", "0.0", "0.0", "0.0")),
    ], ids=["str-accel", "bytes-accel", "bytearray-quat", "str-quat"])
    def test_reassigned_text_entry_primes_nothing(self, approach, field, value):
        """Text reassigned into a channel is not parsed as a number by the
        priming: the primed pipeline raises the unprimed one's exception,
        of the same type, at the same tick."""
        frames = self.record(1)
        setattr(frames[60], field, value)
        config = default_configs()[approach - 1]
        primed, unprimed = EstimationPipeline(config), EstimationPipeline(config)
        primed.prime(frames)
        assert primed._accels is pipelines._ZEROS
        raised = []
        for k, frame in enumerate(frames):
            got, want = [], []
            for pipe, outcome in ((primed, got), (unprimed, want)):
                try:
                    outcome.append(repr(pipe.step(frame)))
                except Exception as exc:  # both paths must raise alike
                    outcome.append((type(exc), str(exc)))
            assert got == want, k
            if isinstance(got[0], tuple):
                raised.append((k, got[0][0]))
        assert raised == [(60, TypeError)]

    @pytest.mark.parametrize("use_imu", [True, False])
    def test_frames_without_a_length_refused_by_name(self, use_imu):
        """Priming reads the whole record before it is stepped, so an
        iterator is refused before any frame is read, and the caller
        still has every frame to step."""
        frames = self.record(1)
        stream = iter(frames)
        config = dataclasses.replace(default_configs()[0], use_imu=use_imu)
        with pytest.raises(DomainError) as raised:
            EstimationPipeline(config).prime(stream)
        assert str(raised.value) == "frames must be a sequence, got list_iterator"
        assert next(stream) is frames[0]


class TestNonFiniteAcceleration:
    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("reading", [(math.nan, 0.0, 9.8), (0.0, -math.inf, 9.8)])
    def test_rejected_by_name(self, approach, primed, reading):
        """Named by channel, value and time at its tick, primed or not,
        and every later output is that of a run without the frame."""
        frames = TestPrimedRecord.record(1)
        frames[60] = dataclasses.replace(frames[60], accel_k=np.array(reading))
        config = default_configs()[approach - 1]
        pipe, clean = EstimationPipeline(config), EstimationPipeline(config)
        if primed:
            pipe.prime(frames)
        for frame in frames[:60]:
            assert repr(pipe.step(frame)) == repr(clean.step(frame))
        message = f"accelerometer reading {reading} at t={frames[60].t} is not finite"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            pipe.step(frames[60])
        for frame in frames[61:]:
            assert repr(pipe.step(frame)) == repr(clean.step(frame))
        assert all(map(math.isfinite, pipe.step(SensorFrame(t=3.0)).p_hat))



VECTOR_CHANNELS = {"accel_k": 3, "gyro_k": 3, "quat": 4, "gps_xy": 2, "encoder": 2}
SCALAR_CHANNELS = ("baro_z", "wind_speed")


def plain_channels(frame) -> bool:
    """Whether every vector channel of ``frame`` is absent or a tuple of
    Python floats of its length, and every scalar channel absent or a
    Python float."""
    for name, width in VECTOR_CHANNELS.items():
        value = getattr(frame, name)
        if value is not None and not (type(value) is tuple and len(value) == width
                                      and all(type(x) is float for x in value)):
            return False
    return all(getattr(frame, name) is None or type(getattr(frame, name)) is float
               for name in SCALAR_CHANNELS)


def output_hexes(out) -> list[str]:
    """Every field of an estimate as the hex of a Python float; fails on a
    field of any other type (a numpy scalar, an int)."""
    hexes = []
    for value in out:
        for x in value if isinstance(value, tuple) else (value,):
            assert type(x) is float, (type(x), out)
            hexes.append(x.hex())
    return hexes


class TestFrameChannels:
    """The vector channels of a frame are tuples of Python floats and its
    scalar channels Python floats, and a channel given as any other value
    is converted once, when the frame is built, so it gives the estimates
    of its exact float64 values."""

    @staticmethod
    def float32_record():
        """A 4 s record whose times and channels hold float32 values, as
        Python floats and tuples of them."""
        frames, _ = synthesize(TrajectoryParams(duration=4.0, speed_scale=3.5),
                               NoiseSpec(seed=5))
        return [dataclasses.replace(frame, t=float(np.float32(frame.t)), **{
            name: tuple(np.array(getattr(frame, name), dtype=np.float32).tolist())
            for name in VECTOR_CHANNELS if getattr(frame, name) is not None}, **{
            name: float(np.float32(getattr(frame, name)))
            for name in SCALAR_CHANNELS if getattr(frame, name) is not None})
            for frame in frames]

    @staticmethod
    def integer_record():
        """The record with its times made the tick counts and every other
        channel rounded to integers, the attitude to the signed unit axis
        nearest it, as floats and float tuples."""
        frames, _ = synthesize(TrajectoryParams(duration=4.0, speed_scale=3.5),
                               NoiseSpec(seed=5))
        record = []
        for tick, frame in enumerate(frames):
            axis = int(np.argmax(np.abs(frame.quat)))
            quat = [0.0] * 4
            quat[axis] = math.copysign(1.0, frame.quat[axis])
            record.append(dataclasses.replace(frame, t=float(tick), quat=tuple(quat), **{
                name: tuple(float(round(x)) for x in getattr(frame, name))
                for name in VECTOR_CHANNELS
                if name != "quat" and getattr(frame, name) is not None}, **{
                name: float(round(getattr(frame, name)))
                for name in SCALAR_CHANNELS if getattr(frame, name) is not None}))
        return record

    # The record, how its vector channels are given, and how its times
    # and scalar channels.
    GIVEN_AS = {
        "float32-array": ("float32", lambda v: np.array(v, dtype=np.float32), np.float32),
        "float64-array": ("float32", np.array, np.float64),
        "list": ("float32", list, float),
        "float32-scalars": ("float32", lambda v: tuple(map(np.float32, v)), np.float32),
        "int-tuple": ("integer", lambda v: tuple(map(int, v)), int),
        "int64-array": ("integer", lambda v: np.array(v, dtype=np.int64), np.int64),
        "int-list": ("integer", lambda v: list(map(int, v)), int),
    }

    @pytest.mark.parametrize("given_as", list(GIVEN_AS))
    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_estimates_of_the_exact_values(self, approach, primed, given_as):
        record_name, convert, time = self.GIVEN_AS[given_as]
        exact = getattr(self, f"{record_name}_record")()
        given = [SensorFrame(time(frame.t), **{
            name: None if getattr(frame, name) is None else convert(getattr(frame, name))
            for name in VECTOR_CHANNELS}, **{
            name: None if getattr(frame, name) is None else time(getattr(frame, name))
            for name in SCALAR_CHANNELS}) for frame in exact]
        for frame, twin in zip(given, exact):
            assert plain_channels(frame)
            # A float's repr names its bits, so equal reprs are equal frames.
            assert repr(frame) == repr(twin)
        config = default_configs()[approach - 1]
        pipes = EstimationPipeline(config), EstimationPipeline(config)
        if primed:
            pipes[0].prime(exact)
            pipes[1].prime(given)
        emitted = 0
        for frame, twin in zip(given, exact):
            want, got = pipes[0].step(twin), pipes[1].step(frame)
            assert (got is None) == (want is None)
            if want is not None:
                assert output_hexes(got) == output_hexes(want)
                emitted += 1
        assert emitted > len(exact) // 2

    @pytest.mark.parametrize("field, value", [
        ("accel_k", np.zeros(2)),
        ("accel_k", [0.0, 0.0, 9.8, 0.0]),
        ("accel_k", "abc"),
        ("gyro_k", (0.1, 0.2)),
        ("quat", (1.0, 0.0, 0.0)),
        ("quat", np.eye(4)[:1]),
        ("gps_xy", np.zeros(3)),
        ("gps_xy", 3.0),
        ("gps_xy", (1.0, 2j)),
        ("accel_k", (10 ** 400, 0.0, 9.8)),
        ("encoder", [0.4, None]),
        ("gps_xy", "12"),
        ("encoder", b"34"),
        ("encoder", bytearray(b"34")),
        ("quat", "1234"),
        ("accel_k", ["1", "2", "3"]),
        ("gyro_k", (0.1, b"2", 0.3)),
        ("gps_xy", np.array(["1", "2"])),
    ], ids=["short-array", "long-list", "text", "short-tuple", "short-quat", "row-of-rows",
            "long-gps", "scalar", "complex", "huge-int", "encoder-none-entry", "digits",
            "bytes", "bytearray", "digits-quat", "digit-entries", "bytes-entry", "digit-array"])
    def test_wrong_channel_refused_by_name(self, field, value):
        """Text is refused, whole or as an entry, where ``float()`` would
        read its digits or a channel its byte values."""
        width = VECTOR_CHANNELS[field]
        with pytest.raises(DomainError, match=f"^{field} must hold {width} real numbers, got "):
            SensorFrame(t=0.0, **{field: value})

    @pytest.mark.parametrize("value", [None, "noon", 2j, 10 ** 400, "1.5"],
                             ids=["none", "text", "complex", "huge-int", "digits"])
    def test_wrong_time_refused_by_name(self, value):
        with pytest.raises(DomainError, match="^t must be a real number, got "):
            SensorFrame(t=value)

    @pytest.mark.parametrize("field", SCALAR_CHANNELS)
    @pytest.mark.parametrize("value", ["abc", [1.0], 2j, 10 ** 400, " 12 ", b"7"],
                             ids=["text", "list", "complex", "huge-int", "digits", "bytes"])
    def test_wrong_scalar_refused_by_name(self, field, value):
        """As the time is, when the frame is built, rather than by a bare
        error on a routing-1 tick or in ``compare_approaches``."""
        with pytest.raises(DomainError, match=f"^{field} must be a real number, got "):
            SensorFrame(t=0.0, gps_xy=(1.0, 2.0), **{field: value})

    @pytest.mark.parametrize("field, value, shown", [
        ("accel_k", (10 ** 5000, 0, 0), "accel_k must hold 3 real numbers, got "
                                        "(an integer of 5001 digits, 0, 0)"),
        ("gps_xy", [10 ** 5000], "gps_xy must hold 2 real numbers, got "
                                 "[an integer of 5001 digits]"),
        ("encoder", (0.4,), "encoder must hold 2 real numbers, got (0.4,)"),
        ("baro_z", 10 ** 5000, "baro_z must be a real number, got an integer of 5001 digits"),
    ], ids=["tuple", "list", "one-tuple", "scalar"])
    def test_refusal_shows_any_integer(self, field, value, shown):
        """An integer past ``str``'s digit limit is shown by its digit
        count, rather than the message itself raising ``ValueError``."""
        with pytest.raises(DomainError) as raised:
            SensorFrame(t=0.0, **{field: value})
        assert str(raised.value) == shown

    @pytest.mark.parametrize("value", [(0.4, 0.2), [0.4, 0.2], np.array([0.4, 0.2])],
                             ids=["tuple", "list", "array"])
    def test_encoder_pair_made_a_reading(self, value):
        frame = SensorFrame(t=0.0, encoder=value)
        assert type(frame.encoder) is tuple and frame.encoder == (0.4, 0.2)
        assert all(type(angle) is float for angle in frame.encoder)

    @pytest.mark.parametrize("value", [(0.4,), (0.4, 0.2, 0.0), 0.4, ("a", "b"), (0.4, 2j)],
                             ids=["short", "long", "scalar", "text", "complex"])
    def test_encoder_not_a_pair_refused_by_name(self, value):
        with pytest.raises(DomainError, match="^encoder must hold 2 real numbers, got "):
            SensorFrame(t=0.0, encoder=value)

    def test_channel_table_read_off_the_annotations(self):
        assert pipelines._CHANNELS == (
            ("t", None), ("accel_k", 3), ("gyro_k", 3), ("quat", 4), ("gps_xy", 2),
            ("baro_z", None), ("encoder", 2), ("wind_speed", None))

    # A channel of each field in the frame's form.
    PLAIN = {"t": 1.5, "accel_k": (0.1, -0.2, 9.8), "gyro_k": (0.3, 0.0, -0.1),
             "quat": (1.0, 0.0, 0.0, 0.0), "gps_xy": (3.0, 4.0), "baro_z": 12.5,
             "encoder": (0.7, 0.2), "wind_speed": 6.0}

    @pytest.mark.parametrize("field", list(PLAIN))
    def test_plain_channel_kept_by_identity(self, field):
        value = self.PLAIN[field]
        frame = SensorFrame(**{"t": 0.0, field: value})
        assert getattr(frame, field) is value

    @pytest.mark.parametrize("convert", [list, np.array, lambda v: tuple(map(round, v))],
                             ids=["list", "array", "int-tuple"])
    @pytest.mark.parametrize("field", list(VECTOR_CHANNELS))
    def test_other_vector_channel_converted(self, field, convert):
        given = convert(self.PLAIN[field])
        kept = getattr(SensorFrame(t=0.0, **{field: given}), field)
        assert kept is not given and type(kept) is tuple
        assert list(map(float.hex, kept)) == [float(x).hex() for x in given]

    def test_producers_give_plain_channels(self, tmp_path):
        frames, truth = synthesize(TrajectoryParams(duration=2.0), NoiseSpec(seed=5))
        assert all(map(plain_channels, frames))
        assert any(frame.gps_xy is not None for frame in frames)
        path = tmp_path / "flight.csv"
        write_log(frames, path, truth=truth)
        log = read_log(path)
        assert all(map(plain_channels, log.frames))
        assert [frame.encoder for frame in log.frames] == [frame.encoder for frame in frames]
        assert all(type(angle) is float for frame in log.frames for angle in frame.encoder)
        # Truth stays arrays, which criterion 5a subtracts.
        assert all(type(point.p) is np.ndarray is type(point.v) for point in log.truth)


def synthesized(case):
    params = TrajectoryParams(duration=2.0, speed_scale=3.5)
    noise = NoiseSpec(seed=5)
    if case == "noiseless":
        noise = NoiseSpec.none(seed=5)
    elif case == "ideal-encoders":
        noise = NoiseSpec(encoder_cpr=0, seed=5)
    elif case == "float32-speed":
        params = TrajectoryParams(duration=2.0, speed_scale=np.float32(2.5))
    return synthesize(params, noise)


def logged(path, case):
    """Write a noisy 2 s record to ``path`` as ``case`` asks, and return
    what ``read_log`` reads of it."""
    frames, truth = synthesized("noisy")
    write_log(frames, path, truth=None if case == "no-truth" else truth)
    lines = path.read_text().splitlines(keepends=True)
    if case == "comment":
        lines.insert(40, "# hand note\n")
    elif case == "whitespace-cell":
        # A blank wind cell, which only the line-by-line pass reads.
        cells = lines[60].split(",")
        cells[16] = " "
        lines[60] = ",".join(cells)
    path.write_text("".join(lines))
    return read_log(path).frames


class TestProducerFrames:
    """``synthesize`` and ``read_log`` make their frames without the frame
    check, so every frame they return must be the one the checked
    constructor keeps, and neither may run the check."""

    @staticmethod
    def produce(tmp_path, producer, case):
        if producer == "synthesize":
            return synthesized(case)[0]
        return logged(tmp_path / "flight.csv", case)

    CASES = ([("synthesize", case) for case in
              ("noisy", "noiseless", "ideal-encoders", "float32-speed")]
             + [("read_log", case) for case in
                ("truth", "no-truth", "comment", "whitespace-cell")])

    @pytest.mark.parametrize("producer, case", CASES)
    def test_frames_are_what_the_constructor_keeps(self, tmp_path, producer, case):
        frames = self.produce(tmp_path, producer, case)
        assert len(frames) == 100
        for frame in frames:
            assert type(frame) is SensorFrame
            assert type(frame.t) is float and plain_channels(frame), frame
            rebuilt = SensorFrame(**vars(frame))
            assert rebuilt == frame
            # Kept by identity: the bypass rests on the check keeping
            # these channels as given.
            assert all(getattr(rebuilt, name) is value for name, value in vars(frame).items())
            assert list(vars(frame)) == [f.name for f in dataclasses.fields(SensorFrame)]
        assert any(frame.gps_xy is not None for frame in frames)
        assert any(frame.baro_z is not None for frame in frames)
        if case == "whitespace-cell":
            assert frames[59].wind_speed is None

    @pytest.mark.parametrize("producer, case", CASES)
    def test_producers_skip_the_check(self, monkeypatch, tmp_path, producer, case):
        calls = []
        check = SensorFrame.__post_init__

        def counted(frame):
            calls.append(frame)
            check(frame)

        monkeypatch.setattr(SensorFrame, "__post_init__", counted)
        frames = self.produce(tmp_path, producer, case)
        assert len(calls) == 0
        SensorFrame(**vars(frames[0]))
        assert len(calls) == 1

# ----------------------------------------------------------------------
# The pipeline against the reference pipelines of filter_reference: one
# tick policy, in float helpers compared bit for bit and in numpy matrices
# compared within 1e-12.


def assert_same(actual, expected, what):
    """Bit for bit, the sign of zero too and NaN equal to NaN: ``step``
    does the helpers' arithmetic in their order."""
    assert list(map(float.hex, actual)) == list(map(float.hex, expected)), (what, actual, expected)


def assert_close(actual, expected, what):
    """Equal within 1e-12 relative to max(1, |expected|): the float
    rotations sum in another order than numpy's matrix products."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    bound = 1e-12 * np.maximum(1.0, np.abs(expected))
    assert np.all(np.abs(actual - expected) <= bound), (what, actual, expected)


def assert_tick(compare, k, pipe, ref, out, expected):
    """Tick ``k`` of the pipeline ``pipe`` against the reference ``ref``:
    whether each emits and which axes each shows measured, then with
    ``compare`` every EstimateOutput field and ``last_measurement``, the
    pipeline's each a Python float and its vectors tuples."""
    assert (out is None) == (expected is None), k
    shown, ref_shown = pipe.last_measurement, ref.last_measurement
    assert (shown is None) == (ref_shown is None), k
    if ref_shown is not None:
        assert type(shown) is tuple and len(shown) == 3
        assert [z is None for z in shown] == [z is None for z in ref_shown], (k, shown)
        values = [z for z in shown if z is not None]
        assert all(type(z) is float for z in values), (k, shown)
        compare(values, [z for z in ref_shown if z is not None], (k, "last_measurement"))
    if expected is not None:
        assert type(out) is EstimateOutput
        assert type(out.p_hat) is tuple and type(out.v_hat) is tuple
        got = (out.t, *out.p_hat, *out.v_hat, *out[3:])
        assert all(type(x) is float for x in got), (k, got)
        compare(got, (expected.t, *expected.p_hat, *expected.v_hat, *expected[3:]), k)


def replay(oracle, compare, config, frames, pipe=None):
    """Step the pipeline (``pipe``, or a new one for ``config``) and
    ``oracle(config)`` through ``frames``, comparing each tick with
    ``compare``.  Where the oracle raises, the pipeline must raise the
    same exception with the same message at the same tick, and both step
    on.

    Returns the message of each tick that raised, by tick."""
    pipe = EstimationPipeline(config) if pipe is None else pipe
    ref = oracle(config)
    raised, emitted = {}, 0
    for k, frame in enumerate(frames):
        try:
            expected = ref.step(frame)
        except (DomainError, LogFormatError) as exc:
            with pytest.raises(type(exc)) as got:
                pipe.step(frame)
            assert str(got.value) == str(exc), k
            raised[k] = str(exc)
            continue
        assert_tick(compare, k, pipe, ref, pipe.step(frame), expected)
        emitted += expected is not None
    assert emitted > 0
    return raised


@functools.lru_cache(maxsize=None)
def reference_record(noisy, phi_g):
    noise = NoiseSpec(seed=23) if noisy else NoiseSpec.none(seed=23)
    frames, _ = synthesize(TrajectoryParams(duration=4.0, speed_scale=3.0, phi_g=phi_g), noise)
    return tuple(frames)


def edited(ticks, frames=None, **changes):
    """``frames``, the noisy reference record unless given, with the fields
    ``changes`` replaced at ``ticks``."""
    frames = reference_record(True, 0.0) if frames is None else frames
    return [dataclasses.replace(f, **changes) if k in ticks else f for k, f in enumerate(frames)]


def scaled_quaternion(tick):
    """The noisy reference record with a quaternion of norm 1.01 at ``tick``."""
    return edited((tick,), quat=1.01 * np.array(reference_record(True, 0.0)[tick].quat))


class ReplayCases:
    """Every replay case, against the reference pipeline ``oracle`` and
    compared with ``compare``, which a subclass names."""

    oracle = compare = None

    def replay(self, config, frames, **kwargs):
        return replay(self.oracle, self.compare, config, frames, **kwargs)

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("use_imu", [True, False])
    @pytest.mark.parametrize("phi_g", [0.0, 0.6])
    def test_synthesized_records(self, approach, noisy, use_imu, phi_g):
        config = dataclasses.replace(default_configs()[approach - 1],
                                     use_imu=use_imu, phi_g=phi_g)
        assert self.replay(config, reference_record(noisy, phi_g)) == {}

    def test_encoder_gap(self):
        assert self.replay(default_configs()[2], edited(range(60, 100), encoder=None)) == {}

    def test_vertical_encoder_reading_dropped(self):
        config = dataclasses.replace(default_configs()[2], geometry=TestEncoderFix.VERTICAL)
        assert self.replay(config, edited((0, 90), encoder=(0.0, 0.0))) == {}

    def test_encoder_gap_and_vertical_reading(self):
        frames = edited((0, 130), edited(range(60, 100), encoder=None), encoder=(0.0, 0.0))
        config = dataclasses.replace(default_configs()[2], geometry=TestEncoderFix.VERTICAL)
        assert self.replay(config, frames) == {}

    @pytest.mark.parametrize("changes", [
        {"gps_xy": np.array([0.0, 0.0])},
        {"gps_xy": np.array([20.0, 1.0]), "baro_z": 31.0},
    ])
    def test_sphere_correction_drops(self, changes):
        """XY at zero and a height above the sphere are dropped, both
        while warming up and once filtering."""
        assert self.replay(default_configs()[1], edited((0, 1, 120), **changes)) == {}

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
        frames = edited((0, 1, 120, 121), **changes)
        assert self.replay(default_configs()[approach - 1], frames) == {}

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_nan_quaternion_raises_at_its_tick(self, approach):
        """A nan attitude fails the unit-norm check like a non-unit one,
        instead of turning every later estimate into nan."""
        frames, _ = synthesize(TrajectoryParams(duration=1.0), NoiseSpec(seed=1))
        frames[10] = dataclasses.replace(frames[10], quat=np.array([math.nan, 0.0, 0.0, 0.0]))
        raised = self.replay(default_configs()[approach - 1], frames)
        assert list(raised) == [10] and raised[10].startswith("quaternion norm nan")

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_non_unit_quaternion_raises_at_same_tick(self, approach):
        """Primed: the record primes nothing, and the tick raises."""
        config, frames = default_configs()[approach - 1], scaled_quaternion(77)
        pipe = EstimationPipeline(config)
        pipe.prime(frames)
        assert list(self.replay(config, frames, pipe=pipe)) == [77]

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("tick", [0, 77])
    def test_non_unit_quaternion(self, approach, tick):
        """Raised before the state has seeded (tick 0) and after."""
        assert list(self.replay(default_configs()[approach - 1], scaled_quaternion(tick))) == [tick]

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("tick", [0, 77])
    def test_non_finite_acceleration(self, approach, tick):
        frames = edited((tick,), accel_k=(0.0, math.inf, 9.8))
        message = f"accelerometer reading (0.0, inf, 9.8) at t={frames[tick].t} is not finite"
        assert self.replay(default_configs()[approach - 1], frames) == {tick: message}

    @pytest.mark.parametrize("reading", [(math.nan, 0.2), (0.5, math.nan)])
    @pytest.mark.parametrize("tick", [0, 50])
    def test_nan_encoder_reading(self, reading, tick):
        assert list(self.replay(default_configs()[2], edited((tick,), encoder=reading))) == [tick]

    @pytest.mark.parametrize("reading", [(math.inf, 0.1), (0.8, math.inf),
                                         (-math.inf, math.nan)])
    @pytest.mark.parametrize("tick", [0, 50])
    def test_infinite_encoder_reading(self, reading, tick):
        """``DomainError`` naming the reading, as for NaN, and no state
        change: every later tick still steps as the reference's does."""
        raised = self.replay(default_configs()[2], edited((tick,), encoder=reading))
        assert list(raised) == [tick] and re.match(r"encoder reading \(.*inf", raised[tick])

    @pytest.mark.parametrize("approach", [1, 2, 3])
    @pytest.mark.parametrize("t", [math.nan, math.inf, "repeat"])
    def test_bad_time(self, approach, t):
        frames = reference_record(False, 0.0)
        frames = edited((40,), frames, t=frames[39].t if t == "repeat" else t)
        assert list(self.replay(default_configs()[approach - 1], frames)) == [40]

    def drive(self, config, fixes):
        """Feed the pipeline and the reference XY fixes (height 15 with the
        first); each fix is a function of the previous output, and
        ``None`` skips."""
        new, ref = EstimationPipeline(config), self.oracle(config)
        out = None
        outputs = []
        for k, fix in enumerate(fixes):
            frame = SensorFrame(t=k * TS, gps_xy=None if fix is None else fix(out),
                                baro_z=15.0 if k == 0 else None)
            out = new.step(frame)
            assert_tick(self.compare, k, new, ref, out, ref.step(frame))
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
        frames = [SensorFrame(t=k * TS, gps_xy=xy, baro_z=z)
                  for k, (xy, z) in enumerate([([20, 1], 15), ((21.0, 1.5), None), (None, 14)])]
        assert self.replay(default_configs()[0], frames) == {}

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_comparison_is_live(self, approach):
        """One axis's gains scaled by 1 + 1e-6 fail the replay, so a driver
        that stopped comparing could not pass."""
        config = default_configs()[approach - 1]
        pipe = EstimationPipeline(config)
        gains = list(pipe._gains)
        gains[approach - 1] = tuple(k * (1.0 + 1e-6) for k in gains[approach - 1])
        pipe._gains = tuple(gains)
        with pytest.raises(AssertionError):
            self.replay(config, reference_record(True, 0.0), pipe=pipe)


class TestMatchesHelperPipeline(ReplayCases):
    oracle, compare = HelperPipeline, staticmethod(assert_same)


class TestMatchesArrayPipeline(ReplayCases):
    oracle, compare = ArrayPipeline, staticmethod(assert_close)


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
        assert [z is not None for z in pipe.last_measurement] == [True, True, False]
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


@functools.lru_cache(maxsize=4)
def law_record(seed, noisy, phi_g=0.0, a_phi=TrajectoryParams().a_phi, r=R,
               geometry=EncoderGeometry()):
    """A 20 s record at speed scale 3.5 and its truth."""
    noise = NoiseSpec(seed=seed) if noisy else NoiseSpec.none(seed=seed)
    params = TrajectoryParams(duration=20.0, speed_scale=3.5, phi_g=phi_g, a_phi=a_phi, r=r)
    return synthesize(params, noise, geometry)


def law_estimates(config, frames):
    """The estimates of ``frames`` from a pipeline primed on them, then
    from one not primed."""
    primed = EstimationPipeline(config)
    primed.prime(frames)
    return [list(map(pipe.step, frames)) for pipe in (primed, EstimationPipeline(config))]


def bits(values):
    return [np.asarray(value, dtype=float).tobytes() for value in values]


class TestKinematicLaws:
    """The filters rely only on kinematic laws, so turning the ground
    frame's heading, mirroring the pattern across the downwind axis, or
    doubling the system's size moves the estimates only as it moves the
    flight."""

    @pytest.mark.parametrize("phi_g", [0.7, 2.5, -1.9])
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_heading(self, seed, noisy, phi_g):
        """Only the attitude channel carries the heading: the ground-frame
        truth is bit-identical (the attitude, body to NED, turns with it),
        and so are the ticks that emit.  The rotations round apart, so the
        estimates agree within 2e-14 r per component (measured 5.7e-15 r)
        and the velocity angle within 1e-13 rad (measured 2.7e-14)."""
        frames, truth = law_record(seed, noisy, phi_g=phi_g)
        level_frames, level_truth = law_record(seed, noisy)
        for sample, level in zip(truth, level_truth):
            assert bits(sample[:4] + sample[5:]) == bits(level[:4] + level[5:]), sample.t
        for config in default_configs():
            turned = law_estimates(dataclasses.replace(config, phi_g=phi_g), frames)
            for got, want in zip(turned, law_estimates(config, level_frames)):
                assert [out is None for out in got] == [out is None for out in want]
                got, want = [out for out in got if out], [out for out in want if out]
                states = np.array([(*out.p_hat, *out.v_hat) for out in got + want])
                assert np.abs(states[:len(got)] - states[len(got):]).max() <= 2e-14 * config.r
                gammas = np.array([out.gamma_hat for out in got + want])
                assert np.abs(wrap_angle(gammas[:len(got)] - gammas[len(got):])).max() <= 1e-13

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_mirror(self, approach):
        """With ``a_phi`` negated, truth y is negated exactly and x and z
        are bit-identical; so are the estimates' on every tick, primed or
        not (a zero y keeps its sign, as the truth's at t = 0 does), and the
        velocity angle is negated within 1e-14 rad (measured 2.7e-15).
        Noiseless, since ``synthesize`` offers no mirrored noise draw."""
        frames, truth = law_record(3, False, a_phi=-TrajectoryParams().a_phi)
        plain_frames, plain_truth = law_record(3, False)
        for sample, plain in zip(truth, plain_truth):
            for mirrored, vector in zip(sample[1:4], plain[1:4]):
                assert bits(mirrored[::2]) == bits(vector[::2]) and mirrored[1] == -vector[1]
        config = default_configs()[approach - 1]
        for got, want in zip(law_estimates(config, frames), law_estimates(config, plain_frames)):
            assert [out is None for out in got] == [out is None for out in want]
            for out, plain in zip(got, want):
                if plain is None:
                    continue
                for mirrored, vector in ((out.p_hat, plain.p_hat), (out.v_hat, plain.v_hat)):
                    assert bits(mirrored[::2]) == bits(vector[::2]), out.t
                    assert mirrored[1] == -vector[1], out.t
                assert abs(wrap_angle(out.gamma_hat + plain.gamma_hat)) <= 1e-14, out.t

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_scale(self, approach):
        """With the tether and every ``EncoderGeometry`` field doubled, the
        truth positions double exactly and the encoder readings are
        bit-identical.  Gravity does not scale, so the accelerations round
        apart: primed or not, the estimates double within 2e-14 r per
        component (measured 5.2e-15 r, 1.6e-13 m at r = 30 m) and the
        velocity angle agrees within 3e-14 rad (measured 5.3e-15).
        Noiseless, since the noise does not scale with the flight."""
        g = EncoderGeometry()
        double = EncoderGeometry(*(2.0 * getattr(g, f.name) for f in dataclasses.fields(g)))
        frames, truth = law_record(3, False, r=2.0 * R, geometry=double)
        plain_frames, plain_truth = law_record(3, False)
        for sample, plain in zip(truth, plain_truth):
            assert bits(sample.p) == bits(2.0 * np.asarray(plain.p)), sample.t
        assert [f.encoder for f in frames] == [f.encoder for f in plain_frames]
        config = default_configs()[approach - 1]
        scaled = dataclasses.replace(config, r=2.0 * R, geometry=double)
        for got, want in zip(law_estimates(scaled, frames), law_estimates(config, plain_frames)):
            assert [out is None for out in got] == [out is None for out in want]
            got, want = [out for out in got if out], [out for out in want if out]
            states = np.array([(*out.p_hat, *out.v_hat) for out in got + want])
            assert np.abs(states[:len(got)] - 2.0 * states[len(got):]).max() <= 2e-14 * R
            gammas = np.array([out.gamma_hat for out in got + want])
            assert np.abs(wrap_angle(gammas[:len(got)] - gammas[len(got):])).max() <= 3e-14
