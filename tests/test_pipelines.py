from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kitefusion.attitude import GRAVITY, quat_to_rot
from kitefusion.errors import DegenerateInputError, DomainError, LogFormatError
from kitefusion.estimator import KfTuning, steady_state_gain
from kitefusion.evalio import default_configs
from kitefusion.frames import (
    rot_g_to_l,
    rot_ned_to_g,
    spherical_to_cartesian,
    velocity_angle,
    wrap_angle,
)
from kitefusion.lineangle import EncoderGeometry, EncoderReading, encoder_to_angles
from kitefusion.pipelines import (
    EstimateOutput,
    EstimationPipeline,
    EstimatorConfig,
    SensorFrame,
    gamma_unfiltered,
    geometric_correction,
    lo_frequency_response,
    luenberger_step,
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
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            EstimatorConfig(**kwargs)


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

    def test_nan_fix_stays_on_its_axis(self):
        """A correction leaves every axis outside its own bit-unchanged,
        so a non-finite x fix cannot spill into y and z."""
        def last(x):
            pipe = EstimationPipeline(EstimatorConfig(approach=1))
            pipe.step(SensorFrame(t=0.0, gps_xy=np.array([20.0, 1.0]), baro_z=15.0))
            return pipe.step(SensorFrame(t=TS, gps_xy=np.array([x, 1.0])))

        bad, good = last(math.nan), last(21.0)
        assert math.isnan(bad.p_hat[0]) and math.isnan(bad.v_hat[0])
        assert bad.p_hat[1:].tolist() == [1.0, 15.0]
        assert np.array_equal(bad.p_hat[1:], good.p_hat[1:])
        assert np.array_equal(bad.v_hat[1:], good.v_hat[1:])


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


# ----------------------------------------------------------------------
# Reference: the array-form pipeline that EstimationPipeline replaced.
# Each tick runs the stacked 6x3 gain and the 3x3 rotation matrices
# through numpy; the float pipeline must agree with it on every output.


def ref_accel_to_inertial(a_k, q, phi_g):
    a_g = rot_ned_to_g(phi_g) @ (quat_to_rot(q) @ np.asarray(a_k, dtype=float))
    a_g[2] += GRAVITY
    return a_g


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
        self.gain = steady_state_gain(KfTuning(config.ts, tuple(config.ratios))).gain
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
        assert isinstance(out.p_hat, np.ndarray) and isinstance(out.v_hat, np.ndarray)
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
    def test_non_unit_quaternion_raises_at_same_tick(self, approach):
        frames = list(reference_record(True, 0.0))
        frames[77] = dataclasses.replace(frames[77], quat=1.01 * frames[77].quat)
        assert replay_against_reference(default_configs()[approach - 1], frames) == 77
