from __future__ import annotations

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from filter_reference import angles_to_encoder as reference_encoder
from filter_reference import velocity_angle
from kitefusion import simkite
from kitefusion.attitude import (
    GRAVITY,
    body_rates_between,
    inertial_accel,
    quats_to_rots,
    rot_to_quat,
)
from kitefusion.errors import DegenerateInputError, DomainError
from kitefusion.evalio import write_log
from kitefusion.frames import rot_g_to_l, rot_ned_to_g, wrap_angle
from kitefusion.lineangle import EncoderGeometry, encoder_to_angles, resolution
from kitefusion.pipelines import SensorFrame
from kitefusion.simkite import NoiseSpec, TrajectoryParams, TruthSample, synthesize

TS = 0.02
DEG = math.pi / 180.0


def rot_of(q) -> np.ndarray:
    """Rotation matrix (body to NED) of one quaternion."""
    return quats_to_rots([q])[0]


def truth_at(params, t) -> TruthSample:
    """Exact trajectory state at time ``t``: one row of the synthesizer's
    own truth channel, at any time rather than on the sample grid."""
    times = np.array([t], dtype=float)
    p, v, a, q, gamma = simkite._truth(params, times, simkite._pattern_angles(params, times))
    return TruthSample(t, p[0], v[0], a[0], q[0], float(gamma[0]))


def reference_truth(params, t):
    """Pattern angles and exact state at ``t``, one time at a time in
    scalar ``math`` arithmetic."""
    s = params.speed_scale
    w_th = 4.0 * math.pi * params.f_loop * s
    w_ph = 2.0 * math.pi * params.f_loop * s
    arg_th = w_th * t + params.theta_phase
    arg_ph = w_ph * t
    th = params.theta0 + params.a_theta * math.sin(arg_th)
    thd = params.a_theta * w_th * math.cos(arg_th)
    thdd = -params.a_theta * w_th ** 2 * math.sin(arg_th)
    ph = params.phi0 + params.a_phi * math.sin(arg_ph)
    phd = params.a_phi * w_ph * math.cos(arg_ph)
    phdd = -params.a_phi * w_ph ** 2 * math.sin(arg_ph)
    r = params.r
    st, ct = math.sin(th), math.cos(th)
    sp, cp = math.sin(ph), math.cos(ph)
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
    x_k = v / float(np.linalg.norm(v))
    z_k = -p / r
    rot_k_to_g = np.column_stack([x_k, np.cross(z_k, x_k), z_k])
    q = rot_to_quat([rot_ned_to_g(params.phi_g) @ rot_k_to_g])[0]
    return (th, ph), TruthSample(t, p, v, a, q, math.atan2(ct * phd, thd))


def reference_fix_schedule(rate, latency, ts, n):
    """Sample times and arrival ticks of a channel, one sample at a time:
    sample ``j`` is taken at ``j / rate`` and arrives on the first tick
    whose time is not before ``j / rate + latency``, until one arrives at
    tick ``n`` or later."""
    times, ticks = [], []
    while rate > 0.0:
        t_fix = len(times) / rate
        tick = math.ceil((t_fix + latency) / ts - 1e-9)
        if tick >= n:
            break
        times.append(t_fix)
        ticks.append(tick)
    return np.array(times), ticks


def reference_small_rotation(delta):
    angle = float(np.linalg.norm(delta))
    if angle == 0.0:
        return np.eye(3)
    kx, ky, kz = delta / angle
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def reference_synthesize(params, noise, geometry=EncoderGeometry(), ts=TS):
    """:func:`synthesize` one tick at a time, with every random draw made
    in the order the record defines."""
    n = int(round(params.duration / ts))
    rng = np.random.default_rng(noise.seed)
    bandwidth = 0.5 / ts
    sigma_accel = noise.accel_density_g * math.sqrt(bandwidth) * GRAVITY
    sigma_gyro = noise.gyro_density_dps * math.sqrt(bandwidth) * DEG
    accel_bias = rng.uniform(-noise.accel_bias_g, noise.accel_bias_g, 3) * GRAVITY
    gyro_bias = rng.uniform(-noise.gyro_bias_dps, noise.gyro_bias_dps, 3) * DEG

    def arrival(t):
        return math.ceil(t / ts - 1e-9)

    gps_at, j = {}, 0
    while noise.gps_rate > 0.0 and arrival(j / noise.gps_rate + noise.gps_latency) < n:
        t_fix = j / noise.gps_rate
        gps_at[arrival(t_fix + noise.gps_latency)] = (
            reference_truth(params, t_fix)[1].p[:2] + rng.normal(0.0, noise.gps_sigma_xy, 2))
        j += 1
    baro_at, m = {}, 0
    while noise.baro_rate > 0.0 and arrival(m / noise.baro_rate) < n:
        t_fix = m / noise.baro_rate
        z = float(reference_truth(params, t_fix)[1].p[2])
        if noise.baro_resolution > 0.0:
            z = math.floor(z / noise.baro_resolution + 0.5) * noise.baro_resolution
        baro_at[arrival(t_fix)] = z
        m += 1

    angles, truth = [], []
    for k in range(n):
        pattern, sample = reference_truth(params, k * ts)
        if k and float(truth[-1].q @ sample.q) < 0.0:
            sample = sample._replace(q=-sample.q)
        angles.append(pattern)
        truth.append(sample)
    rates = [body_rates_between([truth[k].q], [truth[k + 1].q], ts)[0] for k in range(n - 1)]
    rates = [rates[0]] + rates if n > 1 else [np.zeros(3)]

    rot_n2g = rot_ned_to_g(params.phi_g)
    gyro_limit = noise.gyro_range_dps * DEG
    frames = []
    for k, s in enumerate(truth):
        force = rot_of(s.q).T @ (rot_n2g @ (s.a - np.array([0.0, 0.0, GRAVITY])))
        accel = force + accel_bias + rng.normal(0.0, sigma_accel, 3)
        gyro = rates[k] + gyro_bias + rng.normal(0.0, sigma_gyro, 3)
        if gyro_limit > 0.0:
            gyro = np.clip(gyro, -gyro_limit, gyro_limit)
        tilt = reference_small_rotation(rng.normal(0.0, noise.attitude_rms_deg * DEG, 3))
        frames.append(SensorFrame(
            t=s.t, accel_k=accel, gyro_k=gyro, quat=rot_to_quat([rot_of(s.q) @ tilt])[0],
            gps_xy=gps_at.get(k), baro_z=baro_at.get(k),
            encoder=reference_encoder(*angles[k], geometry, noise.encoder_cpr),
            wind_speed=params.speed_scale))
    return frames, truth


def assert_fields_equal(a, b):
    """Every field equal bit for bit: by bytes, so that -0.0 and 0.0 differ."""
    a, b = (vars(x) if dataclasses.is_dataclass(x) else x._asdict() for x in (a, b))
    assert a.keys() == b.keys()
    for name in a:
        x, y = a[name], b[name]
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert np.asarray(x, float).tobytes() == np.asarray(y, float).tobytes(), name


class TestTrajectoryParams:
    def test_defaults_valid(self):
        p = TrajectoryParams()
        assert p.r == 30.0

    @pytest.mark.parametrize("kwargs", [
        {"theta0": 0.1, "a_theta": 0.15},   # dips below the horizon
        {"theta0": 1.5, "a_theta": 0.15},   # sweeps past the zenith
        {"r": -1.0},
        {"duration": 0.0},
        {"f_loop": 0.0},
        {"speed_scale": -2.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            TrajectoryParams(**kwargs)

    def test_float32_params_give_the_float_record(self):
        """A float32 speed scale is stored as the Python float of its
        value, so the pattern runs in float64 and the record is that of
        the float, bit for bit, wind speed included."""
        scale = np.float32(2.5)
        noise = NoiseSpec(seed=3)
        got = synthesize(TrajectoryParams(speed_scale=scale, duration=10.0), noise)
        want = synthesize(TrajectoryParams(speed_scale=float(scale), duration=10.0), noise)
        for got_part, want_part in zip(got, want):
            assert len(got_part) == len(want_part)
            for a, b in zip(got_part, want_part):
                assert_fields_equal(a, b)
        assert {type(frame.wind_speed) for frame in got[0]} == {float}

    @pytest.mark.parametrize("cls, field, value", [
        (TrajectoryParams, "phi0", math.nan),
        (TrajectoryParams, "speed_scale", math.inf),
        (TrajectoryParams, "r", -math.inf),
        (NoiseSpec, "attitude_rms_deg", math.inf),
        (NoiseSpec, "gps_sigma_xy", math.nan),
    ])
    def test_non_finite_field_named(self, cls, field, value):
        """A nan or inf field is refused up front, by name, rather than
        turning into nan samples or a misleading reachability error."""
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            cls(**{field: value})

    @pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(NoiseSpec)])
    def test_negative_noise_field_named(self, field):
        with pytest.raises(DomainError, match=f"{field} must not be negative"):
            NoiseSpec(**{field: -1})

    def test_infinite_tick_period_rejected(self):
        # The fix schedule's floor(rate * n * ts) has no value for inf.
        with pytest.raises(DomainError, match="ts must be positive and finite"):
            synthesize(TrajectoryParams(duration=0.2), NoiseSpec.none(), ts=math.inf)

    @pytest.mark.parametrize("ts, twin", [
        (np.float32(0.02), float(np.float32(0.02))),
        (np.float64(0.01), 0.01),
        (1, 1.0),
        (np.int64(1), 1.0),
    ], ids=["float32", "float64", "int", "int64"])
    def test_tick_period_converted_to_float(self, ts, twin):
        """Any real tick period gives the record of its Python float, bit
        for bit: a float32 one no longer computes in float32."""
        params = TrajectoryParams(duration=12.0, speed_scale=2.5)
        got = synthesize(params, NoiseSpec(seed=3), ts=ts)
        want = synthesize(params, NoiseSpec(seed=3), ts=twin)
        for got_part, want_part in zip(got, want):
            assert len(got_part) == len(want_part) > 0
            for a, b in zip(got_part, want_part):
                assert_fields_equal(a, b)
        assert {type(s.t) for s in got[1]} == {float}

    @pytest.mark.parametrize("ts, shown", [("0.02", "'0.02'"), (b"0.02", "b'0.02'"),
                                           (None, "None"), ([0.02], "[0.02]"),
                                           (True, "True"), (np.True_, "np.True_")])
    def test_tick_period_without_a_number_refused_by_name(self, ts, shown):
        with pytest.raises(DomainError) as raised:
            synthesize(TrajectoryParams(duration=0.2), NoiseSpec.none(), ts=ts)
        assert str(raised.value) == f"ts must be positive and finite, got {shown}"

    # Each pair: a pattern just inside float64, and one just past it.
    EDGES = [
        ({"r": 7.3e153}, {"r": 7.4e153}, "speed"),
        ({"speed_scale": 2.4e152}, {"speed_scale": 2.5e152}, "speed"),
        ({"a_phi": 2.5e152}, {"a_phi": 2.6e152}, "speed"),
        # A tiny tether: the angular rates overflow before r scales them.
        ({"r": 1e-300, "speed_scale": 3.0e153}, {"r": 1e-300, "speed_scale": 3.1e153},
         "acceleration"),
    ]

    @pytest.mark.parametrize("inside, past, what", EDGES,
                             ids=["r", "speed-scale", "azimuth-amplitude", "tiny-tether"])
    def test_overflowing_pattern_refused_by_name(self, inside, past, what):
        """A pattern whose speed or acceleration overflows float64 is
        refused when it is made, naming its fields, rather than by an
        ``OverflowError`` in the synthesizer or a log written after
        numpy's overflow warning; one just inside synthesizes without a
        warning (each is an error here) and with finite channels."""
        with pytest.raises(DomainError, match=f"^pattern {what} overflows float64: r="):
            TrajectoryParams(duration=0.2, **past)
        frames, truth = synthesize(TrajectoryParams(duration=0.2, **inside), NoiseSpec(seed=1))
        assert np.isfinite([frame.accel_k for frame in frames]).all()
        assert np.isfinite([np.r_[s.p, s.v, s.a] for s in truth]).all()

    # Each pair: a moving pattern just inside float64's normal range, whose
    # peak speed squared is normal, and one just past it.
    UNDERFLOW_EDGES = [
        ({"r": 1.5e-154}, {"r": 1.4e-154}),
        ({"a_theta": 0.0, "a_phi": 5e-156}, {"a_theta": 0.0, "a_phi": 4.9e-156}),
        ({"r": 1e-100, "a_theta": 1e-100, "a_phi": 1e-100, "f_loop": 1e45},
         {"r": 1e-100, "a_theta": 1e-100, "a_phi": 1e-100, "f_loop": 5e44}),
        ({"r": 1e-150, "speed_scale": 1e-3}, {"r": 1e-150, "speed_scale": 1e-4}),
    ]

    @pytest.mark.parametrize("inside, past", UNDERFLOW_EDGES,
                             ids=["r", "azimuth-amplitude", "f-loop", "speed-scale"])
    def test_underflowing_pattern_refused_by_name(self, inside, past):
        """A moving pattern whose velocity's squares underflow is refused
        when it is made, naming its fields, rather than reported as one
        standing still; one just inside synthesizes with finite channels
        and a velocity angle on every tick."""
        with pytest.raises(DomainError, match="^pattern speed underflows float64: r="):
            TrajectoryParams(duration=0.2, **past)
        frames, truth = synthesize(TrajectoryParams(duration=0.2, **inside), NoiseSpec(seed=1))
        assert np.isfinite([frame.accel_k for frame in frames]).all()
        assert np.isfinite([[s.gamma, *s.q] for s in truth]).all()

    def test_still_pattern_keeps_its_message(self):
        still = TrajectoryParams(duration=0.2, a_theta=0.0, a_phi=0.0)
        with pytest.raises(DegenerateInputError, match=r"^pattern velocity vanishes at t=0\.0$"):
            synthesize(still, NoiseSpec(seed=1))

    def test_finite_extremes_still_accepted(self):
        # The rule is about nan and inf only; range checks stay as they were.
        assert NoiseSpec(gps_sigma_xy=1e308).gps_sigma_xy == 1e308
        assert NoiseSpec.none().attitude_rms_deg == 0.0


class TestTruth:
    PARAMS = TrajectoryParams()

    def test_stays_on_sphere(self):
        for t in np.linspace(0.0, 12.0, 200):
            s = truth_at(self.PARAMS, t)
            assert_allclose(np.linalg.norm(s.p), 30.0, atol=1e-9)

    def test_velocity_tangent_to_sphere(self):
        for t in np.linspace(0.1, 9.7, 50):
            s = truth_at(self.PARAMS, t)
            assert abs(s.p @ s.v) < 1e-9

    def test_derivatives_match_finite_differences(self):
        dt = 1e-5
        for t in (0.3, 1.1, 2.9, 5.3):
            pm = truth_at(self.PARAMS, t - dt).p
            s = truth_at(self.PARAMS, t)
            pp = truth_at(self.PARAMS, t + dt).p
            assert_allclose(s.v, (pp - pm) / (2 * dt), atol=1e-5)
        dt = 1e-4  # wider step: the second difference amplifies roundoff
        for t in (0.3, 1.1, 2.9, 5.3):
            pm = truth_at(self.PARAMS, t - dt).p
            s = truth_at(self.PARAMS, t)
            pp = truth_at(self.PARAMS, t + dt).p
            assert_allclose(s.a, (pp - 2 * s.p + pm) / dt ** 2, atol=1e-4)

    def test_velocity_angle_consistent_with_tangent_frame(self):
        for t in (0.2, 0.8, 3.3, 7.1):
            s = truth_at(self.PARAMS, t)
            theta = math.asin(s.p[2] / 30.0)
            phi = math.atan2(s.p[1], s.p[0])
            assert_allclose(velocity_angle(rot_g_to_l(theta, phi) @ s.v),
                            s.gamma, atol=1e-12)

    def test_attitude_alignment(self):
        params = TrajectoryParams(phi_g=0.4)
        for t in (0.15, 1.3, 4.4):
            s = truth_at(params, t)
            R = rot_ned_to_g(0.4) @ rot_of(s.q)  # body -> ground
            assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert_allclose(R[:, 0], s.v / np.linalg.norm(s.v), atol=1e-12)
            assert_allclose(R[:, 2], -s.p / 30.0, atol=1e-12)

    def test_speed_scale_is_time_dilation(self):
        fast = TrajectoryParams(speed_scale=2.0)
        for t in (0.4, 1.9):
            slow = truth_at(self.PARAMS, 2.0 * t)
            quick = truth_at(fast, t)
            assert_allclose(quick.p, slow.p, atol=1e-12)
            assert_allclose(quick.v, 2.0 * slow.v, atol=1e-9)
            assert_allclose(quick.a, 4.0 * slow.a, atol=1e-9)

    def test_zero_velocity_rejected(self):
        frozen = TrajectoryParams(a_theta=0.0, a_phi=0.0)
        with pytest.raises(DegenerateInputError):
            truth_at(frozen, 1.0)

    def test_arc_phase_variant_runs(self):
        arc = TrajectoryParams(theta_phase=math.pi / 2, duration=2.0)
        frames, truth = synthesize(arc, NoiseSpec.none())
        assert len(frames) == 100


class TestMatchesTickByTickReference:
    """The array-at-a-time synthesizer reproduces the tick-by-tick
    formulas bit for bit, across block boundaries and in short records."""

    @pytest.mark.parametrize("params, noise", [
        (TrajectoryParams(duration=12.0, speed_scale=4.5, phi_g=0.6),
         NoiseSpec(gyro_range_dps=50.0, seed=21)),
        (TrajectoryParams(duration=12.0, phi_g=2.5), NoiseSpec.none()),
        (TrajectoryParams(duration=3.0),
         dataclasses.replace(NoiseSpec(seed=22), gps_rate=0.0, attitude_rms_deg=0.0)),
        (TrajectoryParams(duration=0.005), NoiseSpec(seed=23)),
        (TrajectoryParams(duration=0.02), NoiseSpec(seed=24)),
        (TrajectoryParams(duration=0.04), NoiseSpec(seed=25)),
        # Several fixes arrive on one tick: the last of them is kept.
        (TrajectoryParams(duration=6.0, phi_g=0.4),
         dataclasses.replace(NoiseSpec(seed=4), gps_rate=120, baro_rate=75, gps_latency=0)),
    ], ids=["clipped-noisy", "noiseless", "no-gps-no-tilt", "n0", "n1", "n2",
            "fixes-sharing-a-tick"])
    def test_every_field_identical(self, params, noise):
        frames, truth = synthesize(params, noise)
        ref_frames, ref_truth = reference_synthesize(params, noise)
        assert len(frames) == len(ref_frames) == int(round(params.duration / TS))
        assert len(truth) == len(ref_truth) == len(frames)
        for got, want in zip(frames, ref_frames):
            assert_fields_equal(got, want)
        for got, want in zip(truth, ref_truth):
            assert_fields_equal(got, want)

    def test_reference_cases_clip_and_flip(self):
        frames, _ = synthesize(TrajectoryParams(duration=2.0, speed_scale=4.5),
                               NoiseSpec(gyro_range_dps=50.0, seed=21))
        assert max(np.max(np.abs(f.gyro_k)) for f in frames) == math.radians(50.0)
        # Quaternions come out with a non-negative scalar part, so a negative
        # one in the truth shows that sign continuity flipped it.
        _, truth = synthesize(TrajectoryParams(duration=12.0, phi_g=2.5), NoiseSpec.none())
        assert any(s.q[0] < 0.0 for s in truth)

    def test_truth_at_matches_reference(self):
        params = TrajectoryParams(phi_g=0.6, speed_scale=2.5)
        for t in np.linspace(0.0, 9.0, 41):
            assert_fields_equal(truth_at(params, t), reference_truth(params, t)[1])


class TestNoiselessConsistency:
    """With the zero budget every channel reproduces the truth exactly."""

    def setup_method(self):
        self.params = TrajectoryParams(duration=8.0, phi_g=0.3)
        self.frames, self.truth = synthesize(self.params, NoiseSpec.none())

    def test_record_layout(self):
        assert len(self.frames) == 400
        assert_allclose([f.t for f in self.frames], np.arange(400) * TS)
        assert all(f.wind_speed == 1.0 for f in self.frames)

    def test_accelerometer_round_trip(self):
        for f, s in zip(self.frames, self.truth):
            a = inertial_accel(f.accel_k, f.quat, math.cos(0.3), math.sin(0.3))
            assert_allclose(a, s.a, atol=1e-9)

    def test_gyro_matches_quaternion_differencing(self):
        q = np.array([s.q for s in self.truth])
        for frame, w in zip(self.frames[1:], body_rates_between(q[:-1], q[1:], TS)):
            assert_allclose(frame.gyro_k, w, atol=1e-12)

    def test_encoder_reproduces_pattern_angles(self):
        for f, s in zip(self.frames[::7], self.truth[::7]):
            th, ph = encoder_to_angles(f.encoder, EncoderGeometry())
            assert_allclose(th, math.asin(s.p[2] / 30.0), atol=1e-9)
            assert_allclose(wrap_angle(ph - math.atan2(s.p[1], s.p[0])), 0.0, atol=1e-9)

    def test_height_channel_exact_at_its_own_cadence(self):
        ticks = [k for k, f in enumerate(self.frames) if f.baro_z is not None]
        # 9 Hz on a 50 Hz grid: first arrivals at ticks 0, 6, 12, 17, ...
        assert ticks[:4] == [0, 6, 12, 17]
        for k in ticks:
            m = round(k * TS * 9.0 - 0.49)  # sample index that landed here
            z = truth_at(self.params, m / 9.0).p[2]
            assert_allclose(self.frames[k].baro_z, z, atol=1e-12)

    def test_xy_fix_exact_without_latency(self):
        ticks = [k for k, f in enumerate(self.frames) if f.gps_xy is not None]
        assert ticks[:4] == [0, 13, 25, 38]
        for j, k in enumerate(ticks):
            assert_allclose(self.frames[k].gps_xy,
                            truth_at(self.params, j / 4.0).p[:2], atol=1e-12)

    def test_truth_quaternions_sign_continuous(self):
        dots = [float(self.truth[k - 1].q @ self.truth[k].q)
                for k in range(1, len(self.truth))]
        assert min(dots) > 0.9

    def test_velocity_angle_rate_within_expected_bracket(self):
        g = np.array([s.gamma for s in self.truth])
        peak = np.max(np.abs(wrap_angle(np.diff(g)))) / TS
        assert 1.5 < peak < 2.5  # measured 2.2966 rad/s for this pattern


class TestFixSchedule:
    @pytest.mark.parametrize("ts", [0.01, 0.02, 0.025, 0.03, 0.1])
    def test_matches_reference_loop(self, ts):
        """Times bit for bit and ticks as Python ints, including records
        too short for any sample and latencies past the record."""
        for rate, latency, n in itertools.product(
                (0.0, 0.7, 1.0, 3.3, 4.0, 9.0, 12.5, 50.0, 64.0),
                (0.0, 0.013, 0.02, 0.2, 0.37, 1.0, 50.0),
                (0, 1, 2, 7, 50, 333, 1000)):
            times, ticks = simkite._fix_schedule(rate, latency, ts, n)
            ref_times, ref_ticks = reference_fix_schedule(rate, latency, ts, n)
            assert times.dtype == ref_times.dtype and times.tobytes() == ref_times.tobytes()
            assert ticks == ref_ticks and all(type(k) is int for k in ticks)

    @pytest.mark.parametrize("rate, latency, want", [
        (1e-308, 0.2, [10]), (5e-324, 0.0, [0]), (4.0, 1e308, []), (4.0, 0.3, [])],
        ids=["rate-1e-308", "rate-5e-324", "latency-1e308", "latency-at-the-end"])
    def test_extreme_rate_or_latency_stays_finite(self, rate, latency, want):
        """A rate so low that only its first sample falls in the record, or
        a latency that reaches past it, gives the first samples the
        reference loop gives, without computing a sample past the record
        (whose time or tick overflowed, with a warning, an error here)."""
        times, ticks = simkite._fix_schedule(rate, latency, 0.02, 15)
        assert ticks == want and times.tolist() == [0.0] * len(want)


class TestLatencyAndQuantization:
    def test_fix_arrives_after_latency(self):
        spec = dataclasses.replace(NoiseSpec.none(), gps_latency=0.2)
        frames, _ = synthesize(TrajectoryParams(duration=4.0), spec)
        ticks = [k for k, f in enumerate(frames) if f.gps_xy is not None]
        assert ticks[0] == 10  # 0.2 s after the fix taken at t = 0
        params = TrajectoryParams(duration=4.0)
        for j, k in enumerate(ticks):
            assert k * TS >= j / 4.0 + 0.2 - 1e-12
            assert_allclose(frames[k].gps_xy, truth_at(params, j / 4.0).p[:2],
                            atol=1e-12)

    def test_height_quantized_to_resolution(self):
        spec = dataclasses.replace(NoiseSpec.none(), baro_resolution=0.2)
        frames, truth = synthesize(TrajectoryParams(duration=4.0), spec)
        for f in frames:
            if f.baro_z is None:
                continue
            steps = f.baro_z / 0.2
            assert abs(steps - round(steps)) < 1e-9
        worst = max(abs(f.baro_z - s.p[2])
                    for f, s in zip(frames, truth) if f.baro_z is not None)
        assert worst <= 0.1 + 0.02 * 30.0  # half a step plus intra-tick motion

    def test_encoder_quantized_to_line_count(self):
        spec = dataclasses.replace(NoiseSpec.none(), encoder_cpr=400)
        frames, _ = synthesize(TrajectoryParams(duration=2.0), spec)
        step = resolution(400)
        for f in frames:
            for value in f.encoder:
                assert abs(value / step - round(value / step)) < 1e-6

    def test_channel_removal(self):
        spec = dataclasses.replace(NoiseSpec.none(), gps_rate=0.0, baro_rate=0.0)
        frames, _ = synthesize(TrajectoryParams(duration=2.0), spec)
        assert all(f.gps_xy is None and f.baro_z is None for f in frames)


class TestNoiseBudget:
    def only(self, **kw):
        return dataclasses.replace(NoiseSpec.none(), **kw)

    def exact_force(self, s, phi_g=0.0):
        return rot_of(s.q).T @ (rot_ned_to_g(phi_g)
                                @ (s.a - np.array([0.0, 0.0, GRAVITY])))

    def test_accel_noise_level(self):
        spec = self.only(accel_density_g=2.5e-4, seed=4)
        frames, truth = synthesize(TrajectoryParams(duration=40.0), spec)
        resid = np.array([f.accel_k - self.exact_force(s)
                          for f, s in zip(frames, truth)])
        expected = 2.5e-4 * math.sqrt(25.0) * GRAVITY
        assert_allclose(resid.std(), expected, rtol=0.05)

    def test_accel_bias_constant_and_bounded(self):
        spec = self.only(accel_bias_g=4e-3, seed=9)
        frames, truth = synthesize(TrajectoryParams(duration=2.0), spec)
        resid = np.array([f.accel_k - self.exact_force(s)
                          for f, s in zip(frames, truth)])
        assert np.ptp(resid, axis=0).max() < 1e-9  # constant over the record
        assert np.all(np.abs(resid[0]) <= 4e-3 * GRAVITY)
        assert np.any(resid[0] != 0.0)

    def test_attitude_error_level(self):
        spec = self.only(attitude_rms_deg=1.0, seed=6)
        frames, truth = synthesize(TrajectoryParams(duration=40.0), spec)
        tilts = []
        for f, s in zip(frames, truth):
            R_err = rot_of(s.q).T @ rot_of(f.quat)
            tilts.append([R_err[2, 1] - R_err[1, 2],
                          R_err[0, 2] - R_err[2, 0],
                          R_err[1, 0] - R_err[0, 1]])
        per_axis = 0.5 * np.array(tilts)  # small-angle rotation vector
        assert_allclose(per_axis.std(axis=0), math.radians(1.0), rtol=0.1)

    def test_gyro_clipped_to_range(self):
        fast = TrajectoryParams(duration=5.0, speed_scale=4.5)
        frames, truth = synthesize(fast, NoiseSpec.none())
        limit = math.radians(300.0)
        q = np.array([s.q for s in truth])
        true_peak = np.max(np.abs(body_rates_between(q[:-1], q[1:], TS)))
        assert true_peak > limit  # the flight really does exceed the range
        assert max(np.max(np.abs(f.gyro_k)) for f in frames) <= limit + 1e-12

    def test_same_seed_reproduces_record(self):
        a, _ = synthesize(TrajectoryParams(duration=2.0), NoiseSpec(seed=11))
        b, _ = synthesize(TrajectoryParams(duration=2.0), NoiseSpec(seed=11))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.accel_k, fb.accel_k)
            assert np.array_equal(fa.quat, fb.quat)
            if fa.gps_xy is None:
                assert fb.gps_xy is None
            else:
                assert np.array_equal(fa.gps_xy, fb.gps_xy)

    def test_different_seed_changes_record(self):
        a, _ = synthesize(TrajectoryParams(duration=2.0), NoiseSpec(seed=11))
        b, _ = synthesize(TrajectoryParams(duration=2.0), NoiseSpec(seed=12))
        assert not np.array_equal(a[0].accel_k, b[0].accel_k)


@pytest.fixture
def cold():
    """An empty memo of noise-free flights, so the next record is built
    from scratch."""
    simkite._flight.cache_clear()
    yield
    simkite._flight.cache_clear()


def held() -> int:
    return simkite._flight.cache_info().currsize


def built() -> int:
    return simkite._flight.cache_info().misses


def assert_records_equal(got, want, tmp_path):
    """Every frame and truth field equal bit for bit, and the logs
    written from them equal byte for byte."""
    for got_part, want_part in zip(got, want):
        assert len(got_part) == len(want_part)
        for a, b in zip(got_part, want_part):
            assert_fields_equal(a, b)
    for name, (frames, truth) in (("got.csv", got), ("want.csv", want)):
        write_log(frames, tmp_path / name, truth=truth)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestFlightMemo:
    """A record's noise-free flight is computed once per pattern and
    reused by the next record of that pattern; every record is the one a
    cold process would synthesize, bit for bit."""

    # Four patterns, the most the memo holds: three speeds and an empty record.
    PATTERNS = [TrajectoryParams(duration=6.0, speed_scale=s) for s in (1.5, 3.5, 4.5)] + [
        TrajectoryParams(duration=0.005)]

    @pytest.mark.parametrize("cpr", [400, 0])
    def test_hit_equals_cold_miss(self, cold, tmp_path, cpr):
        noises = [NoiseSpec(seed=1, encoder_cpr=cpr),
                  dataclasses.replace(NoiseSpec.none(), encoder_cpr=cpr),
                  NoiseSpec(seed=2, encoder_cpr=cpr)]
        records = {}
        for params, noise in itertools.product(self.PATTERNS, noises):
            simkite._flight.cache_clear()
            records[params, noise] = synthesize(params, noise)
        for params in self.PATTERNS:
            synthesize(params, NoiseSpec(seed=9, encoder_cpr=cpr))
        misses = built()
        # Seeds interleaved across the speeds, each pattern's flight held.
        for noise, params in itertools.product(reversed(noises), self.PATTERNS):
            assert_records_equal(synthesize(params, noise), records[params, noise], tmp_path)
        assert built() == misses

    def test_signed_zero_has_its_own_flight(self, cold, tmp_path):
        """With no azimuth swing the velocity angle takes the sign of the
        amplitude's zero, so the two patterns give two records."""
        plus, minus = (TrajectoryParams(duration=2.0, a_phi=z) for z in (0.0, -0.0))
        want = synthesize(minus, NoiseSpec.none())
        simkite._flight.cache_clear()
        synthesize(plus, NoiseSpec.none())
        got = synthesize(minus, NoiseSpec.none())
        assert held() == 2
        assert math.copysign(1.0, got[1][1].gamma) == -1.0
        assert_records_equal(got, want, tmp_path)

    @pytest.mark.parametrize("params, geometry, error, message", [
        (TrajectoryParams(duration=2.0, a_theta=0.0, a_phi=0.0), EncoderGeometry(),
         DegenerateInputError, "pattern velocity vanishes at t=0.0"),
        (TrajectoryParams(duration=2.0), EncoderGeometry(pivot_height=10.0),
         DomainError, "are outside the reachable set"),
    ], ids=["still", "unreachable"])
    def test_failure_not_held(self, cold, params, geometry, error, message):
        for _ in range(3):
            with pytest.raises(error, match=message):
                synthesize(params, NoiseSpec(seed=4), geometry)
            assert held() == 0

    def test_written_truth_leaves_the_next_record(self, cold, tmp_path):
        params = TrajectoryParams(duration=2.0, speed_scale=2.5)
        want = copy.deepcopy(synthesize(params, NoiseSpec(seed=5)))
        _, truth = synthesize(params, NoiseSpec(seed=5))
        for sample in truth:
            for array in sample[1:5]:
                array[:] = 7.0
        assert_records_equal(synthesize(params, NoiseSpec(seed=5)), want, tmp_path)

    def test_holds_at_most_four_flights(self, cold):
        def record(speed):
            synthesize(TrajectoryParams(duration=0.2, speed_scale=speed), NoiseSpec.none())
            assert held() <= 4

        for speed in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
            record(speed)
        assert held() == 4
        # The least recently used flight goes first: a hit keeps its own.
        record(2.0)
        record(4.0)
        misses = built()
        for speed in (2.0, 3.0, 3.5, 4.0):
            record(speed)
        assert built() == misses
        record(2.5)
        assert built() == misses + 1
