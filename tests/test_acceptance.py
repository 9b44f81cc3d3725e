"""Release-gate checks for the assembled package.

Each test prints one ``[criterion N]`` verdict line, so the suite output
doubles as a checklist.  Three sub-checks are strict expected failures:
they assert tracking bands the pinned tuning does not actually reach, with
the measured numbers kept in the test bodies.  Keeping them as xfails means
the suite also flags the day they silently start passing.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from kitefusion.cli import main as cli_main
from kitefusion.estimator import (
    axis_gain,
    build_system,
    kalman_gain,
    kf_frequency_response,
    lo_frequency_response,
    solve_dare,
)
from kitefusion.evalio import LogData, compare_approaches
from kitefusion.frames import (
    cartesian_to_spherical,
    rot_g_to_l,
    spherical_to_cartesian,
    wrap_angle,
)
from kitefusion.lineangle import (
    EncoderGeometry,
    angles_to_encoder,
    encoder_to_angles,
    resolution,
)
from kitefusion.pipelines import (
    EstimationPipeline,
    EstimatorConfig,
    geometric_correction,
)
from kitefusion.simkite import NoiseSpec, TrajectoryParams, synthesize

TS = 0.02
RADIUS = 30.0


def _say(capsys, line: str) -> None:
    """Print a verdict line that survives pytest's capture."""
    with capsys.disabled():
        print(line)


def _crossover_hz(gains: tuple[float, float]) -> float:
    """First frequency where the measurement channel drops below 1/sqrt(2)."""
    freqs = np.linspace(0.01, 5.0, 2000)
    _, mag_y = kf_frequency_response(gains, TS, freqs)
    below = np.nonzero(mag_y < 1.0 / math.sqrt(2.0))[0]
    return float(freqs[below[0]])


def _steady_covariance_reference(a, b, c, q, r_cov, tol=1e-14):
    """Update-then-predict fixed point, algebraically distinct from the
    production recursion; serves as the independent oracle."""
    drive = b @ q @ b.T
    p = drive.copy()
    for _ in range(1_000_000):
        w = np.linalg.solve(c @ p @ c.T + r_cov, c @ p)
        p_next = a @ (p - p @ c.T @ w) @ a.T + drive
        gap = float(np.abs(p_next - p).max())
        p = 0.5 * (p_next + p_next.T)
        if gap <= tol * (1.0 + float(np.abs(p).max())):
            return p
    raise AssertionError("reference iteration did not settle")


def _alignment_lag(g_hat, g_true, max_lag=25):
    """Shift (in ticks) that best aligns an angle estimate with the truth,
    scored on the circle so wrapping cannot fake a match."""
    best, best_tau = -2.0, 0
    for tau in range(max_lag + 1):
        a = np.asarray(g_hat[tau:])
        b = np.asarray(g_true[: len(g_true) - tau] if tau else g_true)
        score = float(np.mean(np.cos(a - b)))
        if score > best:
            best, best_tau = score, tau
    return best_tau


# --- criterion 1 -----------------------------------------------------------

def test_frame_algebra_sweep(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    target = np.array([0.0, 0.0, -RADIUS])
    worst_orth = worst_trip = worst_map = 0.0
    for _ in range(1000):
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        phi = rng.uniform(-np.pi, np.pi)
        rot = rot_g_to_l(theta, phi)
        worst_orth = max(worst_orth, float(np.abs(rot @ rot.T - np.eye(3)).max()))
        p = spherical_to_cartesian(theta, phi, RADIUS)
        t_back, p_back = cartesian_to_spherical(p, RADIUS)
        worst_trip = max(worst_trip, abs(t_back - theta),
                         abs(float(wrap_angle(p_back - phi))))
        worst_map = max(worst_map, float(np.abs(rot @ p - target).max()))
    elapsed = time.perf_counter() - start
    assert worst_orth <= 1e-12
    assert worst_trip <= 1e-12
    assert worst_map <= 1e-9
    assert elapsed < 1.0
    _say(capsys, f"[criterion 1] PASS frame algebra: orthonormality {worst_orth:.1e}, "
                 f"angle round trip {worst_trip:.1e}, tangent mapping {worst_map:.1e} "
                 f"({elapsed:.2f} s)")


# --- criterion 2 -----------------------------------------------------------

def test_steady_state_covariance_accuracy(capsys):
    start = time.perf_counter()
    a, b, c = build_system(TS)
    r_cov = np.eye(3)
    notes = []
    for ratio in (0.1, 10.0, 500.0, 1e4):
        q = ratio * np.eye(3)
        p = solve_dare(a, b, c, q, r_cov)
        s = c @ p @ c.T + r_cov
        back = a @ p @ a.T - a @ p @ c.T @ np.linalg.solve(s, c @ p @ a.T) + b @ q @ b.T
        residual = float(np.linalg.norm(p - back))
        assert residual < 1e-9 * (1.0 + float(np.linalg.norm(p)))
        gain = kalman_gain(p, a, c, r_cov)
        rho = float(max(abs(np.linalg.eigvals((np.eye(6) - gain @ c) @ a))))
        assert rho < 1.0
        reference = _steady_covariance_reference(a, b, c, q, r_cov)
        assert float(np.abs(p - reference).max()) <= 1e-8
        notes.append(f"ratio {ratio:g}: residual {residual:.1e}, radius {rho:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _say(capsys, "[criterion 2] PASS steady covariance: " + "; ".join(notes)
                 + f" ({elapsed:.2f} s)")


# --- criterion 3 -----------------------------------------------------------

def test_position_filter_tracking_band(capsys):
    start = time.perf_counter()
    sharp = axis_gain(TS, 500.0)
    soft = axis_gain(TS, 10.0)
    _, mag_y = kf_frequency_response(sharp, TS, np.linspace(0.001, 0.05, 200))
    crossover_sharp = _crossover_hz(sharp)
    crossover_soft = _crossover_hz(soft)
    elapsed = time.perf_counter() - start
    assert float(mag_y.min()) >= 0.99
    assert float(mag_y.max()) <= 1.01
    assert crossover_sharp > crossover_soft
    assert elapsed < 1.0
    _say(capsys, f"[criterion 3a] PASS measurement channel: unity band holds to 0.05 Hz "
                 f"({mag_y.min():.5f}..{mag_y.max():.5f}), crossover {crossover_sharp:.2f} Hz "
                 f"vs {crossover_soft:.2f} Hz at the soft tuning ({elapsed:.2f} s)")


@pytest.mark.xfail(strict=True, reason="acceleration channel levels off at 0.93 of the "
                                       "pure double integrator, outside the 5% band")
def test_position_filter_accel_channel_asymptote(capsys):
    sharp = axis_gain(TS, 500.0)
    freqs = np.linspace(10.0, 24.9, 150)
    mag_u, _ = kf_frequency_response(sharp, TS, freqs)
    z = np.exp(2j * np.pi * freqs * TS)
    reference = np.abs(TS ** 2 / (z - 1.0) ** 2)
    ratio = mag_u / reference
    _say(capsys, f"[criterion 3b] FAIL (expected): acceleration channel sits at "
                 f"{ratio.min():.3f}..{ratio.max():.3f} of the pure double integrator "
                 f"above 10 Hz, outside the 5% band")
    assert float(np.abs(ratio - 1.0).max()) <= 0.05


# --- criterion 4 -----------------------------------------------------------

def test_angle_observer_unity_band(capsys):
    start = time.perf_counter()
    mag_low, _ = lo_frequency_response((0.4, 0.9), TS, np.array([0.16]))
    mag_high, _ = lo_frequency_response((0.4, 0.9), TS, np.linspace(3.0, 24.9, 400))
    elapsed = time.perf_counter() - start
    assert abs(float(mag_low[0]) - 1.0) <= 0.10
    assert np.all(np.diff(mag_high) < 0.0)
    assert elapsed < 1.0
    _say(capsys, f"[criterion 4a] PASS angle channel: |F|={mag_low[0]:.4f} at 0.16 Hz, "
                 f"monotone attenuation above 3 Hz ({mag_high[0]:.3f} down to "
                 f"{mag_high[-1]:.3f}) ({elapsed:.2f} s)")


@pytest.mark.xfail(strict=True, reason="rate channel only matches the discrete "
                                       "differentiator below about 0.2 Hz")
def test_angle_observer_rate_channel_band(capsys):
    freqs = np.geomspace(0.1, 1.0, 40)
    _, mag_rate = lo_frequency_response((0.4, 0.9), TS, freqs)
    z = np.exp(2j * np.pi * freqs * TS)
    reference = np.abs((z - 1.0) / TS)
    ratio = mag_rate / reference
    _say(capsys, f"[criterion 4b] FAIL (expected): rate channel falls from "
                 f"{ratio[0]:.3f} of the discrete differentiator at 0.1 Hz to "
                 f"{ratio[-1]:.3f} at 1 Hz, outside the 10% band")
    assert float(np.abs(ratio - 1.0).max()) <= 0.10


# --- criterion 5 -----------------------------------------------------------

@pytest.fixture(scope="module")
def noiseless_run():
    start = time.perf_counter()
    frames, truth = synthesize(TrajectoryParams(duration=60.0), NoiseSpec.none())
    pipe = EstimationPipeline(EstimatorConfig())
    worst_pos = worst_gamma = 0.0
    for frame, sample in zip(frames, truth):
        out = pipe.step(frame)
        if out is None or frame.t < 2.0:
            continue
        worst_pos = max(worst_pos, float(np.linalg.norm(out.p_hat - sample.p)))
        worst_gamma = max(worst_gamma,
                          abs(float(wrap_angle(out.gamma_hat - sample.gamma))))
    return worst_pos, worst_gamma, time.perf_counter() - start


def test_noiseless_end_to_end_position(noiseless_run, capsys):
    worst_pos, _, elapsed = noiseless_run
    assert worst_pos < 0.01
    assert elapsed < 5.0
    _say(capsys, f"[criterion 5a] PASS noiseless end to end: position error "
                 f"{worst_pos:.2e} m after the 2 s transient ({elapsed:.2f} s)")


@pytest.mark.xfail(strict=True, reason="angle observer lags the fast pattern; "
                                       "worst wrapped error is about 0.05 rad")
def test_noiseless_end_to_end_velocity_angle(noiseless_run, capsys):
    _, worst_gamma, _ = noiseless_run
    _say(capsys, f"[criterion 5b] FAIL (expected): velocity-angle error reaches "
                 f"{worst_gamma:.4f} rad on the noiseless run, above the 0.02 rad target")
    assert worst_gamma < 0.02


# --- criterion 6 -----------------------------------------------------------

SPEED_SCALES = (1.5, 2.5, 3.5, 4.5)
SEEDS_PER_BIN = 20


@pytest.fixture(scope="module")
def speed_sweep():
    """Median per-bin RMSE over 20 seeded records per speed bin.

    Runs the full report path (synthesis, all three routings, binning) and
    reduces each (quantity, approach, bin) cell to the median over seeds.
    """
    start = time.perf_counter()
    per_seed: dict = {}
    for bin_index, scale in enumerate(SPEED_SCALES):
        for k in range(SEEDS_PER_BIN):
            frames, truth = synthesize(
                TrajectoryParams(duration=40.0, speed_scale=scale),
                NoiseSpec(seed=1000 * bin_index + k))
            report = compare_approaches(LogData(frames=frames, truth=truth))
            for row in report.rows:
                value = row.values[bin_index]
                assert not math.isnan(value)
                per_seed.setdefault((row.quantity, row.approach),
                                    [[] for _ in SPEED_SCALES])[bin_index].append(value)
    medians = {key: tuple(statistics.median(vals) for vals in bins)
               for key, bins in per_seed.items()}
    return medians, time.perf_counter() - start


def test_encoder_route_beats_radio_routes(speed_sweep, capsys):
    medians, elapsed = speed_sweep
    for quantity in ("p_x", "p_y", "gamma"):
        for bin_index in range(len(SPEED_SCALES)):
            assert medians[(quantity, 3)][bin_index] < medians[(quantity, 2)][bin_index], \
                (quantity, bin_index)
    assert elapsed < 120.0
    gamma3 = ", ".join(f"{v:.3f}" for v in medians[("gamma", 3)])
    gamma2 = ", ".join(f"{v:.3f}" for v in medians[("gamma", 2)])
    _say(capsys, f"[criterion 6a] PASS route ordering: encoder route beats the corrected "
                 f"radio route on every bin (gamma medians [{gamma3}] vs [{gamma2}]); "
                 f"80-record sweep took {elapsed:.0f} s")


def test_sphere_correction_pays_off_at_speed(speed_sweep, capsys):
    medians, _ = speed_sweep
    top_two = (len(SPEED_SCALES) - 2, len(SPEED_SCALES) - 1)
    for bin_index in top_two:
        assert medians[("p_x", 2)][bin_index] <= medians[("p_x", 1)][bin_index], bin_index
    pairs = ", ".join(f"{medians[('p_x', 2)][i]:.3f}<={medians[('p_x', 1)][i]:.3f}"
                      for i in top_two)
    _say(capsys, f"[criterion 6b] PASS sphere correction: corrected radio route is no "
                 f"worse on downwind error at the two fastest bins ({pairs})")


def test_error_grows_with_speed_in_band(speed_sweep, capsys):
    # Crosswind error and velocity angle stay inside every route's tracking
    # band across all bins, and the encoder route tracks downwind too, so
    # for those cells the medians must ride up with the flight speed.
    medians, _ = speed_sweep
    cases = [("p_y", 1), ("p_y", 2), ("p_y", 3),
             ("gamma", 1), ("gamma", 2), ("gamma", 3),
             ("p_x", 3)]
    for quantity, approach in cases:
        values = medians[(quantity, approach)]
        assert all(b >= a for a, b in zip(values, values[1:])), (quantity, approach, values)
    _say(capsys, "[criterion 6c] PASS speed trend: median error is non-decreasing across "
                 "bins for crosswind and velocity angle on all routes and for the "
                 "encoder route downwind")


@pytest.mark.xfail(strict=True, reason="GPS latency breaks the monotone speed trend for "
                                       "the radio routes' downwind error at the top bin")
def test_error_grows_with_speed_everywhere(speed_sweep, capsys):
    medians, _ = speed_sweep
    plain = ", ".join(f"{v:.2f}" for v in medians[("p_x", 1)])
    _say(capsys, f"[criterion 6d] FAIL (expected): downwind medians for the plain radio "
                 f"route are [{plain}]; the drop at the top bin comes from the 0.2 s GPS "
                 f"latency (the trend is monotone with latency zeroed)")
    for quantity in ("p_x", "p_y", "gamma"):
        for approach in (1, 2, 3):
            values = medians[(quantity, approach)]
            assert all(b >= a for a, b in zip(values, values[1:])), \
                (quantity, approach, values)


# --- criterion 7 -----------------------------------------------------------

def test_imu_input_cuts_lag_and_error(capsys):
    start = time.perf_counter()
    frames, truth = synthesize(TrajectoryParams(duration=20.0), NoiseSpec(seed=42))
    results = {}
    for use_imu in (True, False):
        pipe = EstimationPipeline(EstimatorConfig(use_imu=use_imu))
        g_hat, g_true, sq = [], [], []
        for frame, sample in zip(frames, truth):
            out = pipe.step(frame)
            if out is None or frame.t < 2.0:
                continue
            g_hat.append(out.gamma_hat)
            g_true.append(sample.gamma)
            sq.append(float(np.sum((out.p_hat - sample.p) ** 2)))
        results[use_imu] = (_alignment_lag(g_hat, g_true),
                            math.sqrt(float(np.mean(sq))))
    elapsed = time.perf_counter() - start
    lag_on, rmse_on = results[True]
    lag_off, rmse_off = results[False]
    assert lag_off > lag_on
    assert rmse_off > rmse_on
    assert elapsed < 30.0
    _say(capsys, f"[criterion 7] PASS inertial input: alignment lag {lag_on} vs "
                 f"{lag_off} ticks, position RMSE {rmse_on:.3f} vs {rmse_off:.3f} m "
                 f"without it ({elapsed:.2f} s)")


# --- criterion 8 -----------------------------------------------------------

def test_encoder_round_trip_within_one_count(capsys):
    # The mechanism's azimuth resolution collapses as the tether nears the
    # vertical (the ground-plane projection shrinks), so the sweep stays
    # below 1.25 rad elevation where one count maps to about one count.
    start = time.perf_counter()
    geometry = EncoderGeometry()
    step = resolution(400)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.05, 1.25)
        phi = rng.uniform(-1.45, 1.45)
        reading = angles_to_encoder(theta, phi, geometry)
        theta_back, phi_back = encoder_to_angles(reading, geometry)
        worst = max(worst, abs(theta_back - theta), abs(phi_back - phi))
    elapsed = time.perf_counter() - start
    assert worst < step
    assert elapsed < 2.0
    _say(capsys, f"[criterion 8] PASS encoder inversion: worst round trip "
                 f"{worst / step:.2f} of one count over 1000 draws ({elapsed:.2f} s)")


# --- criterion 9 -----------------------------------------------------------

def test_sphere_projection_restores_radius(capsys):
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-1.2, 1.2)
        phi = rng.uniform(-np.pi, np.pi)
        p = spherical_to_cartesian(theta, phi, RADIUS)
        scale = rng.uniform(0.7, 1.3)
        p_meas = np.array([p[0] * scale + rng.normal(0.0, 0.5),
                           p[1] * scale + rng.normal(0.0, 0.5),
                           rng.uniform(-27.0, 27.0)])
        fixed = geometric_correction(p_meas, RADIUS)
        worst = max(worst, abs(float(np.linalg.norm(fixed)) - RADIUS))
        assert fixed[2] == p_meas[2]
    assert worst <= 1e-9
    _say(capsys, f"[criterion 9] PASS sphere projection: worst radius deviation "
                 f"{worst:.1e} m, height bit-exact on all 1000 draws")


# --- criterion 10 ----------------------------------------------------------

def test_seeded_runs_are_byte_identical(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("duration = 3.0\nseed = 11\napproach = 3\n", encoding="utf-8")
    log_a, log_b = tmp_path / "a.csv", tmp_path / "b.csv"
    est_a, est_b = tmp_path / "ea.csv", tmp_path / "eb.csv"
    assert cli_main(["simulate", "--config", str(config), "--out", str(log_a)]) == 0
    assert cli_main(["simulate", "--config", str(config), "--out", str(log_b)]) == 0
    assert log_a.read_bytes() == log_b.read_bytes()
    assert cli_main(["estimate", "--log", str(log_a), "--config", str(config),
                     "--out", str(est_a)]) == 0
    assert cli_main(["estimate", "--log", str(log_a), "--config", str(config),
                     "--out", str(est_b)]) == 0
    assert est_a.read_bytes() == est_b.read_bytes()
    _say(capsys, "[criterion 10] PASS determinism: repeated simulate and estimate runs "
                 "are byte-identical")
