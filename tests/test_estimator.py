from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from kitefusion.errors import DomainError
from kitefusion.estimator import (
    KalmanGain,
    KfTuning,
    KinematicState,
    build_system,
    kalman_gain,
    kf_frequency_response,
    measurement_update,
    solve_dare,
    steady_state_gain,
    time_update,
)

TS = 0.02


def riccati_oracle(A, B, C, Q, R, tol=1e-14):
    """Fixed point of P -> A (P - P C'(CPC'+R)^-1 C P) A' + B Q B'.

    Same steady state as the production solver but iterated in a different
    algebraic arrangement, so shared mistakes are unlikely.
    """
    P = np.zeros((A.shape[0], A.shape[0]))
    for _ in range(10 ** 6):
        S = C @ P @ C.T + R
        corrected = P - P @ C.T @ np.linalg.solve(S, C @ P)
        P_next = A @ corrected @ A.T + B @ Q @ B.T
        done = np.linalg.norm(P_next - P) <= tol * max(1.0, np.linalg.norm(P_next))
        P = P_next
        if done:
            return P
    raise AssertionError("oracle iteration did not converge")


def gain_from(P, A, C, R):
    return A @ P @ C.T @ np.linalg.inv(C @ P @ C.T + R)


class TestBuildSystem:
    def test_stacked_double_integrator(self):
        A, B, C = build_system(TS)
        x = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
        a = np.array([0.5, -0.5, 1.5])
        x_next = A @ x + B @ a
        assert_allclose(x_next[:3], x[:3] + TS * x[3:])
        assert_allclose(x_next[3:], x[3:] + TS * a)
        assert_allclose(C @ x, x[:3])

    def test_shapes(self):
        A, B, C = build_system(0.1)
        assert A.shape == (6, 6)
        assert B.shape == (6, 3)
        assert C.shape == (3, 6)

    @pytest.mark.parametrize("ts", [0.0, -0.02])
    def test_nonpositive_sample_time_rejected(self, ts):
        with pytest.raises(DomainError):
            build_system(ts)


class TestSolveDare:
    def test_matches_alternative_iteration_and_scipy(self):
        A, B, C = build_system(TS)
        Q = np.diag([10.0, 500.0, 2.0])
        R = np.eye(3)
        P = solve_dare(A, B, C, Q, R)
        P_alt = riccati_oracle(A, B, C, Q, R)
        assert_allclose(P, P_alt, atol=1e-10)
        P_scipy = scipy.linalg.solve_discrete_are(A.T, C.T, B @ Q @ B.T, R)
        assert_allclose(P, P_scipy, atol=1e-10)

    def test_fixed_point_residual(self):
        A, B, C = build_system(TS)
        Q = 500.0 * np.eye(3)
        R = np.eye(3)
        P = solve_dare(A, B, C, Q, R)
        S = C @ P @ C.T + R
        residual = A @ P @ A.T - A @ P @ C.T @ np.linalg.solve(S, C @ P @ A.T) \
            + B @ Q @ B.T - P
        assert np.linalg.norm(residual) < 1e-9 * (1.0 + np.linalg.norm(P))

    def test_symmetric_psd(self):
        A, B, C = build_system(TS)
        P = solve_dare(A, B, C, 10.0 * np.eye(3), np.eye(3))
        assert_allclose(P, P.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(P) >= -1e-12)

    def test_zero_process_noise_gives_zero(self):
        A, B, C = build_system(TS)
        P = solve_dare(A, B, C, np.zeros((3, 3)), np.eye(3))
        assert_allclose(P, np.zeros((6, 6)), atol=1e-15)

    def test_indefinite_measurement_noise_rejected(self):
        A, B, C = build_system(TS)
        with pytest.raises(DomainError):
            solve_dare(A, B, C, np.eye(3), np.diag([1.0, -1.0, 1.0]))

    def test_asymmetric_measurement_noise_rejected(self):
        A, B, C = build_system(TS)
        R = np.eye(3)
        R[0, 1] = 0.5
        with pytest.raises(DomainError):
            solve_dare(A, B, C, np.eye(3), R)

    def test_stable_over_wide_ratio_range(self):
        A, B, C = build_system(TS)
        R = np.eye(3)
        for lam in (1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6):
            P = solve_dare(A, B, C, lam * np.eye(3), R)
            K = kalman_gain(P, A, C, R).gain
            rho = max(abs(np.linalg.eigvals((np.eye(6) - K @ C) @ A)))
            assert rho < 1.0


class TestKalmanGain:
    def test_pinned_gains(self):
        # frozen from two independent solvers (alternative fixed point and
        # scipy.linalg.solve_discrete_are), which agree to 3e-13
        expected = {
            10.0: (0.0502893851088, 0.0616747634012),
            500.0: (0.1335986098030, 0.4182742822219),
        }
        for lam, (k1, k2) in expected.items():
            gain = steady_state_gain(KfTuning(TS, (lam, lam, lam)))
            assert_allclose(gain.gain[0, 0], k1, atol=1e-9)
            assert_allclose(gain.gain[3, 0], k2, atol=1e-9)

    def test_singular_innovation_rejected(self):
        A, B, C = build_system(TS)
        P = np.zeros((6, 6))
        with pytest.raises(DomainError):
            kalman_gain(P, A, C, np.zeros((3, 3)))

    def test_non_stabilizing_covariance_rejected(self):
        A, B, C = build_system(TS)
        # P = 0 with invertible R gives K = 0: the open double integrator has
        # all poles on the unit circle, so the check must fire.
        with pytest.raises(DomainError):
            kalman_gain(np.zeros((6, 6)), A, C, np.eye(3))


class TestSteadyStateGain:
    def test_matches_full_six_state_solve(self):
        ratios = (10.0, 500.0, 2.0)
        gain = steady_state_gain(KfTuning(TS, ratios))
        A, B, C = build_system(TS)
        P_full = solve_dare(A, B, C, np.diag(ratios), np.eye(3))
        full = kalman_gain(P_full, A, C, np.eye(3))
        assert_allclose(gain.gain, full.gain, atol=1e-10)
        assert_allclose(gain.covariance, full.covariance, atol=1e-10)

    def test_gain_sparsity(self):
        gain = steady_state_gain(KfTuning(TS, (500.0, 500.0, 500.0))).gain
        mask = np.zeros((6, 3), dtype=bool)
        for axis in range(3):
            mask[axis, axis] = mask[axis + 3, axis] = True
        assert np.all(gain[~mask] == 0.0)

    def test_repeat_calls_consistent(self):
        t = KfTuning(TS, (500.0, 500.0, 500.0))
        first = steady_state_gain(t)
        second = steady_state_gain(t)
        assert_allclose(first.gain, second.gain, atol=0)
        assert first.gain is not second.gain

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(DomainError):
            steady_state_gain(KfTuning(TS, (500.0, 0.0, 500.0)))


class TestRecursions:
    def test_time_update_example(self):
        state = KinematicState([1.0, 2.0, 3.0], [0.5, 0.0, -0.5])
        time_update(state, [0.0, 10.0, 0.0], TS)
        assert_allclose(state.p, [1.01, 2.0, 2.99])
        assert_allclose(state.v, [0.5, 0.2, -0.5])

    def test_time_update_matches_matrix_form(self):
        rng = np.random.default_rng(7)
        A, B, _ = build_system(TS)
        for _ in range(50):
            x = rng.normal(size=6)
            a = rng.normal(size=3)
            state = KinematicState(x[:3].tolist(), x[3:].tolist())
            time_update(state, a.tolist(), TS)
            ref = A @ x + B @ a
            assert_allclose(np.concatenate(state), ref, rtol=0, atol=0)

    def test_measurement_update_full(self):
        gain = steady_state_gain(KfTuning(TS, (500.0, 500.0, 500.0)))
        state = KinematicState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        measurement_update(state, [1.0, 0.0, 0.0], gain.axis_gains)
        assert_allclose(state.p, [gain.gain[0, 0], 0.0, 0.0])
        assert_allclose(state.v, [gain.gain[3, 0], 0.0, 0.0])

    def test_partial_update_touches_only_listed_axes(self):
        gains = steady_state_gain(KfTuning(TS, (10.0, 10.0, 500.0))).axis_gains
        state = KinematicState([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        measurement_update(state, [9.0, 9.0, 4.0], gains, axes=(2,))
        assert state.p[:2] == [1.0, 2.0] and state.v[:2] == [0.1, 0.2]
        assert state.p[2] != 3.0

    def test_partial_all_axes_equals_full(self):
        gains = steady_state_gain(KfTuning(TS, (10.0, 500.0, 2.0))).axis_gains
        meas = [1.5, -1.5, 2.5]
        full = KinematicState([1.0, -2.0, 3.0], [0.1, 0.2, -0.3])
        split = KinematicState([1.0, -2.0, 3.0], [0.1, 0.2, -0.3])
        measurement_update(full, meas, gains)
        measurement_update(split, meas, gains, axes=(0, 1))
        measurement_update(split, meas, gains, axes=(2,))
        assert full == split

    def test_recursion_matches_full_matrix_filter(self):
        """The per-axis float recursion agrees with the stacked 6x6
        closed-loop recursion driven by the coupled gain of the full
        six-state Riccati solve."""
        ratios = (10.0, 500.0, 2.0)
        gains = steady_state_gain(KfTuning(TS, ratios)).axis_gains
        A, B, C = build_system(TS)
        K = kalman_gain(solve_dare(A, B, C, np.diag(ratios), np.eye(3)), A, C, np.eye(3)).gain
        rng = np.random.default_rng(11)
        state = KinematicState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        x = np.zeros(6)
        for _ in range(200):
            a = rng.normal(size=3)
            y = rng.normal(size=3)
            time_update(state, a.tolist(), TS)
            measurement_update(state, y.tolist(), gains)
            xpred = A @ x + B @ a
            x = xpred + K @ (y - C @ xpred)
            assert_allclose(np.concatenate(state), x, atol=1e-10)

    def test_converges_on_model_consistent_data(self):
        """With exact measurements of a trajectory generated by the same
        dynamics the estimate converges geometrically to the truth."""
        gains = steady_state_gain(KfTuning(TS, (500.0, 500.0, 500.0))).axis_gains
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(size=3) * 5.0, rng.normal(size=3)])
        state = KinematicState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        A, B, _ = build_system(TS)
        for k in range(600):
            a = np.array([np.sin(0.05 * k), np.cos(0.03 * k), 0.2])
            x = A @ x + B @ a
            time_update(state, a.tolist(), TS)
            measurement_update(state, x[:3].tolist(), gains)
        assert np.max(np.abs(np.subtract(state.p, x[:3]))) < 1e-6
        assert np.max(np.abs(np.subtract(state.v, x[3:]))) < 1e-6


class TestFrequencyResponse:
    def test_passes_low_frequency_position_unchanged(self):
        t = KfTuning(TS, (500.0, 500.0, 500.0))
        _, mag_y = kf_frequency_response(t, 0, np.array([1e-4]))
        assert_allclose(mag_y[0], 1.0, atol=1e-6)

    def test_matches_time_domain_sinusoid(self):
        """Drive the actual recursion with a single tone on each input and
        read the steady-state amplitude off the position estimate."""
        t = KfTuning(TS, (500.0, 500.0, 500.0))
        gains = steady_state_gain(t).axis_gains
        f = 0.5
        mag_u, mag_y = kf_frequency_response(t, 0, np.array([f]))
        n_settle, n_meas = 3000, 4000  # 4000 samples = 40 whole periods
        for channel, expected in (("u", mag_u[0]), ("y", mag_y[0])):
            state = KinematicState([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
            response = np.empty(n_meas)
            for k in range(n_settle + n_meas):
                s = float(np.sin(2.0 * np.pi * f * k * TS))
                time_update(state, [s if channel == "u" else 0.0, 0.0, 0.0], TS)
                measurement_update(state, [s if channel == "y" else 0.0, 0.0, 0.0], gains)
                if k >= n_settle:
                    response[k - n_settle] = state.p[0]
            k = np.arange(n_settle, n_settle + n_meas)
            phasor = np.exp(-2j * np.pi * f * k * TS)
            amplitude = 2.0 * abs(response @ phasor) / n_meas
            assert_allclose(amplitude, expected, rtol=1e-6)

    def test_larger_ratio_tracks_to_higher_frequency(self):
        freqs = np.linspace(0.01, 5.0, 2000)
        _, y_hi = kf_frequency_response(KfTuning(TS, (500.0,) * 3), 0, freqs)
        _, y_lo = kf_frequency_response(KfTuning(TS, (10.0,) * 3), 0, freqs)
        cross_hi = freqs[np.argmax(y_hi < 1.0 / np.sqrt(2.0))]
        cross_lo = freqs[np.argmax(y_lo < 1.0 / np.sqrt(2.0))]
        assert cross_hi > cross_lo
        # frozen from this measurement; guards against gain regressions
        assert_allclose(cross_hi, 1.5577, atol=0.01)
        assert_allclose(cross_lo, 0.5841, atol=0.01)

    def test_rejects_frequencies_outside_band(self):
        t = KfTuning(TS, (500.0, 500.0, 500.0))
        with pytest.raises(DomainError):
            kf_frequency_response(t, 0, np.array([0.0]))
        with pytest.raises(DomainError):
            kf_frequency_response(t, 0, np.array([25.0]))
        with pytest.raises(DomainError):
            kf_frequency_response(t, 0, np.array([-1.0]))
