"""Steady-state Kalman filtering of the wing's translational state.

The filter state is position and velocity in the ground frame ``G``,
stacked as ``x = [p, v]``.  Each axis follows a discrete double
integrator driven by the inertial acceleration: over one sample ``Ts``
the position advances by ``Ts * v`` and the velocity by ``Ts * a``.
Position measurements (satellite fix, barometric height or line-angle
position) correct the prediction through a constant gain computed from
the steady-state solution of the Riccati fixed point.

With unit measurement-noise variance, the only tuning knob left is the
per-axis ratio of process to measurement noise variance: large ratios
trust the position sensor up to higher frequencies, small ratios lean on
the accelerometer path.  The three axes are decoupled, so the six-state
problem splits into three independent two-state problems: :func:`axis_gain`
solves one 2x2 fixed point, and :class:`~kitefusion.pipelines.EstimationPipeline`
runs the recursion per axis on plain floats with those gains.  The frequency
responses take plain gains and ``ts``: one axis's, or the angle observer's.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, NonConvergenceError, as_real_array, as_reals, require_positive


def build_system(ts: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State, input and output matrices of the stacked double integrator.

    Parameters
    ----------
    ts : float
        Sample time in s, positive and finite.

    Returns
    -------
    (A, B, C) : tuple of numpy.ndarray
        ``A`` is 6x6, ``B`` 6x3, ``C`` 3x6 with ``C @ x`` the position.
    """
    require_positive("ts", ts)
    eye = np.eye(3)
    A = np.block([[eye, ts * eye], [np.zeros((3, 3)), eye]])
    B = np.vstack([np.zeros((3, 3)), ts * eye])
    C = np.hstack([eye, np.zeros((3, 3))])
    return A, B, C


DARE_TOL = 1e-13
DARE_MAX_ITERATIONS = 10 ** 6


def solve_dare(A: np.ndarray, B: np.ndarray, C: np.ndarray,
               Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Steady-state prediction covariance of the filtering Riccati equation.

    Iterates the fixed point

        P <- A P A' - A P C' (C P C' + R)^-1 C P A' + B Q B'

    from ``P = B Q B'`` until the relative Frobenius change drops below
    ``DARE_TOL``.  Plain fixed-point iteration converges linearly at the squared
    closed-loop spectral radius, which stays comfortably away from 1 for
    the tunings used here.

    Parameters
    ----------
    A, B, C : numpy.ndarray
        System matrices (any consistent sizes).
    Q, R : numpy.ndarray
        Process and measurement noise covariance; ``R`` must be symmetric
        positive definite.

    Returns
    -------
    numpy.ndarray
        Symmetric positive semi-definite steady-state covariance.

    Raises
    ------
    DomainError
        If ``R`` is not symmetric positive definite.
    NonConvergenceError
        If ``DARE_MAX_ITERATIONS`` iterations do not converge.
    """
    R = np.asarray(R, dtype=float)
    if not np.allclose(R, R.T, atol=1e-12):
        raise DomainError("measurement noise covariance must be symmetric")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise DomainError("measurement noise covariance must be positive definite") from exc
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    BQBt = B @ np.asarray(Q, dtype=float) @ B.T
    P = BQBt.copy()
    for _ in range(DARE_MAX_ITERATIONS):
        PCt = P @ C.T
        S = C @ PCt + R
        APCt = A @ PCt
        P_next = A @ P @ A.T - APCt @ np.linalg.solve(S, APCt.T) + BQBt
        delta = np.linalg.norm(P_next - P)
        P = P_next
        if delta <= DARE_TOL * max(1.0, np.linalg.norm(P)):
            return 0.5 * (P + P.T)
    raise NonConvergenceError(
        f"Riccati fixed point not converged after {DARE_MAX_ITERATIONS} iterations")


def kalman_gain(P: np.ndarray, A: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Constant correction gain ``K = A P C' (C P C' + R)^-1``.

    Raises
    ------
    DomainError
        If the innovation covariance is singular or the resulting closed
        loop ``(I - K C) A`` is not strictly stable (the covariance passed
        in was not the stabilizing solution).
    """
    S = C @ P @ C.T + R
    try:
        K = np.linalg.solve(S.T, (A @ P @ C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise DomainError("singular innovation covariance") from exc
    closed_loop = (np.eye(A.shape[0]) - K @ C) @ A
    if max(abs(np.linalg.eigvals(closed_loop))) >= 1.0:
        raise DomainError("closed loop is not strictly stable")
    return K


@functools.lru_cache(maxsize=64)
def axis_gain(ts: float, ratio: float) -> tuple[float, float]:
    """Steady-state gains ``(k1, k2)`` of one decoupled axis with process
    to measurement noise variance ``ratio``: a position error ``e``
    corrects the axis as ``p += k1 * e``, ``v += k2 * e``.  Cached, since
    one 2x2 Riccati solve takes up to tens of milliseconds.  Raises
    ``DomainError`` unless ``ts`` and ``ratio`` are positive and finite.

    The gain is the predictor form that the pipeline applies after its
    prediction, and that loop is strictly stable only for ratios below
    ``16 / (3 ts**4)`` (about 3.33e7 at ``ts = 0.02``).  Past it a
    ``DomainError`` names the ratio and ``ts`` before any solve (whose
    iteration would overflow from about 1e154 at ``ts = 0.02``), and so
    does the eigenvalue check of :func:`kalman_gain` for ratios so small
    that the solve stops with the loop on the unit circle (below about
    2.5e-10 at ``ts = 0.02``)."""
    require_positive("ts", ts)
    require_positive("ratio", ratio)
    if ratio * ts * ts * ts * ts >= 16.0 / 3.0:
        raise DomainError(f"ratio {ratio} at ts {ts}: closed loop is not strictly stable")
    A = np.array([[1.0, ts], [0.0, 1.0]])
    B = np.array([[0.0], [ts]])
    C = np.array([[1.0, 0.0]])
    P = solve_dare(A, B, C, np.array([[ratio]]), np.array([[1.0]]))
    try:
        K = kalman_gain(P, A, C, np.array([[1.0]]))
    except DomainError as exc:
        raise DomainError(f"ratio {ratio} at ts {ts}: {exc}") from exc
    return float(K[0, 0]), float(K[1, 0])


def _unit_circle_magnitudes(ts: float, freqs, response) -> tuple[np.ndarray, np.ndarray]:
    """``|h_1|, |h_2|`` of ``response(z) = (h_1, h_2)``, evaluated on the
    array ``z = exp(j 2 pi f ts)`` of every ``f`` in Hz in (0, Nyquist),
    with ``ts`` positive and finite."""
    require_positive("ts", ts)
    freqs = as_real_array("freqs", freqs)
    nyquist = 0.5 / ts
    if not np.all((freqs > 0.0) & (freqs < nyquist)):
        raise DomainError(f"frequencies must lie in (0, {nyquist}) Hz")
    h_1, h_2 = response(np.exp(2j * np.pi * freqs * ts))
    return np.abs(h_1), np.abs(h_2)


def kf_frequency_response(gains: tuple[float, float], ts: float,
                          freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude responses of one axis of the position filter.

    With the axis's gains ``(k1, k2)``, as :func:`axis_gain` returns them,
    the corrected estimate obeys

        xhat(k) = (I - K C) A xhat(k-1) + (I - K C) B a(k) + K y(k)

    and this returns ``(|F_a|, |F_y|)``, the magnitude responses from the
    acceleration input and from the position measurement to the position
    estimate, evaluated at ``z = exp(j 2 pi f ts)``.

    Raises
    ------
    DomainError
        If ``gains`` is not two real numbers, ``ts`` is not positive and
        finite, ``freqs`` holds anything but real numbers
        (:func:`~kitefusion.errors.as_real_array`), or a frequency not in
        (0, Nyquist).
    """
    k1, k2 = as_reals("gains", gains, 2)

    def response(z):
        # (I - K C) A for the single axis; (I - K C) B is (0, ts).  Worked
        # out here, once ``ts`` has passed its guard.
        a00, a01 = 1.0 - k1, (1.0 - k1) * ts
        a10, a11 = -k2, 1.0 - k2 * ts
        det = (z - a00) * (z - a11) - a01 * a10
        return z * (a01 * ts) / det, z * ((z - a11) * k1 + a01 * k2) / det

    return _unit_circle_magnitudes(ts, freqs, response)


def lo_frequency_response(k_gamma: tuple[float, float], ts: float,
                          freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude responses of the velocity-angle observer.

    Returns ``(|F_angle|, |F_rate|)``: the responses from the measured
    angle to the emitted angle and rate estimates.  The emitted state is
    the prediction, so both channels are strictly proper.

    Raises
    ------
    DomainError
        If ``k_gamma`` is not two real numbers, ``ts`` is not positive and
        finite, ``freqs`` holds anything but real numbers
        (:func:`~kitefusion.errors.as_real_array`), or a frequency not in
        (0, Nyquist).
    """
    k1, k2 = as_reals("k_gamma", k_gamma, 2)

    def response(z):
        det = (z - 1.0 + k1) * (z - 1.0) + ts * k2
        return ((z - 1.0) * k1 + ts * k2) / det, k2 * (z - 1.0) / det

    return _unit_circle_magnitudes(ts, freqs, response)
