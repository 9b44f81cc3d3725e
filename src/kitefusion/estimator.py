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
problem splits into three independent two-state problems; the production
gain synthesis exploits that and solves three 2x2 fixed points instead
of one 6x6, and the recursion runs per axis on plain floats.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonConvergenceError


class KinematicState(NamedTuple):
    """Estimated position and velocity in ``G``, metres and m/s: two lists
    of three floats each, which :func:`time_update` and
    :func:`measurement_update` change in place."""

    p: list[float]
    v: list[float]


class KfTuning(NamedTuple):
    """Sample time in s and per-axis process/measurement variance ratios."""

    ts: float
    ratios: tuple[float, float, float]


class KalmanGain(NamedTuple):
    """Constant correction gain (6x3) with the steady-state prediction
    covariance (6x6) it was derived from."""

    gain: np.ndarray
    covariance: np.ndarray

    @property
    def axis_gains(self) -> tuple[tuple[float, float], ...]:
        """Per-axis ``(k1, k2)``: the position and velocity gains of each
        decoupled axis, as :func:`measurement_update` takes them."""
        K = self.gain
        return tuple((float(K[axis, axis]), float(K[axis + 3, axis])) for axis in range(3))


def build_system(ts: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State, input and output matrices of the stacked double integrator.

    Parameters
    ----------
    ts : float
        Sample time in s, > 0.

    Returns
    -------
    (A, B, C) : tuple of numpy.ndarray
        ``A`` is 6x6, ``B`` 6x3, ``C`` 3x6 with ``C @ x`` the position.
    """
    if not ts > 0.0:
        raise DomainError(f"sample time must be positive, got {ts}")
    eye = np.eye(3)
    A = np.block([[eye, ts * eye], [np.zeros((3, 3)), eye]])
    B = np.vstack([np.zeros((3, 3)), ts * eye])
    C = np.hstack([eye, np.zeros((3, 3))])
    return A, B, C


def solve_dare(A: np.ndarray, B: np.ndarray, C: np.ndarray,
               Q: np.ndarray, R: np.ndarray,
               tol: float = 1e-13, max_iterations: int = 10 ** 6) -> np.ndarray:
    """Steady-state prediction covariance of the filtering Riccati equation.

    Iterates the fixed point

        P <- A P A' - A P C' (C P C' + R)^-1 C P A' + B Q B'

    from ``P = B Q B'`` until the relative Frobenius change drops below
    ``tol``.  Plain fixed-point iteration converges linearly at the squared
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
        If the iteration budget is exhausted.
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
    for _ in range(max_iterations):
        PCt = P @ C.T
        S = C @ PCt + R
        APCt = A @ PCt
        P_next = A @ P @ A.T - APCt @ np.linalg.solve(S, APCt.T) + BQBt
        delta = np.linalg.norm(P_next - P)
        P = P_next
        if delta <= tol * max(1.0, np.linalg.norm(P)):
            return 0.5 * (P + P.T)
    raise NonConvergenceError(
        f"Riccati fixed point not converged after {max_iterations} iterations")


def kalman_gain(P: np.ndarray, A: np.ndarray, C: np.ndarray, R: np.ndarray) -> KalmanGain:
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
    return KalmanGain(K, np.asarray(P, dtype=float))


@functools.lru_cache(maxsize=64)
def _axis_solution(ts: float, ratio: float) -> tuple[float, float, np.ndarray]:
    """Per-axis 2x2 steady-state solution: gains (k1, k2) and covariance."""
    if not ratio > 0.0:
        raise DomainError(f"noise variance ratio must be positive, got {ratio}")
    A = np.array([[1.0, ts], [0.0, 1.0]])
    B = np.array([[0.0], [ts]])
    C = np.array([[1.0, 0.0]])
    P = solve_dare(A, B, C, np.array([[ratio]]), np.array([[1.0]]))
    K = kalman_gain(P, A, C, np.array([[1.0]])).gain
    return float(K[0, 0]), float(K[1, 0]), P


def steady_state_gain(tuning: KfTuning) -> KalmanGain:
    """Assemble the 6x3 gain and 6x6 covariance from per-axis solutions.

    The axes are decoupled with diagonal noise, so each axis is solved as
    its own 2x2 problem and scattered back into the stacked layout.
    """
    K = np.zeros((6, 3))
    P = np.zeros((6, 6))
    for axis in range(3):
        k1, k2, P2 = _axis_solution(float(tuning.ts), float(tuning.ratios[axis]))
        K[axis, axis] = k1
        K[axis + 3, axis] = k2
        P[axis, axis] = P2[0, 0]
        P[axis, axis + 3] = P2[0, 1]
        P[axis + 3, axis] = P2[1, 0]
        P[axis + 3, axis + 3] = P2[1, 1]
    return KalmanGain(K, P)


def time_update(state: KinematicState, a_g, ts: float) -> None:
    """Advance the state one sample under acceleration ``a_g``, in place.

    Per axis, ``p += ts * v`` then ``v += ts * a``: the stacked form
    ``x <- A x + B a`` exactly, since position uses the pre-update
    velocity.
    """
    p, v = state
    ax, ay, az = a_g
    p[0] += ts * v[0]
    p[1] += ts * v[1]
    p[2] += ts * v[2]
    v[0] += ts * ax
    v[1] += ts * ay
    v[2] += ts * az


def measurement_update(state: KinematicState, p_meas, gains,
                       axes: tuple[int, ...] = (0, 1, 2)) -> None:
    """Correct a predicted state with a position measurement, in place.

    Parameters
    ----------
    state : KinematicState
        Predicted state.
    p_meas : sequence of float, length 3
        Measured position in ``G``; components outside ``axes`` are ignored.
    gains : sequence of (float, float)
        Per-axis ``(k1, k2)``, e.g. :attr:`KalmanGain.axis_gains` of the
        gain from :func:`steady_state_gain`.
    axes : tuple of int, optional
        Position components present in this measurement (e.g. ``(2,)`` for
        a barometric sample); all three by default.

    Each listed axis is corrected on its own, ``e = z - p``,
    ``p += k1 * e``, ``v += k2 * e``, because the per-axis gains are
    decoupled; the other axes are left untouched, so a non-finite
    component cannot leak into them.
    """
    p, v = state
    for axis in axes:
        k1, k2 = gains[axis]
        e = p_meas[axis] - p[axis]
        p[axis] += k1 * e
        v[axis] += k2 * e


def kf_frequency_response(tuning: KfTuning, axis: int,
                          freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes of the filter's two input channels for one axis.

    The corrected estimate obeys

        xhat(k) = (I - K C) A xhat(k-1) + (I - K C) B a(k) + K y(k)

    and this returns ``(|F_a|, |F_y|)``, the magnitude responses from the
    acceleration input and from the position measurement to the position
    estimate, evaluated at ``z = exp(j 2 pi f Ts)``.

    Parameters
    ----------
    tuning : KfTuning
        Sample time and noise ratios.
    axis : int
        Axis index 0..2.
    freqs : array_like
        Frequencies in Hz, each in (0, 1/(2 Ts)).

    Raises
    ------
    DomainError
        If a frequency lies outside the open interval up to Nyquist.
    """
    ts = float(tuning.ts)
    nyquist = 0.5 / ts
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0.0) or np.any(freqs >= nyquist):
        raise DomainError(f"frequencies must lie in (0, {nyquist}) Hz")
    k1, k2, _ = _axis_solution(ts, float(tuning.ratios[axis]))
    # (I - K C) A and (I - K C) B for the single axis.
    a00, a01 = 1.0 - k1, (1.0 - k1) * ts
    a10, a11 = -k2, 1.0 - k2 * ts
    bu0, bu1 = 0.0, ts
    mag_u = np.empty_like(freqs)
    mag_y = np.empty_like(freqs)
    for i, f in enumerate(freqs):
        z = complex(math.cos(2 * math.pi * f * ts), math.sin(2 * math.pi * f * ts))
        det = (z - a00) * (z - a11) - a01 * a10
        mag_u[i] = abs(z * ((z - a11) * bu0 + a01 * bu1) / det)
        mag_y[i] = abs(z * ((z - a11) * k1 + a01 * k2) / det)
    return mag_u, mag_y
