"""Attitude representation and strapdown helpers.

Quaternions are unit length, scalar first: ``q = [q1, q2, q3, q4]`` with
``q1`` the scalar part.  ``quat_to_rot`` maps body (``K``) coordinates to
NED coordinates; the wing body frame has ``K_x`` out the nose, ``K_z``
through the belly.  Body angular rates are ``[wx, wy, wz]`` in rad/s about
the body axes.

The onboard unit fuses its own gyro and accelerometer into the attitude
quaternion; this package consumes that quaternion as a measurement and only
needs the kinematic relations below.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

#: Standard gravity in m/s^2 used to restore the gravitational acceleration
#: that an accelerometer does not sense.
GRAVITY = 9.80665

_UNIT_NORM_TOL = 1e-6


def _check_unit(q) -> None:
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if abs(n - 1.0) > _UNIT_NORM_TOL:
        raise DomainError(f"quaternion norm {n} departs from 1 beyond {_UNIT_NORM_TOL}")


def _check_units(q: np.ndarray) -> None:
    """:func:`_check_unit` for every row of an (n, 4) stack."""
    norms = np.sqrt(np.sum(q * q, axis=-1))
    bad = np.abs(norms - 1.0) > _UNIT_NORM_TOL
    if bad.any():
        raise DomainError(
            f"quaternion norm {norms[bad][0]} departs from 1 beyond {_UNIT_NORM_TOL}")


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from body to NED coordinates.

    Parameters
    ----------
    q : array_like, shape (4,)
        Unit attitude quaternion, scalar first.

    Returns
    -------
    numpy.ndarray, shape (3, 3)
        Proper rotation matrix; columns are the body axes in NED.

    Raises
    ------
    DomainError
        If the quaternion norm departs from 1 by more than 1e-6.
    """
    _check_unit(q)
    q1, q2, q3, q4 = (float(c) for c in q)
    return np.array([
        [2.0 * (q1 * q1 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q1 * q4), 2.0 * (q2 * q4 + q1 * q3)],
        [2.0 * (q2 * q3 + q1 * q4), 2.0 * (q1 * q1 + q3 * q3) - 1.0, 2.0 * (q3 * q4 - q1 * q2)],
        [2.0 * (q2 * q4 - q1 * q3), 2.0 * (q3 * q4 + q1 * q2), 2.0 * (q1 * q1 + q4 * q4) - 1.0],
    ])


def quats_to_rots(q: np.ndarray) -> np.ndarray:
    """:func:`quat_to_rot` for a stack of quaternions, shape (n, 4);
    returns shape (n, 3, 3), equal bit for bit to the per-row results."""
    q = np.asarray(q, dtype=float)
    _check_units(q)
    q1, q2, q3, q4 = q.T
    return np.stack([
        2.0 * (q1 * q1 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q1 * q4), 2.0 * (q2 * q4 + q1 * q3),
        2.0 * (q2 * q3 + q1 * q4), 2.0 * (q1 * q1 + q3 * q3) - 1.0, 2.0 * (q3 * q4 - q1 * q2),
        2.0 * (q2 * q4 - q1 * q3), 2.0 * (q3 * q4 + q1 * q2), 2.0 * (q1 * q1 + q4 * q4) - 1.0,
    ], axis=-1).reshape(-1, 3, 3)


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (scalar first, scalar part >= 0) of a rotation matrix.

    Inverse of :func:`quat_to_rot` up to the quaternion sign ambiguity.
    Uses the largest of the four squared components as pivot for numerical
    robustness.  Takes one matrix, shape (3, 3), or a stack, shape
    (n, 3, 3), and returns shape (4,) or (n, 4) to match.
    """
    R = np.asarray(R, dtype=float)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R.reshape(-1, 9).T
    t = r00 + r11 + r22
    case = np.argmax(np.stack([t, r00, r11, r22]), axis=0)
    # Per pivot component: the radicand of s = 2 sqrt(.) and the
    # numerators over s of the four components (None marks the pivot).
    x12, x13, x14 = r21 - r12, r02 - r20, r10 - r01
    x23, x24, x34 = r01 + r10, r02 + r20, r12 + r21
    pivots = ((1.0 + t, (None, x12, x13, x14)),
              (1.0 + r00 - r11 - r22, (x12, None, x23, x24)),
              (1.0 - r00 + r11 - r22, (x13, x23, None, x34)),
              (1.0 - r00 - r11 + r22, (x14, x24, x34, None)))
    q = np.empty((len(t), 4))
    for k, (radicand, numerators) in enumerate(pivots):
        rows = case == k
        s = np.sqrt(radicand[rows]) * 2.0
        for j, num in enumerate(numerators):
            q[rows, j] = 0.25 * s if num is None else num[rows] / s
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    q[q[:, 0] < 0.0] *= -1.0
    return q.reshape(R.shape[:-2] + (4,))


def quat_derivative(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quaternion time derivative for body rates ``w``.

    Evaluates ``0.5 * Omega(w) @ q`` where ``Omega`` is the linear map of
    the quaternion kinematic equation used throughout this package.
    """
    _check_unit(q)
    q1, q2, q3, q4 = (float(c) for c in q)
    wx, wy, wz = (float(c) for c in w)
    return 0.5 * np.array([
        -wx * q2 - wy * q3 - wz * q4,
        wx * q1 - wz * q3 + wy * q4,
        wy * q1 + wz * q2 - wx * q4,
        wz * q1 - wy * q2 + wx * q3,
    ])


def quat_propagate(q: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """Propagate a quaternion over ``dt`` under constant body rates.

    Uses the closed-form matrix exponential of the kinematic equation,
    ``q(t+dt) = (cos(a) I + sin(a)/|w| Omega(w)) q(t)`` with
    ``a = |w| dt / 2``, which is exact for constant rates and preserves the
    unit norm; the result is renormalised to shed rounding residue.

    Parameters
    ----------
    q : array_like, shape (4,)
        Unit attitude quaternion, scalar first.
    w : array_like, shape (3,)
        Body rates in rad/s, held constant over the step.
    dt : float
        Step length in s.

    Returns
    -------
    numpy.ndarray, shape (4,)
        Unit quaternion after the step.
    """
    _check_unit(q)
    wx, wy, wz = (float(c) for c in w)
    n = math.sqrt(wx * wx + wy * wy + wz * wz)
    if n == 0.0:
        return np.asarray(q, dtype=float).copy()
    a = 0.5 * n * dt
    c = math.cos(a)
    s = math.sin(a) / n
    q1, q2, q3, q4 = (float(cmp) for cmp in q)
    out = np.array([
        c * q1 + s * (-wx * q2 - wy * q3 - wz * q4),
        c * q2 + s * (wx * q1 - wz * q3 + wy * q4),
        c * q3 + s * (wy * q1 + wz * q2 - wx * q4),
        c * q4 + s * (wz * q1 - wy * q2 + wx * q3),
    ])
    return out / math.sqrt(out @ out)


def body_rates_between(q0: np.ndarray, q1: np.ndarray, dt: float) -> np.ndarray:
    """Constant body rates that carry ``q0`` to ``q1`` in one step of ``dt``.

    Exact inverse of :func:`quat_propagate`; the two quaternions must be on
    the same sign branch (``q0 . q1 >= 0``) for the short-way rotation.
    Takes one pair, shape (4,), or stacks of pairs, shape (n, 4), and
    returns shape (3,) or (n, 3) to match.
    """
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    shape = q0.shape[:-1] + (3,)
    q0, q1 = q0.reshape(-1, 4), q1.reshape(-1, 4)
    _check_units(q0)
    _check_units(q1)
    if dt <= 0.0:
        raise DomainError(f"step length must be positive, got {dt}")
    c = (q0[:, None, :] @ q1[:, :, None])[:, 0, 0]
    d0, d1, d2, d3 = (q1 - c[:, None] * q0).T
    w0, x0, y0, z0 = q0.T
    # Project the residual on the three rate directions of the kinematic
    # map; d lies in their span because it is orthogonal to q0.
    e = np.stack([
        -x0 * d0 + w0 * d1 - z0 * d2 + y0 * d3,
        -y0 * d0 + z0 * d1 + w0 * d2 - x0 * d3,
        -z0 * d0 - y0 * d1 + x0 * d2 + w0 * d3,
    ], axis=-1)
    sin_a = np.sqrt(e[:, None, :] @ e[:, :, None])[:, 0, 0]
    scale = np.full(len(e), 2.0 / dt)
    turned = sin_a >= 1e-15
    # math.atan2 per element: numpy's arctan2 can differ in the last bit.
    a = np.array(list(map(math.atan2, sin_a[turned].tolist(), c[turned].tolist())))
    scale[turned] = 2.0 * a / (dt * sin_a[turned])
    return (e * scale[:, None]).reshape(shape)


def accel_to_inertial(a_k: np.ndarray, q: np.ndarray, phi_g: float) -> np.ndarray:
    """Inertial acceleration in ``G`` from body-frame specific force.

    Rotates the accelerometer reading into ``G`` through NED and restores
    gravity.  A wing at rest with ``K`` aligned to NED reads
    ``[0, 0, GRAVITY]`` and maps to zero inertial acceleration.

    Parameters
    ----------
    a_k : array_like, shape (3,)
        Specific force in body coordinates in m/s^2.
    q : array_like, shape (4,)
        Unit attitude quaternion (body to NED), scalar first.
    phi_g : float
        Heading of the downwind axis from north in rad.

    Returns
    -------
    numpy.ndarray, shape (3,)
        Acceleration of the wing in ``G`` in m/s^2.
    """
    return np.array(inertial_accel(a_k, q, math.cos(phi_g), math.sin(phi_g)))


def inertial_accel(a_k, q, cos_g: float, sin_g: float) -> tuple[float, float, float]:
    """:func:`accel_to_inertial` on plain floats, for a heading given by
    its cosine and sine so that a caller with a fixed heading computes
    them once.

    ``a_k`` and ``q`` are sequences of 3 and 4 floats.  The rotations are
    summed term by term, so the result can differ from the matrix
    products of :func:`quat_to_rot` and :func:`~kitefusion.frames.rot_ned_to_g`
    in the last bits.

    Raises
    ------
    DomainError
        If the quaternion norm departs from 1 by more than 1e-6.
    """
    _check_unit(q)
    ax, ay, az = a_k
    q1, q2, q3, q4 = q
    # The rows of quat_to_rot(q) applied to a_k: NED components.
    north = ((2.0 * (q1 * q1 + q2 * q2) - 1.0) * ax + 2.0 * (q2 * q3 - q1 * q4) * ay
             + 2.0 * (q2 * q4 + q1 * q3) * az)
    east = (2.0 * (q2 * q3 + q1 * q4) * ax + (2.0 * (q1 * q1 + q3 * q3) - 1.0) * ay
            + 2.0 * (q3 * q4 - q1 * q2) * az)
    down = (2.0 * (q2 * q4 - q1 * q3) * ax + 2.0 * (q3 * q4 + q1 * q2) * ay
            + (2.0 * (q1 * q1 + q4 * q4) - 1.0) * az)
    # rot_ned_to_g(phi_g) applied to them, with gravity restored.
    return cos_g * north + sin_g * east, sin_g * north - cos_g * east, GRAVITY - down
