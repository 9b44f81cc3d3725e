"""Attitude representation and the kinematic relations the package uses.

Quaternions are unit length, scalar first: ``q = [q1, q2, q3, q4]`` with
``q1`` the scalar part.  ``quats_to_rots`` maps body (``K``) coordinates to
NED coordinates; the wing body frame has ``K_x`` out the nose, ``K_z``
through the belly.  Body angular rates are ``[wx, wy, wz]`` in rad/s about
the body axes.

The onboard unit fuses its own gyro and accelerometer into the attitude
quaternion; this package consumes that quaternion as a measurement and does
not integrate the gyro.  It only needs the relations below: rotation
matrices, body rates between successive attitudes, and the inertial
acceleration from the specific force.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_positive
from .frames import _libm

#: Standard gravity in m/s^2 used to restore the gravitational acceleration
#: that an accelerometer does not sense.
GRAVITY = 9.80665

_UNIT_NORM_TOL = 1e-6


def _norm_error(norm: float) -> DomainError:
    """The error for a quaternion of norm ``norm``, more than 1e-6 from 1 or nan."""
    return DomainError(f"quaternion norm {norm} departs from 1 beyond {_UNIT_NORM_TOL}")


def _check_units(q: np.ndarray) -> None:
    """Refuse an (n, 4) stack with a row whose norm departs from 1."""
    norms = np.sqrt(np.sum(q * q, axis=-1))
    bad = ~(np.abs(norms - 1.0) <= _UNIT_NORM_TOL)
    if bad.any():
        raise _norm_error(norms[bad][0])


def quats_to_rots(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from body to NED coordinates, shape (n, 3, 3), of
    unit quaternions (scalar first) stacked as shape (n, 4); the columns
    are the body axes in NED.  Raises ``DomainError`` if a norm departs
    from 1 by more than 1e-6 or is nan."""
    q = np.asarray(q, dtype=float)
    _check_units(q)
    q1, q2, q3, q4 = q.T
    return np.stack((
        2.0 * (q1 * q1 + q2 * q2) - 1.0, 2.0 * (q2 * q3 - q1 * q4), 2.0 * (q2 * q4 + q1 * q3),
        2.0 * (q2 * q3 + q1 * q4), 2.0 * (q1 * q1 + q3 * q3) - 1.0, 2.0 * (q3 * q4 - q1 * q2),
        2.0 * (q2 * q4 - q1 * q3), 2.0 * (q3 * q4 + q1 * q2), 2.0 * (q1 * q1 + q4 * q4) - 1.0,
    ), axis=-1).reshape(-1, 3, 3)


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternions (scalar first, scalar part >= 0) of rotation matrices.

    Inverse of :func:`quats_to_rots` up to the quaternion sign ambiguity.
    Uses the largest of the four squared components as pivot for numerical
    robustness.  Takes a stack of matrices, shape (n, 3, 3), and returns
    one quaternion per matrix, shape (n, 4).
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
    return q


def body_rates_between(q0: np.ndarray, q1: np.ndarray, dt: float) -> np.ndarray:
    """Constant body rates that carry ``q0`` to ``q1`` in one step of ``dt``.

    Exact inverse of propagation under constant rates, ``q1 = (cos(a) I +
    sin(a)/|w| Omega(w)) q0`` with ``a = |w| dt / 2`` and ``Omega`` the
    linear map of the quaternion kinematic equation.  The two quaternions
    must be on the same sign branch (``q0 . q1 >= 0``) for the short-way
    rotation.  Takes stacks of pairs, shape (n, 4) each, and returns one
    rate vector per pair, shape (n, 3); ``dt`` must be positive and finite.
    """
    q0 = np.asarray(q0, dtype=float).reshape(-1, 4)
    q1 = np.asarray(q1, dtype=float).reshape(-1, 4)
    _check_units(q0)
    _check_units(q1)
    require_positive("dt", dt)
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
    a = _libm(math.atan2, sin_a[turned], c[turned])
    scale[turned] = 2.0 * a / (dt * sin_a[turned])
    return e * scale[:, None]


def inertial_accel(a_k, q, cos_g: float, sin_g: float) -> tuple[float, float, float]:
    """Inertial acceleration in ``G`` from body-frame specific force.

    Rotates the accelerometer reading into ``G`` through NED and restores
    gravity: a wing at rest with ``K`` aligned to NED reads
    ``[0, 0, GRAVITY]`` and maps to zero.  The heading ``phi_g`` of the
    downwind axis from north is given by its cosine and sine, so that a
    caller with a fixed heading computes them once.

    ``a_k`` and ``q`` are sequences of 3 and 4 floats.  The rotation to
    NED is taken in quaternion form, ``R(q) a = (2 q1^2 - 1) a +
    2 (u . a) u + 2 q1 (u x a)`` with ``u = (q2, q3, q4)``: 33 float
    operations where the nine entries of :func:`quats_to_rots` and their
    products take 54.  The identity holds term by term for any ``q``, unit
    or not, so the result equals ``quats_to_rots([q])[0] @ a_k`` turned by
    :func:`~kitefusion.frames.rot_ned_to_g` up to rounding, in the last
    bits.

    Raises
    ------
    DomainError
        If the quaternion norm departs from 1 by more than 1e-6 or is nan.
    """
    q1, q2, q3, q4 = q
    n = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4)
    if not abs(n - 1.0) <= _UNIT_NORM_TOL:
        raise _norm_error(n)
    ax, ay, az = a_k
    # NED components: c a + d u + w (u x a), c = 2 q1^2 - 1, d = 2 (u . a), w = 2 q1.
    w = q1 + q1
    c = w * q1 - 1.0
    d = 2.0 * (q2 * ax + q3 * ay + q4 * az)
    north = c * ax + d * q2 + w * (q3 * az - q4 * ay)
    east = c * ay + d * q3 + w * (q4 * ax - q2 * az)
    down = c * az + d * q4 + w * (q2 * ay - q3 * ax)
    # rot_ned_to_g(phi_g) applied to them, with gravity restored.
    return cos_g * north + sin_g * east, sin_g * north - cos_g * east, GRAVITY - down


def _inertial_accels(a_k: np.ndarray, q: np.ndarray, cos_g: float, sin_g: float):
    """:func:`inertial_accel` of every row of the float stacks ``a_k``,
    shape (n, 3), and ``q``, shape (n, 4), bit for bit, as three columns
    ``(x, y, z)`` of n floats each: its quaternion-form expression in its
    order, on columns, which numpy rounds like Python floats.  The norm
    check is :func:`_check_units`, so a ``DomainError`` carries the
    message :func:`inertial_accel` raises at the first bad row."""
    _check_units(q)
    q1, q2, q3, q4 = q.T
    ax, ay, az = a_k.T
    w = q1 + q1
    c = w * q1 - 1.0
    d = 2.0 * (q2 * ax + q3 * ay + q4 * az)
    north = c * ax + d * q2 + w * (q3 * az - q4 * ay)
    east = c * ay + d * q3 + w * (q4 * ax - q2 * az)
    down = c * az + d * q4 + w * (q2 * ay - q3 * ax)
    return cos_g * north + sin_g * east, sin_g * north - cos_g * east, GRAVITY - down
