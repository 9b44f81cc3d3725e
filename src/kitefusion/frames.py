"""Coordinate frames and transforms for tethered-wing flight.

Three right-handed frames are used throughout the package:

* ``G``   inertial ground frame, origin at the ground unit, ``X`` pointing
          downwind, ``Z`` up.
* ``L``   local frame attached to the wing position on the sphere of radius
          ``r`` centred at the ground unit: axes (local north, local east,
          local down), with local down pointing back at the ground unit.
* ``NED`` north-east-down navigation frame of the onboard attitude sensor.

The wing position is parameterised by the elevation ``theta`` (positive
above the horizon), the azimuth ``phi`` (zero downwind, positive toward
``+Y``) and the line length ``r``.  Angles are radians, lengths metres.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, DomainError

# Relative slack on |p_z| <= r before an elevation is considered out of
# domain; admits floating-point excursions of on-sphere points.
Z_OVER_R_TOL = 1e-9

TWO_PI = 2.0 * math.pi


def wrap_angle(angle):
    """Wrap an angle (scalar or ndarray) to the interval (-pi, pi]."""
    # The isinstance test (true for numpy.float64 too) spares the per-tick
    # callers the cost of np.ndim.
    if isinstance(angle, float) or np.ndim(angle) == 0:
        return math.pi - (math.pi - float(angle)) % TWO_PI
    return math.pi - np.mod(math.pi - np.asarray(angle, dtype=float), TWO_PI)


def spherical_to_cartesian(theta: float, phi: float, r: float) -> np.ndarray:
    """Cartesian position in ``G`` of a point on the flight sphere.

    Parameters
    ----------
    theta : float
        Elevation in rad, in [-pi/2, pi/2].
    phi : float
        Azimuth in rad.
    r : float
        Sphere radius (line length) in m, > 0.

    Returns
    -------
    numpy.ndarray, shape (3,)
        ``[r cos(theta) cos(phi), r cos(theta) sin(phi), r sin(theta)]``.

    Raises
    ------
    DomainError
        If ``r`` is not positive or ``theta`` lies outside [-pi/2, pi/2].
    """
    if not r > 0.0:
        raise DomainError(f"sphere radius must be positive, got {r}")
    if not abs(theta) <= math.pi / 2.0:
        raise DomainError(f"elevation out of [-pi/2, pi/2]: {theta}")
    ct = math.cos(theta)
    return np.array([r * ct * math.cos(phi), r * ct * math.sin(phi), r * math.sin(theta)])


def cartesian_to_spherical(p: np.ndarray, r: float) -> tuple[float, float]:
    """Elevation and azimuth of a position on (or near) the flight sphere.

    The elevation is ``arcsin(p_z / r)`` and the azimuth ``atan2(p_y, p_x)``,
    so only ``p_z`` has to be consistent with ``r``; the horizontal
    components may lie off the sphere.

    Parameters
    ----------
    p : array_like, shape (3,)
        Position in ``G`` in m.
    r : float
        Sphere radius in m, > 0.

    Returns
    -------
    (theta, phi) : tuple of float
        Elevation in [-pi/2, pi/2] and azimuth in (-pi, pi].

    Raises
    ------
    DomainError
        If ``|p_z|`` exceeds ``r`` by more than the relative tolerance
        ``Z_OVER_R_TOL``.
    DegenerateInputError
        If ``p_x = p_y = 0`` (azimuth undefined on the zenith axis).
    """
    if not r > 0.0:
        raise DomainError(f"sphere radius must be positive, got {r}")
    px, py, pz = float(p[0]), float(p[1]), float(p[2])
    ratio = pz / r
    if abs(ratio) > 1.0 + Z_OVER_R_TOL:
        raise DomainError(f"|p_z| = {abs(pz)} exceeds sphere radius {r}")
    if px == 0.0 and py == 0.0:
        raise DegenerateInputError("azimuth undefined for a point on the zenith axis")
    ratio = max(-1.0, min(1.0, ratio))
    return math.asin(ratio), math.atan2(py, px)


def rot_g_to_l(theta: float, phi: float) -> np.ndarray:
    """Rotation matrix taking ``G`` coordinates to local (N, E, D) coordinates.

    Rows are the local axes expressed in ``G``: local north points along
    increasing elevation, local east along increasing azimuth, local down
    from the wing position back to the ground unit, so that
    ``rot_g_to_l(theta, phi) @ spherical_to_cartesian(theta, phi, r)``
    equals ``[0, 0, -r]``.

    Parameters
    ----------
    theta, phi : float
        Elevation and azimuth in rad.

    Returns
    -------
    numpy.ndarray, shape (3, 3)
        Proper rotation matrix (orthonormal, det +1).
    """
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    return np.array([
        [-st * cp, -st * sp, ct],
        [-sp, cp, 0.0],
        [-cp * ct, -sp * ct, -st],
    ])


def rot_ned_to_g(phi_g: float) -> np.ndarray:
    """Rotation matrix taking NED coordinates to ``G`` coordinates.

    ``phi_g`` is the heading of the ``G`` frame's ``X`` axis (the downwind
    direction) measured from geographic north.  The matrix is symmetric and
    self-inverse, so it also takes ``G`` to NED.
    """
    sp, cp = math.sin(phi_g), math.cos(phi_g)
    return np.array([
        [cp, sp, 0.0],
        [sp, -cp, 0.0],
        [0.0, 0.0, -1.0],
    ])


def velocity_angle(v_l: np.ndarray) -> float:
    """Velocity angle of a wing velocity expressed in the local frame.

    The velocity angle is the heading of the velocity on the tangent plane:
    0 toward local north (climbing), pi/2 toward local east.  It is the
    feedback variable used for figure-eight path control.

    Parameters
    ----------
    v_l : array_like, shape (3,)
        Velocity in the local frame in m/s; only the first two components
        (north, east) enter.

    Returns
    -------
    float
        ``atan2(v_east, v_north)`` in (-pi, pi].

    Raises
    ------
    DegenerateInputError
        If both tangent components are exactly zero.
    """
    vn, ve = float(v_l[0]), float(v_l[1])
    if vn == 0.0 and ve == 0.0:
        raise DegenerateInputError("velocity angle undefined for zero tangent velocity")
    return math.atan2(ve, vn)
