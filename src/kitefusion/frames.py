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

from .errors import DegenerateInputError, DomainError, as_real, as_reals, require_positive

# Relative slack on |p_z| <= r before an elevation is considered out of
# domain; admits floating-point excursions of on-sphere points.
Z_OVER_R_TOL = 1e-9

TWO_PI = 2.0 * math.pi


def _libm(func, *columns) -> np.ndarray:
    """``func`` of Python's ``math`` per element of the float ``columns``:
    numpy's own trig and powers can differ from libm in the last bit."""
    return np.array(list(map(func, *(column.tolist() for column in columns))))


def wrap_angle(angle):
    """Wrap an angle (scalar or ndarray) to the interval (-pi, pi].  A
    scalar, a real number or a 0-d array holding one, comes back as a
    Python float; ``DomainError`` names any other scalar."""
    if np.ndim(angle) == 0:
        angle = as_real("angle", angle[()] if isinstance(angle, np.ndarray) else angle)
        return math.pi - (math.pi - angle) % TWO_PI
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
        Sphere radius (line length) in m, positive and finite.

    Returns
    -------
    numpy.ndarray, shape (3,)
        ``[r cos(theta) cos(phi), r cos(theta) sin(phi), r sin(theta)]``.

    Raises
    ------
    DomainError
        If ``r`` is not positive and finite, ``theta`` or ``phi`` is not
        a real number, ``theta`` lies outside [-pi/2, pi/2] or ``phi`` is
        not finite.
    """
    require_positive("r", r)
    theta, phi = as_real("theta", theta), as_real("phi", phi)
    if not abs(theta) <= math.pi / 2.0:
        raise DomainError(f"elevation out of [-pi/2, pi/2]: {theta}")
    if not math.isfinite(phi):
        raise DomainError(f"azimuth must be finite, got {phi}")
    ct = math.cos(theta)
    return np.array([r * ct * math.cos(phi), r * ct * math.sin(phi), r * math.sin(theta)])


def cartesian_to_spherical(p: np.ndarray, r: float) -> tuple[float, float]:
    """Elevation and azimuth of a position on (or near) the flight sphere.

    The elevation is ``arcsin(p_z / r)`` and the azimuth ``atan2(p_y, p_x)``,
    so only ``p_z`` has to be consistent with ``r``; the horizontal
    components may lie off the sphere.

    Parameters
    ----------
    p : tuple, list or array of three floats
        Position in ``G`` in m.
    r : float
        Sphere radius in m, positive and finite.

    Returns
    -------
    (theta, phi) : tuple of float
        Elevation in [-pi/2, pi/2] and azimuth in [-pi, pi], as
        ``atan2`` gives it: -pi for a point on the negative x axis with
        ``p_y = -0.0`` or just below it.

    Raises
    ------
    DomainError
        If ``p`` is not three real numbers, ``r`` is not positive and
        finite, ``|p_z|`` exceeds ``r`` beyond the relative tolerance
        ``Z_OVER_R_TOL`` or a component is not finite.
    DegenerateInputError
        If ``p_x = p_y = 0`` (azimuth undefined on the zenith axis).
    """
    px, py, pz = as_reals("p", p, 3)
    theta = _elevation(pz, r)
    _horizontal(px, py)
    return theta, math.atan2(py, px)


def _elevation(z: float, r: float) -> float:
    """Elevation ``asin(z / r)`` of the height ``z``, with ``|z / r|`` up to
    ``1 + Z_OVER_R_TOL`` clamped to 1; ``DomainError`` for an ``r`` that is
    not positive and finite or any other ``z``, NaN included."""
    require_positive("r", r)
    ratio = z / r
    if not abs(ratio) <= 1.0 + Z_OVER_R_TOL:
        raise DomainError(f"height {z} gives no elevation on the sphere of radius {r}")
    return math.asin(max(-1.0, min(1.0, ratio)))


def _horizontal(x: float, y: float) -> float:
    """``hypot(x, y)``, which must be finite (``DomainError``) and not zero
    (``DegenerateInputError``) for the point to have an azimuth."""
    horizontal = math.hypot(x, y)
    if not math.isfinite(horizontal):
        raise DomainError(f"XY components {x}, {y} must be finite")
    if horizontal == 0.0:
        raise DegenerateInputError("azimuth undefined for a point on the zenith axis")
    return horizontal


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
