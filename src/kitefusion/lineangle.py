"""Line-angle sensing: two encoders watching the direction of the tether.

The mechanism is a light arm that the center line drags along as the wing
moves.  An azimuth encoder reads the arm's rotation ``phi_b`` about the
vertical axis and an elevation encoder reads the arm's tilt ``theta_b``
about the horizontal pivot.  The line runs through a guide at the arm tip,
offset from the pivot, and the pivot itself is offset from the point the
wing angles are referred to, so recovering the wing elevation and azimuth
takes the small geometry correction implemented here.

With zero offsets (guide on the pivot axis, pivot on the reference origin)
the encoders read the wing angles directly.

A reading is the pair ``(theta_b, phi_b)`` of arm angles in rad, a tuple
of two Python floats as :func:`angles_to_encoder` returns it and a
frame's ``encoder`` channel holds it.

The tether leaves the reference origin toward the guide, so the guide's
position seen from the origin gives both :func:`encoder_to_angles` and,
scaled to the tether length, routing 3's position fix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Annotated

import numpy as np

from .errors import (DegenerateInputError, Domain, DomainError, as_real, as_reals, is_real,
                     require_finite, require_positive)
from .frames import _libm

#: Encoder line count used when none is configured (resolution 2*pi/400).
DEFAULT_COUNTS_PER_REV = 400


@dataclass(frozen=True)
class EncoderGeometry:
    """Mounting geometry of the line-angle mechanism, in metres.

    Attributes
    ----------
    guide_rise : float
        Offset of the line guide from the arm axis, perpendicular to it.
    guide_reach : float
        Offset of the line guide along the arm axis, from the pivot.
    pivot_height : float
        Height of the elevation pivot above the reference origin.
    pivot_setback : float
        Horizontal offset of the reference origin ahead of the pivot.

    The defaults are plausible bench values for a small ground unit; they
    are placeholders to be replaced by measurements of the actual build.
    Every field must be finite, and the guide offsets not negative, as
    their annotations declare (see
    :func:`~kitefusion.errors.require_finite`); a ``DomainError`` names
    the first field that is not, and then a guide on the pivot.  The
    fields are kept as Python floats, whatever real type was given.
    The pivot offsets are kept small relative to the arm length so that
    one encoder count maps to at most about one count of wing-angle
    error; large offsets amplify the quantization.
    """

    guide_rise: Annotated[float, Domain.NOT_NEGATIVE] = 0.10
    guide_reach: Annotated[float, Domain.NOT_NEGATIVE] = 0.30
    pivot_height: float = 0.02
    pivot_setback: float = 0.02

    def __post_init__(self):
        require_finite(self)
        if self.guide_rise == 0.0 and self.guide_reach == 0.0:
            raise DomainError("line guide cannot sit on the elevation pivot")

    @functools.cached_property
    def guide_radius(self) -> float:
        """Distance from the elevation pivot to the line guide, m."""
        return math.hypot(self.guide_rise, self.guide_reach)

    @functools.cached_property
    def guide_angle(self) -> float:
        """Angle of the line guide above the arm axis, seen from the pivot, rad."""
        return math.atan2(self.guide_rise, self.guide_reach)


def resolution(counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> float:
    """Angular size of one encoder count in rad, for a positive integer
    count (a numpy integer included); ``DomainError`` names any other."""
    require_positive("counts_per_rev", counts_per_rev)
    if not isinstance(counts_per_rev, Integral):
        raise DomainError(f"counts_per_rev must be an integer, got {counts_per_rev}")
    return 2.0 * math.pi / counts_per_rev


def encoder_to_angles(reading: tuple[float, float],
                      geometry: EncoderGeometry) -> tuple[float, float]:
    """Wing elevation and azimuth from raw encoder angles.

    Locates the line guide in space from the arm angles, shifts it by the
    mounting offsets (:func:`_guide_point`) and reads off the direction
    from the reference origin to the guide, which is the direction of the
    departing tether.

    Parameters
    ----------
    reading : pair of float
        Arm elevation and azimuth ``(theta_b, phi_b)`` in rad.
    geometry : EncoderGeometry
        Mounting geometry of the mechanism.

    Returns
    -------
    (theta, phi) : tuple of float
        Wing elevation and azimuth in rad, azimuth in [-pi, pi] as
        ``atan2`` gives it.

    Raises
    ------
    DomainError
        If ``reading`` is not two real numbers or an arm angle is not
        finite.
    DegenerateInputError
        If the guide lands exactly on the vertical axis through the origin,
        where the azimuth is undefined.
    """
    theta_b, phi_b = as_reals("reading", reading, 2)
    if not (math.isfinite(theta_b) and math.isfinite(phi_b)):
        raise DomainError(f"encoder reading {reading} is not finite")
    fwd, side, up = _guide_point(theta_b, phi_b, _mount(geometry))
    ground = math.hypot(fwd, side)
    if ground == 0.0:
        raise DegenerateInputError("tether direction is vertical, azimuth undefined")
    return math.atan(up / ground), math.atan2(side, fwd)


def _mount(geometry: EncoderGeometry) -> tuple[float, float, float, float]:
    """The constants :func:`_guide_point` reads: guide radius and angle,
    pivot setback and height."""
    g = geometry
    return g.guide_radius, g.guide_angle, g.pivot_setback, g.pivot_height


def _guide_point(theta_b: float, phi_b: float, mount) -> tuple[float, float, float]:
    """The line guide seen from the reference origin, ``(fwd, side, up)``
    in metres, for the arm angles on the constants ``mount`` of
    :func:`_mount`, which a caller stepping many readings binds once.  The
    tether leaves the origin along this vector.  An infinite angle raises
    math's ``ValueError``; a NaN one gives NaN ``fwd`` and ``side``."""
    reach, guide_angle, setback, pivot_height = mount
    elev = theta_b - guide_angle
    horiz = reach * math.cos(elev)
    return (horiz * math.cos(phi_b) - setback, horiz * math.sin(phi_b),
            reach * math.sin(elev) + pivot_height)


def angles_to_encoder(theta: float, phi: float, geometry: EncoderGeometry,
                      counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> tuple[float, float]:
    """Arm angles ``(theta_b, phi_b)`` in rad, as Python floats, that the
    mechanism shows for wing angles (theta, phi).

    Inverts :func:`encoder_to_angles` in closed form.  The line guide
    lies on a sphere of radius ``hypot(guide_rise, guide_reach)`` about
    the pivot, and the tether leaves the reference origin along the unit
    ray of (theta, phi), so the guide sits where that ray meets the
    sphere: a quadratic in the distance along the ray.  When the origin
    lies outside the sphere the ray can cross it twice; the far crossing
    is taken.  The solution is then rounded to the encoder grid.

    Parameters
    ----------
    theta, phi : float
        Wing elevation and azimuth in rad.
    geometry : EncoderGeometry
        Mounting geometry of the mechanism.
    counts_per_rev : int
        Encoder line count for the final rounding; the integer ``0`` (ideal
        readings, as in ``NoiseSpec``) returns the unrounded solution,
        azimuth in [-pi, pi] as ``atan2`` gives it.

    Raises
    ------
    DomainError
        If ``counts_per_rev`` is neither 0 nor a positive integer, if an
        angle is not a finite real number, or if the ray misses the guide
        sphere or meets it only behind the origin, i.e. the wing angles are
        outside the mechanism's reachable set.
    """
    theta, phi = as_real("theta", theta), as_real("phi", phi)
    row = _angles_to_encoders(np.array([theta]), np.array([phi]), geometry, counts_per_rev)[0]
    return tuple(row.tolist())


def _angles_to_encoders(theta, phi, geometry: EncoderGeometry,
                        counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> np.ndarray:
    """:func:`angles_to_encoder` of each pair ``(theta[k], phi[k])`` of two
    float arrays, in one array pass, as a float array of shape (n, 2)
    whose row ``k`` is the reading ``(theta_b, phi_b)`` of pair ``k``.

    The sums, products, quotients and square roots are numpy's, which
    round like Python floats; sine, cosine, ``atan2`` and ``hypot`` are
    libm's, element by element (:func:`~kitefusion.frames._libm`).  The
    line count is checked before any pair; then the first pair refused
    (an angle not finite, or out of reach) raises its ``DomainError``.
    """
    g = geometry
    # Only an integer 0 asks for ideal readings: 0.0 and False are refused.
    ideal = isinstance(counts_per_rev, Integral) and is_real(counts_per_rev) and not counts_per_rev
    step = None if ideal else resolution(counts_per_rev)
    finite = np.isfinite(theta) & np.isfinite(phi)
    # Refused pairs are zeroed, so that libm sees finite angles only.
    theta_f, phi_f = np.where(finite, theta, 0.0), np.where(finite, phi, 0.0)
    cos_t = _libm(math.cos, theta_f)
    ux, uy = cos_t * _libm(math.cos, phi_f), cos_t * _libm(math.sin, phi_f)
    uz = _libm(math.sin, theta_f)
    # The reference origin sits at (pivot_setback, 0, -pivot_height) from
    # the pivot; solve |origin + lam * u| = reach for the far root lam.
    b = g.pivot_setback * ux - g.pivot_height * uz
    disc = (b * b - g.pivot_setback * g.pivot_setback - g.pivot_height * g.pivot_height
            + g.guide_rise * g.guide_rise + g.guide_reach * g.guide_reach)
    reach = disc >= 0.0
    lam = np.where(reach, -b + np.sqrt(np.where(reach, disc, 0.0)), -1.0)
    refused = np.flatnonzero(~finite | ~(lam > 0.0))
    if refused.size:
        k = refused[0]
        fault = "are outside the reachable set" if finite[k] else "are not finite"
        raise DomainError(f"wing angles theta={theta[k]}, phi={phi[k]} {fault}")
    fwd = g.pivot_setback + lam * ux
    side = lam * uy
    up = lam * uz - g.pivot_height
    theta_b = _libm(math.atan2, up, _libm(math.hypot, fwd, side)) + g.guide_angle
    phi_b = _libm(math.atan2, side, fwd)
    if step is not None:
        # round() then a float product: rint rounds half to even as
        # round() does, and adding 0.0 turns the -0.0 that rint keeps
        # into round()'s 0.
        theta_b = (np.rint(theta_b / step) + 0.0) * step
        phi_b = (np.rint(phi_b / step) + 0.0) * step
    return np.stack([theta_b, phi_b], axis=-1)
