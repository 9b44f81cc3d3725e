"""Reference recursion for the estimator tests.

Verbatim copies of the per-tick helpers that ``EstimationPipeline.step``
used to call before it did their arithmetic inline: the per-axis time and
measurement updates on a ``KinematicState``, the velocity angle of a
local-frame and of a ground-frame velocity and the observer step.  The
property tests check these copies, and the pipeline oracle in
``test_pipelines.py`` is built from them, so ``step`` must reproduce them
bit for bit.

Also a verbatim copy of the scalar, one-pair-at-a-time encoder inversion
``angles_to_encoder`` and its rounding ``quantize``, from before the
inversion became the one-row call of its array form: the array form, and
the reference synthesizer in ``test_simkite.py``, are checked against it
reading by reading.

And routing 3's fix, the line guide seen from the reference origin and
scaled onto the sphere, written from the ``EncoderGeometry`` fields
alone: the pipeline oracle in ``test_pipelines.py`` runs it, so ``step``
must reproduce it bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from kitefusion.errors import DegenerateInputError, DomainError
from kitefusion.frames import wrap_angle
from kitefusion.lineangle import (
    DEFAULT_COUNTS_PER_REV,
    EncoderGeometry,
    EncoderReading,
    resolution,
)


class KinematicState(NamedTuple):
    """Estimated position and velocity in ``G``, metres and m/s: two lists
    of three floats each, which :func:`time_update` and
    :func:`measurement_update` change in place."""

    p: list[float]
    v: list[float]


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

    Each listed axis is corrected on its own, ``e = z - p``,
    ``p += k1 * e``, ``v += k2 * e``, with the per-axis ``(k1, k2)`` of
    ``gains``; the other axes are left untouched.
    """
    p, v = state
    for axis in axes:
        k1, k2 = gains[axis]
        e = p_meas[axis] - p[axis]
        p[axis] += k1 * e
        v[axis] += k2 * e


def velocity_angle(v_l) -> float:
    """Velocity angle of a wing velocity expressed in the local frame: the
    heading ``atan2(v_east, v_north)`` on the tangent plane, 0 toward local
    north (climbing), pi/2 toward local east.  Only the first two
    components enter.  Raises ``DegenerateInputError`` if both are
    exactly zero."""
    vn, ve = float(v_l[0]), float(v_l[1])
    if vn == 0.0 and ve == 0.0:
        raise DegenerateInputError("velocity angle undefined for zero tangent velocity")
    return math.atan2(ve, vn)


def gamma_unfiltered(v_hat, theta_hat: float, phi_hat: float) -> float:
    """Velocity angle implied by a ground-frame velocity at given sphere
    angles: the first two rows of ``rot_g_to_l`` applied to ``v_hat``,
    summed term by term.  Raises ``DegenerateInputError`` if both tangent
    components are exactly zero."""
    vx, vy, vz = v_hat
    st, ct = math.sin(theta_hat), math.cos(theta_hat)
    sp, cp = math.sin(phi_hat), math.cos(phi_hat)
    return velocity_angle((-st * cp * vx - st * sp * vy + ct * vz, -sp * vx + cp * vy))


def luenberger_step(obs_state, gamma_meas: float,
                    k_gamma: tuple[float, float], ts: float) -> tuple[float, float]:
    """One predictor-form step of the velocity-angle tracking observer:
    the angle integrates unwrapped while the innovation is wrapped.
    Returns the state predicted for the next sample."""
    angle, rate = obs_state
    innovation = wrap_angle(gamma_meas - angle)
    return angle + ts * rate + k_gamma[0] * innovation, rate + k_gamma[1] * innovation


def quantize(theta_b: float, phi_b: float,
             counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> EncoderReading:
    """Round arm angles to the nearest encoder count."""
    step = resolution(counts_per_rev)
    return EncoderReading(round(theta_b / step) * step, round(phi_b / step) * step)


def angles_to_encoder(theta: float, phi: float, geometry: EncoderGeometry,
                      counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> EncoderReading:
    """Arm angles that the mechanism shows for wing angles (theta, phi):
    the far crossing of the ray of (theta, phi) from the reference origin
    with the guide sphere about the pivot, rounded to the encoder grid
    unless ``counts_per_rev`` is 0.  ``DomainError`` where the ray misses
    the sphere or meets it only behind the origin (a NaN angle too); an
    infinite angle raises math's ``ValueError``."""
    g = geometry
    cos_t = math.cos(theta)
    ux, uy, uz = cos_t * math.cos(phi), cos_t * math.sin(phi), math.sin(theta)
    # The reference origin sits at (pivot_setback, 0, -pivot_height) from
    # the pivot; solve |origin + lam * u| = reach for the far root lam.
    b = g.pivot_setback * ux - g.pivot_height * uz
    disc = (b * b - g.pivot_setback * g.pivot_setback - g.pivot_height * g.pivot_height
            + g.guide_rise * g.guide_rise + g.guide_reach * g.guide_reach)
    lam = -b + math.sqrt(disc) if disc >= 0.0 else -1.0
    if lam <= 0.0:
        raise DomainError(
            f"wing angles theta={theta}, phi={phi} are outside the reachable set")
    fwd = g.pivot_setback + lam * ux
    side = lam * uy
    up = lam * uz - g.pivot_height
    theta_b = math.atan2(up, math.hypot(fwd, side)) + g.guide_angle
    phi_b = math.atan2(side, fwd)
    if counts_per_rev == 0:
        return EncoderReading(theta_b, phi_b)
    return quantize(theta_b, phi_b, counts_per_rev)


def encoder_fix(reading, geometry: EncoderGeometry, r: float) -> np.ndarray | None:
    """Routing 3's fix for one encoder reading: ``r * g / |g|``, ``g`` the
    line guide seen from the reference origin, the direction the tether
    leaves along; ``None`` where ``g`` lies on the vertical through the
    origin.  ``DomainError`` for a reading not finite, as
    ``encoder_to_angles`` raises it."""
    theta_b, phi_b = reading
    if not (math.isfinite(theta_b) and math.isfinite(phi_b)):
        raise DomainError(f"encoder reading {reading} is not finite")
    g = geometry
    reach = math.hypot(g.guide_rise, g.guide_reach)
    # The guide's elevation about the pivot.
    elev = theta_b - math.atan2(g.guide_rise, g.guide_reach)
    horiz = reach * math.cos(elev)
    fwd = horiz * math.cos(phi_b) - g.pivot_setback
    side = horiz * math.sin(phi_b)
    up = reach * math.sin(elev) + g.pivot_height
    if fwd == 0.0 and side == 0.0:
        return None
    norm = math.hypot(fwd, side, up)
    return np.array([r * (fwd / norm), r * (side / norm), r * (up / norm)])
