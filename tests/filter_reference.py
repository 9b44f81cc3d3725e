"""Reference recursion for the estimator tests.

Verbatim copies of the per-tick helpers that ``EstimationPipeline.step``
used to call before it did their arithmetic inline: the per-axis time and
measurement updates on a ``KinematicState``, the velocity angle of a
local-frame and of a ground-frame velocity and the observer step.  The
property tests check these copies, and the pipeline oracle in
``test_pipelines.py`` is built from them, so ``step`` must reproduce them
bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from kitefusion.errors import DegenerateInputError
from kitefusion.frames import wrap_angle


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
