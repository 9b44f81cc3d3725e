"""Reference pipelines for the estimator tests, and the helpers they run.

:class:`ReferencePipeline` is the tick policy of
``EstimationPipeline.step``, written once: the time checks; the
acceleration, rotated where the IMU is on and the reading and attitude are
present, zeros otherwise, refused where its height is not finite; each
routing's measured value per axis, ``None`` on an axis not measured, with
its drop rules (routing 2's held height and refused rescaling, routing
3's vertical reading); seeding through warm-up, then predict and correct;
``last_measurement``; the sphere angles, the azimuth held on the zenith
axis; and the observer's start, update and coast.  Every refusal comes
before any state changes.

Each stage's arithmetic (rotation, state, predict, correct, routing-3
fix, velocity angle, observer step) is a method of two subclasses.
:class:`HelperPipeline` calls the straight-line float helpers below, whose
arithmetic ``step`` does inline in their order, so the tests compare it
with ``step`` bit for bit.  :class:`ArrayPipeline` uses numpy matrices
(3x3 rotations, the stacked 6x3 gain), which sum in another order, so the
tests compare it within 1e-12.  A deliberate change to ``step``'s policy
is one edit in :class:`ReferencePipeline`; one to its arithmetic, one
edit in each subclass.

The helpers: the per-axis time and measurement updates on a
``KinematicState``, the velocity angle of a local-frame and of a
ground-frame velocity, the observer step, and routing 3's fix, the line
guide seen from the reference origin scaled onto the sphere, from the
``EncoderGeometry`` fields alone.  Also the scalar encoder inversion
``angles_to_encoder`` and its rounding ``quantize``, from before the
inversion became the one-row call of its array form, against which the
array form and the reference synthesizer in ``test_simkite.py`` are
checked reading by reading.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from kitefusion.attitude import GRAVITY, inertial_accel, quats_to_rots
from kitefusion.errors import DegenerateInputError, DomainError, LogFormatError
from kitefusion.estimator import axis_gain
from kitefusion.frames import rot_g_to_l, rot_ned_to_g, spherical_to_cartesian, wrap_angle
from kitefusion.lineangle import (
    DEFAULT_COUNTS_PER_REV,
    EncoderGeometry,
    encoder_to_angles,
    resolution,
)
from kitefusion.pipelines import EstimateOutput, geometric_correction


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
             counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> tuple[float, float]:
    """Round arm angles to the nearest encoder count."""
    step = resolution(counts_per_rev)
    return round(theta_b / step) * step, round(phi_b / step) * step


def angles_to_encoder(theta: float, phi: float, geometry: EncoderGeometry,
                      counts_per_rev: int = DEFAULT_COUNTS_PER_REV) -> tuple[float, float]:
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
        return theta_b, phi_b
    return quantize(theta_b, phi_b, counts_per_rev)


def encoder_fix(reading, geometry: EncoderGeometry,
                r: float) -> tuple[float, float, float] | None:
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
    return r * (fwd / norm), r * (side / norm), r * (up / norm)


def sphere_point(reading, geometry: EncoderGeometry,
                 r: float) -> tuple[float, float, float] | None:
    """Routing 3's fix through ``encoder_to_angles`` and
    ``spherical_to_cartesian``, or ``None`` for a vertical tether."""
    try:
        return tuple(spherical_to_cartesian(*encoder_to_angles(reading, geometry), r))
    except DegenerateInputError:
        return None


class ReferencePipeline:
    """The tick policy of ``EstimationPipeline.step``, stepped and read like
    it; a subclass fills the arithmetic of each stage."""

    def __init__(self, config):
        self.config = config
        self._state = None
        self._seed = [None, None, None]
        # The latest height, at which routing 2 rescales an XY fix; NaN,
        # which the rescaling refuses, until the first one arrives.
        self._held_z = math.nan
        self._obs = None
        self._phi_prev = 0.0
        self._last_t = None
        self.last_measurement = None

    def step(self, frame):
        t = frame.t
        if not math.isfinite(t):
            raise LogFormatError(f"sample time must be finite, got {t}")
        if self._last_t is not None and not t > self._last_t:
            raise LogFormatError(f"sample times must increase: {t} after {self._last_t}")
        self._last_t = t
        cfg = self.config
        a_g = (0.0, 0.0, 0.0)
        if cfg.use_imu and frame.accel_k is not None and frame.quat is not None:
            a_g = self.rotate(frame.accel_k, frame.quat)
            if not math.isfinite(a_g[2]):
                raise DomainError(f"accelerometer reading {frame.accel_k} at t={t} is not finite")
        if cfg.approach < 3:
            measured = self._radio_fix(frame)
        else:  # routing 3: no reading, or a vertical tether, gives no fix
            measured = None if frame.encoder is None else self.fix(frame.encoder)
        if self._state is None:
            # Warming up: fixes seed their axes until all three are known.
            for axis, z in enumerate(measured or ()):
                if z is not None:
                    self._seed[axis] = z
            if None in self._seed:
                return None
            self._state = self.state(self._seed, (0.0, 0.0, 0.0))
        else:
            self._state = self.predict(self._state, a_g)
            self.last_measurement = measured
            if measured is not None:
                axes = [axis for axis, z in enumerate(measured) if z is not None]
                self._state = self.correct(self._state, measured, axes)
        p, v = self._state
        # Sphere angles of the estimate, the azimuth held on the zenith axis.
        sin_theta = p[2] / cfg.r
        theta = math.asin(1.0 if sin_theta > 1.0 else -1.0 if sin_theta < -1.0 else sin_theta)
        if p[0] == 0.0 and p[1] == 0.0:
            phi = self._phi_prev
        else:
            phi = self._phi_prev = math.atan2(p[1], p[0])
        try:
            gamma_meas = self.gamma_measurement(v, theta, phi)
        except DegenerateInputError:
            gamma_meas = None
        # The observer starts at the first velocity angle, and coasts on
        # its rate where the angle is undefined.
        if self._obs is None and gamma_meas is not None:
            self._obs = (gamma_meas, 0.0)
        gamma_out = gamma_dot_out = 0.0
        if self._obs is not None:
            angle, gamma_dot_out = self._obs
            gamma_out = wrap_angle(angle)
            self._obs = ((angle + cfg.ts * gamma_dot_out, gamma_dot_out) if gamma_meas is None
                         else self.observe(self._obs, gamma_meas))
        return EstimateOutput(t, tuple(p), tuple(v), theta, phi, gamma_out, gamma_dot_out)

    def _radio_fix(self, frame):
        """Routings 1 and 2: the XY fix and the height as they arrive,
        routing 2's fix rescaled onto the sphere at the latest height and
        dropped where that fails."""
        gps, height = frame.gps_xy, frame.baro_z
        x = y = None
        if gps is not None:
            x, y = gps
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DomainError(f"XY fix {(x, y)} at t={frame.t} is not finite")
        if height is not None:
            if not math.isfinite(height):
                raise DomainError(f"height {height} at t={frame.t} is not finite")
            self._held_z = height
        if x is not None and self.config.approach == 2:
            try:
                x, y, _ = geometric_correction((x, y, self._held_z), self.config.r)
            except (DomainError, DegenerateInputError):
                x = y = None
        return None if x is None and height is None else (x, y, height)


class HelperPipeline(ReferencePipeline):
    """The stages on the float helpers above, the state a
    ``KinematicState`` and the rotation ``inertial_accel``."""

    def __init__(self, config):
        super().__init__(config)
        self._gains = tuple(axis_gain(config.ts, ratio) for ratio in config.ratios)
        self._heading = (math.cos(config.phi_g), math.sin(config.phi_g))

    def rotate(self, accel_k, quat):
        return inertial_accel(accel_k, quat, *self._heading)

    def state(self, p, v):
        return KinematicState(list(p), list(v))

    def predict(self, state, a_g):
        time_update(state, a_g, self.config.ts)
        return state

    def correct(self, state, measured, axes):
        measurement_update(state, measured, self._gains, axes)
        return state

    def fix(self, reading):
        return encoder_fix(reading, self.config.geometry, self.config.r)

    def gamma_measurement(self, v, theta, phi):
        return gamma_unfiltered(v, theta, phi)

    def observe(self, obs, gamma_meas):
        return luenberger_step(obs, gamma_meas, self.config.k_gamma, self.config.ts)


class ArrayPipeline(ReferencePipeline):
    """The stages in numpy: 3x3 rotation matrices, the stacked 6x3 gain,
    and routing 3's fix through ``encoder_to_angles``."""

    def __init__(self, config):
        super().__init__(config)
        # Column ``axis`` holds k1 in row ``axis`` and k2 in row ``axis + 3``.
        self._gain = np.zeros((6, 3))
        for axis, ratio in enumerate(config.ratios):
            self._gain[axis, axis], self._gain[axis + 3, axis] = axis_gain(config.ts, ratio)
        self._ned_to_g = rot_ned_to_g(config.phi_g)

    def rotate(self, accel_k, quat):
        with np.errstate(invalid="ignore"):  # a non-finite reading, which the policy refuses
            a_g = self._ned_to_g @ (quats_to_rots([quat])[0] @ np.asarray(accel_k, dtype=float))
        a_g[2] += GRAVITY
        return a_g

    def state(self, p, v):
        return np.array(p, dtype=float), np.array(v, dtype=float)

    def predict(self, state, a_g):
        p, v = state
        return p + self.config.ts * v, v + self.config.ts * np.asarray(a_g)

    def correct(self, state, measured, axes):
        p, v = state
        dx = self._gain[:, axes] @ (np.array([measured[axis] for axis in axes]) - p[axes])
        return p + dx[:3], v + dx[3:]

    def fix(self, reading):
        return sphere_point(reading, self.config.geometry, self.config.r)

    def gamma_measurement(self, v, theta, phi):
        return velocity_angle(rot_g_to_l(theta, phi) @ v)

    def observe(self, obs, gamma_meas):
        angle, rate = obs
        innovation = wrap_angle(gamma_meas - angle)
        k1, k2 = self.config.k_gamma
        return np.array([angle + self.config.ts * rate + k1 * innovation, rate + k2 * innovation])
