"""Online estimation pipelines combining the sensor suite.

Three measurement routings feed the same constant-gain position filter:

1. Satellite XY fixes and barometric height correct their axes directly
   at whatever cadence they arrive.
2. The barometric height is additionally used to rescale each satellite
   XY fix so the measured point sits on the tether sphere before the XY
   correction is applied.
3. The line-angle encoders give a full position fix every sample through
   the tether-sphere geometry; no radio sensors are needed.

All three integrate the body accelerometer (rotated into the ground
frame, gravity removed) between position fixes when an attitude estimate
is available.  The velocity angle of the wing is derived from the
corrected state each sample and smoothed by a second-order tracking
observer whose internal angle is kept unwrapped so figure-eight passes
through +-pi do not glitch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from typing import NamedTuple

import numpy as np

from .attitude import inertial_accel
from .errors import DegenerateInputError, DomainError, LogFormatError
from .frames import spherical_to_cartesian, velocity_angle, wrap_angle
from .lineangle import EncoderGeometry, EncoderReading, encoder_to_angles
from .estimator import (
    KfTuning,
    KinematicState,
    measurement_update,
    steady_state_gain,
    time_update,
)


@dataclass
class SensorFrame:
    """One sample tick of raw sensor data.

    Every field except the timestamp may be absent (``None``): the radio
    sensors run slower than the base rate and entire channels disappear
    when a sensor is not fitted.

    Attributes
    ----------
    t : float
        Sample time in s.
    accel_k : numpy.ndarray or None
        Specific force in the body frame, m/s^2.
    gyro_k : numpy.ndarray or None
        Body angular rate, rad/s.  Carried for completeness; the position
        pipelines do not consume it.
    quat : numpy.ndarray or None
        Unit attitude quaternion (scalar first), body to NED.
    gps_xy : numpy.ndarray or None
        Horizontal position fix in the ground frame, m.
    baro_z : float or None
        Barometric height in the ground frame, m.
    encoder : EncoderReading or None
        Line-angle encoder reading at the ground station, rad.
    wind_speed : float or None
        Reference wind speed, m/s.  Only used for result binning.
    """

    t: float
    accel_k: np.ndarray | None = None
    gyro_k: np.ndarray | None = None
    quat: np.ndarray | None = None
    gps_xy: np.ndarray | None = None
    baro_z: float | None = None
    encoder: EncoderReading | None = None
    wind_speed: float | None = None


@dataclass(frozen=True)
class EstimatorConfig:
    """Pipeline configuration.

    Attributes
    ----------
    r : float
        Tether length, m.
    phi_g : float
        Heading of the ground frame's downwind axis measured in NED, rad.
    ts : float
        Base sample time, s.
    ratios : tuple of float
        Per-axis process/measurement variance ratios of the position
        filter.
    k_gamma : tuple of float
        Velocity-angle observer gains (angle, rate).
    geometry : EncoderGeometry
        Ground-station geometry for routing 3.
    approach : int
        Measurement routing, 1..3.
    use_imu : bool
        Integrate the accelerometer between fixes when True; with False
        the prediction step uses zero acceleration.
    """

    r: float = 30.0
    phi_g: float = 0.0
    ts: float = 0.02
    ratios: tuple[float, float, float] = (500.0, 500.0, 500.0)
    k_gamma: tuple[float, float] = (0.4, 0.9)
    geometry: EncoderGeometry = field(default_factory=EncoderGeometry)
    approach: int = 3
    use_imu: bool = True

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise DomainError(f"tether length must be positive, got {self.r}")
        if not self.ts > 0.0:
            raise DomainError(f"sample time must be positive, got {self.ts}")
        if len(self.ratios) != 3 or any(not v > 0.0 for v in self.ratios):
            raise DomainError("need three positive variance ratios")
        if self.approach not in (1, 2, 3):
            raise DomainError(f"approach must be 1, 2 or 3, got {self.approach}")
        k1, k2 = self.k_gamma
        closed_loop = np.array([[1.0 - k1, self.ts], [-k2, 1.0]])
        if max(abs(np.linalg.eigvals(closed_loop))) >= 1.0:
            raise DomainError("velocity-angle observer gains are not stabilizing")


class EstimateOutput(NamedTuple):
    """Per-sample estimate: position/velocity in ``G``, sphere angles and
    the smoothed velocity angle with its rate."""

    t: float
    p_hat: np.ndarray
    v_hat: np.ndarray
    theta_hat: float
    phi_hat: float
    gamma_hat: float
    gamma_dot_hat: float


def geometric_correction(p_tilde: np.ndarray, r: float) -> np.ndarray:
    """Rescale the XY components of a position so it lies on the sphere.

    The height component is trusted: the elevation it implies fixes the
    horizontal distance from the tether exit, and the XY pair is scaled
    to that distance while keeping its direction.  The returned height is
    the input height unchanged.

    Parameters
    ----------
    p_tilde : array_like, shape (3,)
        Measured position, m.
    r : float
        Sphere radius (tether length), m.

    Raises
    ------
    DomainError
        If ``|p_tilde[2]| > r`` (no elevation angle exists).
    DegenerateInputError
        If the XY components are both exactly zero (no direction to keep).
    """
    p_tilde = np.asarray(p_tilde, dtype=float)
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    ratio = p_tilde[2] / r
    if abs(ratio) > 1.0 + 1e-9:
        raise DomainError(f"height {p_tilde[2]} outside sphere of radius {r}")
    ratio = min(1.0, max(-1.0, ratio))
    horizontal = math.hypot(p_tilde[0], p_tilde[1])
    if horizontal == 0.0:
        raise DegenerateInputError("XY components are zero; direction undefined")
    scale = r * math.cos(math.asin(ratio)) / horizontal
    return np.array([p_tilde[0] * scale, p_tilde[1] * scale, p_tilde[2]])


def gamma_unfiltered(v_hat, theta_hat: float, phi_hat: float) -> float:
    """Velocity angle implied by a ground-frame velocity at given sphere
    angles: rotate into the local tangent frame and take the heading of
    the tangential component.

    Only the two tangent components are formed, as the first two rows of
    :func:`~kitefusion.frames.rot_g_to_l` applied to ``v_hat``, summed
    term by term.

    Raises
    ------
    DegenerateInputError
        If both tangent components are exactly zero.
    """
    vx, vy, vz = v_hat
    st, ct = math.sin(theta_hat), math.cos(theta_hat)
    sp, cp = math.sin(phi_hat), math.cos(phi_hat)
    return velocity_angle((-st * cp * vx - st * sp * vy + ct * vz, -sp * vx + cp * vy))


def luenberger_step(obs_state, gamma_meas: float,
                    k_gamma: tuple[float, float], ts: float) -> tuple[float, float]:
    """One predictor-form step of the velocity-angle tracking observer.

    The observer state is ``(angle, rate)``; the angle is integrated
    without wrapping while the innovation is wrapped, so the state may
    drift outside (-pi, pi] during sustained rotation.

    Returns the state predicted for the next sample.
    """
    angle, rate = obs_state
    innovation = wrap_angle(gamma_meas - angle)
    return angle + ts * rate + k_gamma[0] * innovation, rate + k_gamma[1] * innovation


def lo_frequency_response(k_gamma: tuple[float, float], ts: float,
                          freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude responses of the velocity-angle observer.

    Returns ``(|F_angle|, |F_rate|)``: the responses from the measured
    angle to the emitted angle and rate estimates.  The emitted state is
    the prediction, so both channels are strictly proper.

    Raises
    ------
    DomainError
        If any frequency lies outside (0, Nyquist).
    """
    freqs = np.asarray(freqs, dtype=float)
    nyquist = 0.5 / ts
    if np.any(freqs <= 0.0) or np.any(freqs >= nyquist):
        raise DomainError(f"frequencies must lie in (0, {nyquist}) Hz")
    k1, k2 = k_gamma
    mag_angle = np.empty_like(freqs)
    mag_rate = np.empty_like(freqs)
    for i, f in enumerate(freqs):
        z = complex(math.cos(2 * math.pi * f * ts), math.sin(2 * math.pi * f * ts))
        det = (z - 1.0 + k1) * (z - 1.0) + ts * k2
        mag_angle[i] = abs(((z - 1.0) * k1 + ts * k2) / det)
        mag_rate[i] = abs(k2 * (z - 1.0) / det)
    return mag_angle, mag_rate


class EstimationPipeline:
    """Stateful per-sample estimator.

    Feed :class:`SensorFrame` ticks in time order through :meth:`step`;
    each call returns an :class:`EstimateOutput` once the position state
    has been initialised from the first fixes, and ``None`` while warming
    up.

    The position state starts filtering only when every axis has seen a
    measurement: routing 1 needs one XY fix and one height sample,
    routing 2 needs a height sample followed by an XY fix, routing 3
    initialises fully from the first encoder reading.  Measurement
    samples that cannot be used (sphere-correction degeneracies, vertical
    tether readings) are dropped rather than aborting the run.

    The filter state is six Python floats, position and velocity per
    axis, and each tick runs three decoupled two-state recursions on
    them with the per-axis gains ``(k1, k2)`` read once from
    :func:`~kitefusion.estimator.steady_state_gain`.  The heading of the
    ground frame enters only as its cosine and sine, computed once, and
    the observer state is a float pair.  Only the emitted estimate and
    ``last_measurement`` are numpy arrays.

    Attributes
    ----------
    last_measurement : tuple or None
        ``(p_meas, axes)`` of the final position correction applied in
        the most recent step, ``None`` if that step applied none.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.gain = steady_state_gain(KfTuning(config.ts, tuple(config.ratios)))
        self._gains = self.gain.axis_gains
        self._heading = (math.cos(config.phi_g), math.sin(config.phi_g))
        self._state: KinematicState | None = None
        self._seed = [None, None, None]
        self._held_z: float | None = None
        self._obs: tuple[float, float] | None = None
        self._phi_prev = 0.0
        self._last_t: float | None = None
        self.last_measurement: tuple[np.ndarray, tuple[int, ...]] | None = None

    def step(self, frame: SensorFrame) -> EstimateOutput | None:
        t = frame.t
        if not math.isfinite(t):
            raise LogFormatError(f"sample time must be finite, got {t}")
        if self._last_t is not None and not t > self._last_t:
            raise LogFormatError(f"sample times must increase: {t} after {self._last_t}")
        self._last_t = t
        cfg = self.config
        if cfg.use_imu and frame.accel_k is not None and frame.quat is not None:
            a_g = inertial_accel(frame.accel_k.tolist(), frame.quat.tolist(), *self._heading)
        else:
            a_g = (0.0, 0.0, 0.0)
        if self._state is not None:
            time_update(self._state, a_g, cfg.ts)
        self.last_measurement = None
        self._route_measurements(frame)
        if self._state is None and None not in self._seed:
            self._state = KinematicState(list(self._seed), [0.0, 0.0, 0.0])
        if self._state is None:
            return None
        return self._emit(t)

    def _correct(self, p_meas: np.ndarray, axes: tuple[int, ...]) -> None:
        if self._state is not None:
            measurement_update(self._state, p_meas.tolist(), self._gains, axes)
            self.last_measurement = (p_meas, axes)
        else:
            for axis in axes:
                self._seed[axis] = float(p_meas[axis])

    def _route_measurements(self, frame: SensorFrame) -> None:
        cfg = self.config
        if cfg.approach == 1:
            if frame.gps_xy is not None:
                self._correct(np.array([frame.gps_xy[0], frame.gps_xy[1], 0.0]), (0, 1))
            if frame.baro_z is not None:
                self._correct(np.array([0.0, 0.0, frame.baro_z]), (2,))
        elif cfg.approach == 2:
            if frame.baro_z is not None:
                self._held_z = float(frame.baro_z)
                self._correct(np.array([0.0, 0.0, frame.baro_z]), (2,))
            if frame.gps_xy is not None and self._held_z is not None:
                raw = np.array([frame.gps_xy[0], frame.gps_xy[1], self._held_z])
                try:
                    corrected = geometric_correction(raw, cfg.r)
                except (DomainError, DegenerateInputError):
                    return
                self._correct(corrected, (0, 1))
        else:
            if frame.encoder is not None:
                try:
                    theta, phi = encoder_to_angles(frame.encoder, cfg.geometry)
                except DegenerateInputError:
                    return
                self._correct(spherical_to_cartesian(theta, phi, cfg.r), (0, 1, 2))

    def _emit(self, t: float) -> EstimateOutput:
        cfg = self.config
        p, v = self._state
        theta = math.asin(min(1.0, max(-1.0, p[2] / cfg.r)))
        if p[0] == 0.0 and p[1] == 0.0:
            phi = self._phi_prev
        else:
            phi = math.atan2(p[1], p[0])
        self._phi_prev = phi
        try:
            gamma_meas = gamma_unfiltered(v, theta, phi)
        except DegenerateInputError:
            gamma_meas = None
        if self._obs is None and gamma_meas is not None:
            self._obs = (gamma_meas, 0.0)
        if self._obs is None:
            gamma_out, gamma_dot_out = 0.0, 0.0
        else:
            angle, gamma_dot_out = self._obs
            gamma_out = wrap_angle(angle)
            if gamma_meas is not None:
                self._obs = luenberger_step(self._obs, gamma_meas, cfg.k_gamma, cfg.ts)
            else:
                self._obs = (angle + cfg.ts * gamma_dot_out, gamma_dot_out)
        return EstimateOutput(t, np.array(p), np.array(v), theta, phi, gamma_out, gamma_dot_out)
