"""Online estimation pipelines combining the sensor suite.

Three measurement routings feed the same constant-gain position filter:

1. Satellite XY fixes and barometric height correct their axes directly
   at whatever cadence they arrive.
2. The barometric height is additionally used to rescale each satellite
   XY fix so the measured point sits on the tether sphere before the XY
   correction is applied.
3. The line-angle encoders give a full position fix every sample through
   the tether-sphere geometry; no radio sensors are needed.  This is the
   onboard loop, so :meth:`EstimationPipeline.step` computes the fix
   itself, on geometry constants bound once:
   :func:`~kitefusion.lineangle.encoder_to_angles`, then the point on
   the sphere, with their bits and their errors.  Encoders count in
   whole steps and the wing flies closed paths, so a reading comes back
   loop after loop: each pipeline holds the fix of every reading it has
   inverted, keyed by the pair of floats, and looks it up on the next
   visit.  A reading with a zero component, or one not made of Python
   floats, is inverted every time, since equal keys must give equal
   bits; a reading that raises is never held, so it raises again; past
   ``_FIXES_HELD`` readings held, new ones are inverted every time, and
   a pipeline whose readings mostly did not repeat while it filled its
   holding (unquantized readings) stops looking them up.

All three integrate the body accelerometer (rotated into the ground
frame, gravity removed) between position fixes when an attitude estimate
is available.  The velocity angle of the wing is derived from the
corrected state each sample and smoothed by a second-order tracking
observer whose internal angle is kept unwrapped so figure-eight passes
through +-pi do not glitch.

One acceleration per record: the inertial acceleration depends only on
the frame and the heading, so a caller that replays one record through
several routings computes it once.  :func:`_prime` does so in one array
pass per distinct heading and hands each pipeline the sequence, which
:meth:`EstimationPipeline.step` then reads in place of its per-tick
rotation, with the same bits; :meth:`EstimationPipeline.prime` does so
for one pipeline.
"""

from __future__ import annotations

import array
import itertools
import math
from dataclasses import dataclass, field

from typing import NamedTuple

import numpy as np

from .attitude import _inertial_accels, inertial_accel
from .errors import (DegenerateInputError, DomainError, LogFormatError, require_finite,
                     require_positive)
from .frames import TWO_PI, _elevation, _horizontal
from .lineangle import EncoderGeometry, EncoderReading, _guide_angles, _mount
from .estimator import _unit_circle_magnitudes, axis_gain


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
        Tether length, m, positive.
    phi_g : float
        Heading of the ground frame's downwind axis measured in NED, rad.
    ts : float
        Base sample time, s, positive.
    ratios : tuple of float
        Per-axis process/measurement variance ratios of the position
        filter, three and positive.
    k_gamma : tuple of float
        Velocity-angle observer gains (angle, rate).
    geometry : EncoderGeometry
        Ground-station geometry for routing 3.
    approach : int
        Measurement routing, 1..3.
    use_imu : bool
        Integrate the accelerometer between fixes when True; with False
        the prediction step uses zero acceleration.

    A ``DomainError`` names the first field not finite, then the first not positive.
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
        require_finite(self)
        require_positive("r", self.r)
        require_positive("ts", self.ts)
        if len(self.ratios) != 3:
            raise DomainError(f"need three variance ratios, got {len(self.ratios)}")
        require_positive("ratios", min(self.ratios))
        if self.approach not in (1, 2, 3):
            raise DomainError(f"approach must be 1, 2 or 3, got {self.approach}")
        if len(self.k_gamma) != 2:
            raise DomainError(f"need two velocity-angle observer gains, got {len(self.k_gamma)}")
        k1, k2 = self.k_gamma
        closed_loop = np.array([[1.0 - k1, self.ts], [-k2, 1.0]])
        if max(abs(np.linalg.eigvals(closed_loop))) >= 1.0:
            raise DomainError("velocity-angle observer gains are not stabilizing")


class EstimateOutput(NamedTuple):
    """Per-sample estimate: position/velocity in ``G`` as tuples of three
    floats, sphere angles and the smoothed velocity angle with its rate."""

    t: float
    p_hat: tuple[float, float, float]
    v_hat: tuple[float, float, float]
    theta_hat: float
    phi_hat: float
    gamma_hat: float
    gamma_dot_hat: float


_HALF_PI = math.pi / 2.0

#: Routing-3 fixes one pipeline holds; readings past them are inverted
#: every time.  An encoder counting 400 steps per turn revisits a few
#: hundred reading pairs on a closed flight path (at most 229 in two
#: minutes of a figure-eight at speed scale 4.5).  Unquantized readings
#: never repeat: without the bound each would stay held, and holding a
#: fix costs about what one inversion does, so the holding stops at this
#: size rather than starting over, which would pay that on every tick.
#: A pipeline that held this many within twice as many sample periods
#: found most readings new, and stops looking them up as well: a lookup
#: that misses costs a few percent of a tick.
_FIXES_HELD = 1024

# The fix lookup's result for a reading not held.
_UNSEEN = object()

# Builds an EstimateOutput from one tuple of its fields, skipping the
# Python-level __new__ of the named tuple.
_output = tuple.__new__


def geometric_correction(p_tilde, r: float) -> tuple[float, float, float]:
    """Rescale the XY components of a position so it lies on the sphere.

    The height component is trusted: the elevation it implies fixes the
    horizontal distance from the tether exit, and the XY pair is scaled
    to that distance while keeping its direction.  Returns three floats,
    the last of them the input height, unchanged.

    Parameters
    ----------
    p_tilde : sequence of three floats
        Measured position, m.
    r : float
        Sphere radius (tether length), m.

    Raises
    ------
    DomainError
        If ``|p_tilde[2]| > r`` or the height is not finite (no elevation
        angle exists), or an XY component is not finite.
    DegenerateInputError
        If the XY components are both exactly zero (no direction to keep),
        or so close to zero that the scale overflows (it would turn a zero
        component into NaN).
    """
    x, y, z = float(p_tilde[0]), float(p_tilde[1]), float(p_tilde[2])
    scale = r * math.cos(_elevation(z, r)) / _horizontal(x, y)
    if scale == math.inf:
        raise DegenerateInputError(f"XY components {x}, {y} too small to scale onto the sphere")
    return x * scale, y * scale, z


def lo_frequency_response(k_gamma: tuple[float, float], ts: float,
                          freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude responses of the velocity-angle observer.

    Returns ``(|F_angle|, |F_rate|)``: the responses from the measured
    angle to the emitted angle and rate estimates.  The emitted state is
    the prediction, so both channels are strictly proper.

    Raises
    ------
    DomainError
        If ``ts`` is not positive and finite, or a frequency not in (0, Nyquist).
    """
    k1, k2 = k_gamma

    def response(z):
        det = (z - 1.0 + k1) * (z - 1.0) + ts * k2
        return ((z - 1.0) * k1 + ts * k2) / det, k2 * (z - 1.0) / det

    return _unit_circle_magnitudes(ts, freqs, response)


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

    The filter state is six float attributes, position and velocity per
    axis.  Each tick runs three decoupled two-state recursions on them
    with the per-axis gains ``(k1, k2)`` read once from
    :func:`~kitefusion.estimator.axis_gain`, then derives the
    sphere angles and the velocity angle and steps the observer, all in
    one straight-line pass on floats.  The heading of the ground frame
    enters only as its cosine and sine, computed once.  Routings 1 and 2
    reach their fixes through a measurement handler chosen once; routing
    3 computes its fix in that pass, from the geometry constants
    :func:`~kitefusion.lineangle.encoder_to_angles` reads, bound once,
    or looks up the fix of a reading it has stepped before.
    A primed pipeline reads each tick's inertial acceleration from its
    primed sequence instead of rotating the frame's accelerometer
    reading; the two agree bit for bit.  A tick that raises
    ``DomainError`` (a non-unit quaternion, a non-finite encoder reading,
    XY fix or height) changes no filter state, though its time counts
    for the increasing-time check; every tick that raises, ``LogFormatError``
    for its time included, moves a primed pipeline past its acceleration,
    so a caller that skips it gets the estimates of a run without that
    frame, primed or not.  Each routing checks the channels it
    reads: routings 1 and 2 the XY fix and the height, routing 3 the
    encoder.

    Attributes
    ----------
    last_measurement : tuple or None
        ``(p_meas, axes)`` of the final position correction applied in
        the most recent step, ``p_meas`` a new ndarray of shape (3,) built
        when the attribute is read; ``None`` if that step applied none.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self._gains = tuple(axis_gain(config.ts, ratio) for ratio in config.ratios)
        self._cos_g, self._sin_g = math.cos(config.phi_g), math.sin(config.phi_g)
        if config.approach == 3:
            self._fix, self._mount = None, _mount(config.geometry)
            # The fix of each encoder reading stepped, or None for a
            # vertical tether; readings that raise are not held.  The
            # dict becomes None when readings stop being looked up.
            self._fixes = {}
            self._held_from = 0.0  # the time of the first reading held
        else:
            self._fix, self._mount = (self._radio_fix, self._sphere_fix)[config.approach - 1], None
        self._seed = [None, None, None]
        self._seeded = False
        self._px = self._py = self._pz = 0.0
        self._vx = self._vy = self._vz = 0.0
        self._imu_per_tick = config.use_imu
        self._accels = itertools.repeat((0.0, 0.0, 0.0))
        self._held_z: float | None = None
        self._obs_angle: float | None = None
        self._obs_rate = 0.0
        self._phi_prev = 0.0
        self._last_t: float | None = None
        self._shown = None

    @property
    def last_measurement(self) -> tuple[np.ndarray, tuple[int, ...]] | None:
        if self._shown is None:
            return None
        p_meas, axes = self._shown
        return np.array(p_meas), axes

    def prime(self, frames) -> None:
        """Compute the inertial accelerations of the record ``frames`` in
        one array pass, for :meth:`step` to read as the frames are
        stepped in order, with the bits of its per-tick rotation;
        :func:`_prime` for this pipeline alone."""
        _prime([self], frames)

    def step(self, frame: SensorFrame) -> EstimateOutput | None:
        t = frame.t
        # A tick refused for its time consumes its primed acceleration,
        # as every other tick that raises does.
        if not math.isfinite(t):
            next(self._accels, None)
            raise LogFormatError(f"sample time must be finite, got {t}")
        if self._last_t is not None and not t > self._last_t:
            next(self._accels, None)
            raise LogFormatError(f"sample times must increase: {t} after {self._last_t}")
        self._last_t = t
        cfg = self.config
        ts = cfg.ts
        if self._imu_per_tick and frame.accel_k is not None and frame.quat is not None:
            ax, ay, az = inertial_accel(frame.accel_k.tolist(), frame.quat.tolist(),
                                        self._cos_g, self._sin_g)
        else:
            # The tick's entry of a primed record, or zeros.
            ax, ay, az = next(self._accels)
        mount = self._mount
        if mount is None:
            measured = self._fix(frame)
        else:
            # Routing 3: encoder_to_angles, then the point
            # r (cos(theta) cos(phi), cos(theta) sin(phi), sin(theta)),
            # looked up where this pair of floats was inverted before.
            # No reading, or a vertical tether, gives no fix.
            measured = None
            reading = frame.encoder
            if reading is not None:
                theta_b, phi_b = reading
                fixes = self._fixes
                # Keyed only by nonzero Python floats: -0.0 and 0.0 are
                # one key but can give two fixes, and a float32 or a
                # complex reading equal to a float one computes otherwise.
                key = None
                measured = _UNSEEN
                if (fixes is not None and type(theta_b) is float and type(phi_b) is float
                        and theta_b and phi_b):
                    key = theta_b, phi_b
                    measured = fixes.get(key, _UNSEEN)
                if measured is _UNSEEN:
                    try:
                        angles = _guide_angles(theta_b, phi_b, mount)
                    except ValueError as exc:  # math.sin/cos of an infinite angle
                        raise DomainError(f"encoder reading {reading} is not finite") from exc
                    measured = None
                    if angles is not None:
                        theta, phi = angles
                        if not abs(theta) <= _HALF_PI:  # a NaN reading
                            raise DomainError(f"encoder reading {reading} is not finite")
                        r = cfg.r
                        rc = r * math.cos(theta)
                        z = (rc * math.cos(phi), rc * math.sin(phi), r * math.sin(theta))
                        measured = z, (z, (0, 1, 2))
                    if key is not None and len(fixes) < _FIXES_HELD:
                        if not fixes:
                            self._held_from = t
                        fixes[key] = measured
                        if (len(fixes) == _FIXES_HELD
                                and t - self._held_from < 2 * _FIXES_HELD * ts):
                            # Most readings were new: stop looking them up.
                            self._fixes = None
        if self._seeded:
            # Prediction, per axis: p += ts * v with the pre-update
            # velocity, then v += ts * a.
            vx, vy, vz = self._vx, self._vy, self._vz
            px = self._px + ts * vx
            py = self._py + ts * vy
            pz = self._pz + ts * vz
            vx += ts * ax
            vy += ts * ay
            vz += ts * az
            shown = None
            if measured is not None:
                # Correction of each measured axis on its own: e = z - p,
                # p += k1 * e, v += k2 * e.
                (zx, zy, zz), shown = measured
                (k1x, k2x), (k1y, k2y), (k1z, k2z) = self._gains
                if zx is not None:
                    e = zx - px
                    px += k1x * e
                    vx += k2x * e
                if zy is not None:
                    e = zy - py
                    py += k1y * e
                    vy += k2y * e
                if zz is not None:
                    e = zz - pz
                    pz += k1z * e
                    vz += k2z * e
        else:
            # Warming up: fixes seed their axes until all three are known.
            shown = None
            if measured is not None:
                for axis, z in enumerate(measured[0]):
                    if z is not None:
                        self._seed[axis] = z
            if None in self._seed:
                return None
            self._seeded = True
            px, py, pz = self._seed
            vx = vy = vz = 0.0
        self._px, self._py, self._pz = px, py, pz
        self._vx, self._vy, self._vz = vx, vy, vz
        self._shown = shown

        # Sphere angles of the estimate; the azimuth holds on the zenith
        # axis, and a non-finite height gives a non-finite elevation.
        sin_theta = pz / cfg.r
        if sin_theta > 1.0:
            sin_theta = 1.0
        elif sin_theta < -1.0:
            sin_theta = -1.0
        theta = math.asin(sin_theta)
        if px == 0.0 and py == 0.0:
            phi = self._phi_prev
        else:
            phi = self._phi_prev = math.atan2(py, px)
        # Velocity angle: heading of the tangent components of v, the
        # first two rows of frames.rot_g_to_l(theta, phi) applied to it.
        st, ct = math.sin(theta), math.cos(theta)
        sp, cp = math.sin(phi), math.cos(phi)
        v_north = -st * cp * vx - st * sp * vy + ct * vz
        v_east = -sp * vx + cp * vy
        angle, rate = self._obs_angle, self._obs_rate
        if v_north == 0.0 and v_east == 0.0:
            # Undefined velocity angle: the observer coasts, or waits.
            if angle is None:
                return _output(EstimateOutput, (t, (px, py, pz), (vx, vy, vz),
                                                theta, phi, 0.0, 0.0))
            self._obs_angle = angle + ts * rate
        else:
            gamma_meas = math.atan2(v_east, v_north)
            if angle is None:
                angle = gamma_meas
            # Predictor-form observer step: the angle integrates unwrapped
            # while the innovation is wrapped to (-pi, pi].
            innovation = math.pi - (math.pi - (gamma_meas - angle)) % TWO_PI
            k1, k2 = cfg.k_gamma
            self._obs_angle = angle + ts * rate + k1 * innovation
            self._obs_rate = rate + k2 * innovation
        return _output(EstimateOutput, (t, (px, py, pz), (vx, vy, vz), theta, phi,
                                        math.pi - (math.pi - angle) % TWO_PI, rate))

    def _radio_fix(self, frame: SensorFrame):
        """Routing 1: the XY fix and the height, each as it arrives.

        Returns ``None`` or ``(z, shown)``: ``z`` holds the measured value
        of each axis (``None`` where absent) and ``shown`` is the final
        correction as :attr:`last_measurement` reports it.
        """
        gps, height = frame.gps_xy, frame.baro_z
        if gps is None and height is None:
            return None
        gps, height = _radio_values(gps, height, frame.t)
        if gps is None:
            return (None, None, height), ((0.0, 0.0, height), (2,))
        x, y = gps
        if height is None:
            return (x, y, None), ((x, y, 0.0), (0, 1))
        return (x, y, height), ((0.0, 0.0, height), (2,))

    def _sphere_fix(self, frame: SensorFrame):
        """Routing 2: the height as it arrives, and each XY fix rescaled
        onto the sphere at the latest height, or dropped where that fails.
        Returns what :meth:`_radio_fix` does."""
        gps, height = frame.gps_xy, frame.baro_z
        if gps is None and height is None:
            return None
        gps, height = _radio_values(gps, height, frame.t)
        measured = None
        if height is not None:
            self._held_z = height
            measured = ((None, None, height), ((0.0, 0.0, height), (2,)))
        if gps is None or self._held_z is None:
            return measured
        try:
            corrected = geometric_correction((*gps, self._held_z), self.config.r)
        except (DomainError, DegenerateInputError):
            return measured
        return (corrected[0], corrected[1], height), (corrected, (0, 1))


def _radio_values(gps, height, t: float) -> tuple[tuple[float, float] | None, float | None]:
    """The XY fix as two floats and the height as a float, ``None`` where
    absent.

    Raises
    ------
    DomainError
        If a present one is not finite, naming the channel, its value and
        the sample time ``t``.
    """
    if gps is not None:
        gps = float(gps[0]), float(gps[1])
        if not (math.isfinite(gps[0]) and math.isfinite(gps[1])):
            raise DomainError(f"XY fix {gps} at t={t} is not finite")
    if height is not None:
        height = float(height)
        if not math.isfinite(height):
            raise DomainError(f"height {height} at t={t} is not finite")
    return gps, height


def _imu_stacks(frames) -> tuple[np.ndarray, np.ndarray] | None:
    """The accelerometer and attitude channels of ``frames`` as float
    stacks of shape (n, 3) and (n, 4), or ``None`` unless every frame holds
    both as a one-dimensional float ndarray of that length: only the
    per-tick path handles, or refuses, any other record."""
    stacks = []
    for rows, width in (([f.accel_k for f in frames], 3), ([f.quat for f in frames], 4)):
        if (not rows or set(map(type, rows)) != {np.ndarray}
                or {row.shape for row in rows} != {(width,)}):
            return None
        stack = np.concatenate(rows)
        if stack.dtype != np.float64:
            return None
        stacks.append(stack.reshape(-1, width))
    return tuple(stacks)


def _prime(pipelines, frames) -> None:
    """Give each of ``pipelines`` that integrates the accelerometer the
    inertial accelerations its :meth:`~EstimationPipeline.step` would
    compute from ``frames``, one record pass per distinct heading, to be
    read one tick at a time as ``frames`` are stepped in order.

    A record with a frame that lacks either channel primes nothing, and
    so does one that the per-tick path would refuse (a channel not a
    float ndarray of its length, a non-unit quaternion): ``step`` then
    raises the same error at the same tick.
    """
    pipelines = [pipe for pipe in pipelines if pipe.config.use_imu]
    stacks = _imu_stacks(frames) if pipelines else None
    if stacks is None:
        return
    columns = {}
    for pipe in pipelines:
        # Keyed by the bits, since -0.0 and 0.0 compare equal.
        heading = (pipe._cos_g.hex(), pipe._sin_g.hex())
        if heading not in columns:
            try:
                # Flat buffers that make each float as it is read: lists
                # would hold three float objects per tick.
                columns[heading] = [array.array("d", column.tobytes()) for column in
                                    _inertial_accels(*stacks, pipe._cos_g, pipe._sin_g)]
            except DomainError:
                return
        pipe._imu_per_tick = False
        pipe._accels = zip(*columns[heading])
