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
   itself, on geometry constants bound once: the tether leaves the
   reference origin toward the line guide, so the fix is the guide's
   position (:func:`~kitefusion.lineangle._guide_point`) scaled to the
   tether length, with the errors of
   :func:`~kitefusion.lineangle.encoder_to_angles`.  Encoders count in
   whole steps and the wing flies closed paths, so a reading comes back
   loop after loop, and each pipeline holds the fixes it has computed
   (up to ``_FIXES_HELD``) to look them up on the next visit.

Each routing only decides which measurement reaches which axis: a tick
yields one value, the measured position per axis (``None`` on an axis it
does not measure), and the filter corrects every measured axis with it;
:attr:`EstimationPipeline.last_measurement` holds that value.

All three integrate the body accelerometer (rotated into the ground
frame, gravity removed) between position fixes when an attitude estimate
is available.  The velocity angle of the wing is derived from the
corrected state each sample and smoothed by a second-order tracking
observer whose internal angle is kept unwrapped so figure-eight passes
through +-pi do not glitch.

One acceleration per block: the inertial acceleration depends only on
the frame and the heading, so :func:`_prime` computes a block's in one
array pass per distinct heading, for :meth:`EstimationPipeline.step` to
read in lockstep with the block's frames in place of its per-tick
rotation, with the same bits.  :func:`_run` is the one place that primes
and steps: every replay (``kitefusion estimate``, ``kitefusion evaluate``
and :func:`~kitefusion.evalio.compare_approaches`) hands it each block
and consumes the iterators of outputs it returns.
"""

from __future__ import annotations

import array
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

import numpy as np

from .attitude import _inertial_accels, inertial_accel
from .errors import (DegenerateInputError, Domain, DomainError, LogFormatError, _fields, as_real,
                     as_reals, require_finite)
from .frames import TWO_PI, _elevation, _horizontal
from .lineangle import EncoderGeometry, _guide_point, _mount
from .estimator import axis_gain


@dataclass
class SensorFrame:
    """One sample tick of raw sensor data.

    Every field except the timestamp may be absent (``None``): the radio
    sensors run slower than the base rate and entire channels disappear
    when a sensor is not fitted.

    The frame rule: each vector channel (``accel_k``, ``gyro_k``,
    ``quat``, ``gps_xy``, ``encoder``) is held as a tuple of Python floats
    of the width its annotation declares, and each scalar channel (``t``,
    ``baro_z``, ``wind_speed``) as a Python float.  A channel of that form
    is kept as given, the same object.  Any other real number, or a tuple,
    list or 1-D ndarray of them (ints, numpy scalars, float32), is
    converted once, when the frame is built, with ``float()`` per element,
    as ``ndarray.tolist()`` converts a float array, so a float32 or integer
    channel gives the estimates of the same values as float64.  What is not
    a real number by :func:`~kitefusion.errors.is_real` is refused, not
    converted: a vector channel of the wrong length or of another kind
    (text, ``bytes``, an iterator), or a value or entry that is text,
    ``None``, a ``Decimal``, a complex number or a Python or numpy
    ``bool``, raises ``DomainError`` naming the field.  A channel assigned
    after the frame is built is not checked, and must hold Python floats:
    a ``Decimal`` or numpy ``float32`` entry can prime a record whose
    per-tick path raises or computes in that type.  The package's own
    producers, :func:`~kitefusion.simkite.synthesize` and
    :func:`~kitefusion.evalio.read_log`, make their frames from a log
    table by one function, :func:`~kitefusion.evalio._log_data`, which
    builds every channel in this form from ``ndarray.tolist()`` and calls
    :func:`_frames`, which skips the check.

    Attributes
    ----------
    t : float
        Sample time in s.
    accel_k : tuple of 3 floats or None
        Specific force in the body frame, m/s^2.
    gyro_k : tuple of 3 floats or None
        Body angular rate, rad/s.  Carried for completeness; the position
        pipelines do not consume it.
    quat : tuple of 4 floats or None
        Unit attitude quaternion (scalar first), body to NED.
    gps_xy : tuple of 2 floats or None
        Horizontal position fix in the ground frame, m.
    baro_z : float or None
        Barometric height in the ground frame, m.
    encoder : tuple of 2 floats or None
        Line-angle encoder reading ``(theta_b, phi_b)`` at the ground
        station, rad.
    wind_speed : float or None
        Reference wind speed, m/s.  Only used for result binning.
    """

    t: float
    accel_k: tuple[float, float, float] | None = None
    gyro_k: tuple[float, float, float] | None = None
    quat: tuple[float, float, float, float] | None = None
    gps_xy: tuple[float, float] | None = None
    baro_z: float | None = None
    encoder: tuple[float, float] | None = None
    wind_speed: float | None = None

    def __post_init__(self) -> None:
        for name, width in _CHANNELS:
            value = getattr(self, name)
            if value is None and name != "t":
                continue
            if width is None:  # a float comes back as itself
                setattr(self, name, as_real(name, value))
            elif not (type(value) is tuple and len(value) == width
                      and all(type(entry) is float for entry in value)):
                setattr(self, name, as_reals(name, value, width))


#: Each field of a frame and its width: the entries of a vector channel,
#: ``None`` for a scalar one, read off the annotations.
_CHANNELS = tuple((field.name, field.width) for field in _fields(SensorFrame))


def _frames(*columns) -> list[SensorFrame]:
    """The frames of ``columns``, one iterable per field in field order,
    made without :meth:`SensorFrame.__post_init__`: each frame is
    ``object.__new__`` and eight attribute stores in field order.  Every
    value must already follow :class:`SensorFrame`'s frame rule, or be
    ``None``, as the producers' ``ndarray.tolist()`` values are; nothing
    is checked."""
    frames = []
    append, new = frames.append, object.__new__
    for t, accel_k, gyro_k, quat, gps_xy, baro_z, encoder, wind_speed in zip(*columns):
        frame = new(SensorFrame)
        frame.t = t
        frame.accel_k = accel_k
        frame.gyro_k = gyro_k
        frame.quat = quat
        frame.gps_xy = gps_xy
        frame.baro_z = baro_z
        frame.encoder = encoder
        frame.wind_speed = wind_speed
        append(frame)
    return frames


def _tuple_rows(array: np.ndarray):
    """The rows of a 2-D float array as tuples of Python floats, for the
    vector channels of frames.  The floats come from one ``tolist()`` of
    the array in row order, so each row's floats are made one after
    another and lie together in memory.  That builds as fast as zipping
    column lists, and the routing-3 tick ran about 1.6% faster on it (in
    process, 121 of 200 alternating pairs)."""
    return zip(*[iter(array.ravel().tolist())] * array.shape[1])


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

    A ``DomainError`` names the first field not finite or, for a tuple, of
    the wrong length, then the first outside the domain its annotation
    declares (see :func:`~kitefusion.errors.require_finite`), then gains
    that do not stabilize the observer.
    The real fields are kept as Python floats, whatever real type was given.
    """

    r: Annotated[float, Domain.POSITIVE] = 30.0
    phi_g: float = 0.0
    ts: Annotated[float, Domain.POSITIVE] = 0.02
    ratios: Annotated[tuple[float, float, float], Domain.POSITIVE] = (500.0, 500.0, 500.0)
    k_gamma: tuple[float, float] = (0.4, 0.9)
    geometry: EncoderGeometry = field(default_factory=EncoderGeometry)
    approach: Annotated[int, Domain.ROUTING] = 3
    use_imu: bool = True

    def __post_init__(self) -> None:
        require_finite(self)
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


#: Routing-3 fixes one pipeline holds; readings past them are inverted
#: every time.  An encoder counting 400 steps per turn revisits a few
#: hundred reading pairs on a closed flight path (at most 229 in two
#: minutes of a figure-eight at speed scale 4.5).  Unquantized readings
#: never repeat, and without the bound each would stay held.
_FIXES_HELD = 1024

#: Read in place of a rotation where none is made: zeros.  A primed
#: pipeline reads its block's ``(ax, ay, az)`` instead.
_ZEROS = itertools.repeat((0.0, 0.0, 0.0))

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
    p_tilde : tuple, list or array of three floats
        Measured position, m.
    r : float
        Sphere radius (tether length), m.

    Raises
    ------
    DomainError
        If ``p_tilde`` is not three real numbers, ``|p_tilde[2]| > r`` or
        the height is not finite (no elevation angle exists), or an XY
        component is not finite.
    DegenerateInputError
        If the XY components are both exactly zero (no direction to keep),
        or so close to zero that the scale overflows (it would turn a zero
        component into NaN).
    """
    x, y, z = as_reals("p_tilde", p_tilde, 3)
    scale = r * math.cos(_elevation(z, r)) / _horizontal(x, y)
    if scale == math.inf:
        raise DegenerateInputError(f"XY components {x}, {y} too small to scale onto the sphere")
    return x * scale, y * scale, z


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

    The filter state is two tuples of three floats, position and velocity,
    which each output shares as ``p_hat`` and ``v_hat``.  Each tick runs
    three decoupled two-state recursions on their floats with the per-axis
    gains ``(k1, k2)`` read once from
    :func:`~kitefusion.estimator.axis_gain`, then derives the
    sphere angles and the velocity angle and steps the observer, all in
    one straight-line pass on floats.  The heading of the ground frame
    enters only as its cosine and sine, computed once.  Routings 1 and 2
    share one handler for the radio fixes; routing 3 computes its fix in
    that pass, the line guide's position scaled onto the sphere from
    geometry constants bound once, or looks up the fix of a reading it
    has stepped before.
    A pipeline primed by :func:`_run` reads its block's inertial
    accelerations in lockstep with the block's frames, one per step,
    instead of rotating each frame's accelerometer reading; the two agree
    bit for bit.  Only :func:`_run` primes, and its caller steps exactly
    the frames it primed, in order.  A tick that raises ``DomainError`` (a
    non-unit quaternion, a non-finite acceleration, encoder reading, XY
    fix or height) changes no filter state, though its time counts for
    the increasing-time check, so a caller that skips it gets the
    estimates of a run without that frame.  Each routing
    checks the channels it reads: with the IMU on, the acceleration and
    the attitude; routings 1 and 2 the XY fix and the height, routing 3
    the encoder.

    Attributes
    ----------
    last_measurement : tuple or None
        ``(zx, zy, zz)``, the measured position per axis that the most
        recent seeded step corrected with: a float on each axis it
        corrected and ``None`` on the others, or ``None`` where it
        corrected none.  ``None`` through warm-up, the seeding tick
        included; a step that raises leaves it as it was.
    """

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self._gains = tuple(axis_gain(config.ts, ratio) for ratio in config.ratios)
        self._cos_g, self._sin_g = math.cos(config.phi_g), math.sin(config.phi_g)
        # Routing 3's geometry constants and the fix of each encoder
        # reading stepped, up to _FIXES_HELD of them; vertical and raising
        # readings are not held.
        self._mount = _mount(config.geometry) if config.approach == 3 else None
        self._fixes = {}
        self._seed = [None, None, None]
        self._seeded = False
        # The filter state, position and velocity, each a tuple of three
        # floats that the tick's output shares.
        self._p = self._v = (0.0, 0.0, 0.0)
        self._ts, self._r, self._k_gamma = config.ts, config.r, config.k_gamma
        self._imu_per_tick = config.use_imu
        self._accels = _ZEROS
        # The latest height, at which routing 2 rescales an XY fix; NaN,
        # which the rescaling refuses, until the first one arrives.
        self._held_z = math.nan
        self._obs_angle: float | None = None
        self._obs_rate = 0.0
        self._phi_prev = 0.0
        self._last_t = -math.inf
        self.last_measurement: tuple[float | None, float | None, float | None] | None = None

    def step(self, frame: SensorFrame) -> EstimateOutput | None:
        t = frame.t
        if not self._last_t < t < math.inf:
            if not math.isfinite(t):
                raise LogFormatError(f"sample time must be finite, got {t}")
            raise LogFormatError(f"sample times must increase: {t} after {self._last_t}")
        self._last_t = t
        ts = self._ts
        if self._imu_per_tick and frame.accel_k is not None and frame.quat is not None:
            ax, ay, az = inertial_accel(frame.accel_k, frame.quat, self._cos_g, self._sin_g)
        else:
            # The tick's entry of a primed block, or zeros.
            ax, ay, az = next(self._accels)
        if az - az:  # NaN: a non-finite reading rotates to a non-finite height
            raise DomainError(f"accelerometer reading {frame.accel_k} at t={t} is not finite")
        mount = self._mount
        if mount is None:
            measured = self._radio_fix(frame)
        else:
            # Routing 3: the point r * g / |g| of the sphere, g the line
            # guide seen from the reference origin, looked up where this
            # pair of floats was inverted before.  No reading, or a guide
            # on the vertical through the origin, gives no fix.
            measured = None
            reading = frame.encoder
            if reading is not None:
                theta_b, phi_b = reading
                # Keyed only by nonzero angles: -0.0 and 0.0 are one key
                # but can give two fixes.
                key = None
                if theta_b and phi_b:
                    key = theta_b, phi_b
                    measured = self._fixes.get(key)
                if measured is None:
                    try:
                        fwd, side, up = _guide_point(theta_b, phi_b, mount)
                    except ValueError as exc:  # math.sin/cos of an infinite angle
                        raise DomainError(f"encoder reading {reading} is not finite") from exc
                    if fwd != fwd:  # a NaN reading
                        raise DomainError(f"encoder reading {reading} is not finite")
                    if fwd or side:
                        # Each component over the norm first, so that a
                        # guide a subnormal distance away cannot overflow.
                        norm = math.hypot(fwd, side, up)
                        r = self._r
                        measured = (r * (fwd / norm), r * (side / norm), r * (up / norm))
                        if key is not None and len(self._fixes) < _FIXES_HELD:
                            self._fixes[key] = measured
        if self._seeded:
            # Prediction, per axis: p += ts * v with the pre-update
            # velocity, then v += ts * a.
            px, py, pz = self._p
            vx, vy, vz = self._v
            px += ts * vx
            py += ts * vy
            pz += ts * vz
            vx += ts * ax
            vy += ts * ay
            vz += ts * az
            self.last_measurement = measured
            if measured is not None:
                # Correction of each measured axis on its own: e = z - p,
                # p += k1 * e, v += k2 * e.
                zx, zy, zz = measured
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
            if measured is not None:
                for axis, z in enumerate(measured):
                    if z is not None:
                        self._seed[axis] = z
            if None in self._seed:
                return None
            self._seeded = True
            px, py, pz = self._seed
            vx = vy = vz = 0.0
        p = self._p = px, py, pz
        v = self._v = vx, vy, vz

        # Sphere angles of the estimate; the azimuth holds on the zenith
        # axis, and a non-finite height gives a non-finite elevation.
        sin_theta = pz / self._r
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
                return _output(EstimateOutput, (t, p, v, theta, phi, 0.0, 0.0))
            self._obs_angle = angle + ts * rate
        else:
            gamma_meas = math.atan2(v_east, v_north)
            if angle is None:
                angle = gamma_meas
            # Predictor-form observer step: the angle integrates unwrapped
            # while the innovation is wrapped to (-pi, pi].
            innovation = math.pi - (math.pi - (gamma_meas - angle)) % TWO_PI
            k1, k2 = self._k_gamma
            self._obs_angle = angle + ts * rate + k1 * innovation
            self._obs_rate = rate + k2 * innovation
        return _output(EstimateOutput, (t, p, v, theta, phi,
                                        math.pi - (math.pi - angle) % TWO_PI, rate))

    def _radio_fix(self, frame: SensorFrame):
        """Routings 1 and 2: the XY fix and the height as they arrive, as
        ``(x, y, z)`` with ``None`` on each axis the tick does not measure,
        or ``None`` where it measures none.  Routing 2 rescales the XY fix
        onto the sphere at the latest height, and drops it where no height
        has arrived yet or the rescaling fails.

        Raises
        ------
        DomainError
            If a present channel is not finite, naming it, its value and
            the sample time.
        """
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
        if x is None and height is None:
            return None
        return x, y, height


def _stack(rows: list, width: int) -> np.ndarray | None:
    """The channel ``rows`` of a record as one read-only (n, ``width``)
    float array, or None unless every row holds ``width`` numbers.  Each
    row's length is checked first, since a frame's channel may be
    reassigned after it was built: the entries are packed in one run, in
    which a longer row and a shorter one would make up the count.  They
    are packed as C doubles, which take what ``float()`` takes except
    text: ``np.fromiter`` or ``np.array`` would parse ``'1.5'`` as a
    number, where :meth:`EstimationPipeline.step` raises on it."""
    try:
        if set(map(len, rows)) - {width}:
            return None
        packed = struct.pack(f"{width * len(rows)}d", *itertools.chain.from_iterable(rows))
    except (TypeError, struct.error):  # a row absent, or not of numbers
        return None
    return np.frombuffer(packed).reshape(len(rows), width)


def _prime(pipelines, frames) -> None:
    """Put each of ``pipelines`` that integrates the accelerometer back on
    its per-tick rotation, then, where the block ``frames`` allows, give
    it the inertial accelerations its :meth:`~EstimationPipeline.step`
    would compute from ``frames``, one block pass per distinct heading,
    to be read one tick at a time as ``frames`` are stepped in order.
    Only :func:`_run` calls it.

    A block with a frame that lacks either channel primes nothing, and
    so does one that the per-tick path would refuse (a non-unit
    quaternion, an acceleration not finite): ``step`` then raises the
    same error at the same tick.
    """
    pipelines = [pipe for pipe in pipelines if pipe.config.use_imu]
    # A block primed before is spent: without this, a block that primes
    # nothing would read past its end and end the run early.
    for pipe in pipelines:
        pipe._imu_per_tick, pipe._accels = True, _ZEROS
    if not pipelines:
        return
    accels = _stack([f.accel_k for f in frames], 3)
    quats = _stack([f.quat for f in frames], 4)
    if accels is None or quats is None or not np.isfinite(accels).all():
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
                                    _inertial_accels(accels, quats, pipe._cos_g, pipe._sin_g)]
            except DomainError:
                return
        pipe._imu_per_tick = False
        pipe._accels = zip(*columns[heading])


def _run(pipelines, frames) -> list:
    """One lazy iterator of outputs per pipeline of ``pipelines``, each
    stepping it over the block ``frames``: the one place that primes
    (:func:`_prime`), for every replay.  Each iterator must be consumed
    in full, routing by routing or tick by tick, before the next call."""
    _prime(pipelines, frames)
    return [map(pipe.step, frames) for pipe in pipelines]
