"""Synthetic figure-eight flights with a realistic sensor suite.

The wing rides the tether sphere on a Lissajous pattern: the elevation
oscillates at twice the azimuth frequency, which traces the familiar
lying-eight of crosswind operation.  Position, velocity, acceleration,
attitude and velocity angle all come from closed-form derivatives of the
pattern, so the truth channel is exact and independent of any estimator.

The attitude convention points the body x axis along the velocity and
the body z axis down the tether toward the ground station; that keeps
the wing flying "nose first" the way a rigid kite actually does.

:func:`synthesize` turns a pattern plus a noise budget into the sample
stream consumed by the estimation pipelines: a 50 Hz IMU and attitude
channel, delayed low-rate horizontal satellite fixes, a quantized
barometric height at its own rate, and line-angle encoder readings
obtained by inverting the ground-station geometry in closed form for
every tick.  Every channel is evaluated over the whole time vector at
once: the encoder channel by the one closed-form inversion, the array
form that :func:`~kitefusion.lineangle.angles_to_encoder` calls on one
row, rounding to the encoder grid included; the fixes from the
positions alone (they need no attitude or velocity angle).  The noise
pass, :func:`_record`, fills the record's one form, the log table of
:mod:`~kitefusion.evalio` with its empty-cell mask, field by field; of
several fixes that arrive on one tick, the last is kept, and the truth
columns are filled only for a caller that keeps them.  ``kitefusion
simulate`` writes that table without making frames, and
:func:`synthesize` makes its frames from it by the reader's frame maker,
:func:`~kitefusion.evalio._log_data`, and its per-tick truth objects from
the flight by ``map`` with no Python loop body.  Each output equals, bit
for bit, what the tick-by-tick formulas give.  Faster
flights come from a pure time dilation of the pattern, so one knob
scales every speed and acceleration together.

A record the synthesizer's arithmetic cannot make is refused before any
array is made, with a ``DomainError`` naming its fields
(:func:`_require_fits`): more ticks or fixes than an array holds, or a
bias, attitude noise, guide geometry or height resolution whose products
overflow float64.  These limits bind only the synthesizer, so an
``EncoderGeometry`` past them still serves an estimator.

Only the sensor noise depends on the seed, so the noise-free flight (the
truth, the body rates, the specific force and the encoder readings) is
computed once per pattern, ``_BLOCK`` ticks at a time past the pattern
angles, and shared by every seed's record: up to four
flights are held, one per speed bin of the default report, as read-only
float arrays only, about 0.35 MB for a 40 s flight at 50 Hz.  A record
from a held flight is the one a fresh process would synthesize, bit for
bit, and its truth arrays are its own.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, fields
from typing import Annotated, NamedTuple

import numpy as np

from .attitude import GRAVITY, body_rates_between, quats_to_rots, rot_to_quat
from .errors import DegenerateInputError, Domain, DomainError, require_finite, require_positive
from .evalio import FRAME_COLUMNS, TRUTH_COLUMNS, _blank_table, _fill, _log_data
from .frames import _libm, rot_ned_to_g
from .lineangle import EncoderGeometry, _angles_to_encoders
from .pipelines import SensorFrame

DEG = math.pi / 180.0

#: The default tick period, s.
_TS = 0.02

#: Ticks per stacked-matrix stage: bounds the (n, 3, 3) temporaries of
#: long records to a few tens of kilobytes each.
_BLOCK = 512


@dataclass(frozen=True)
class TrajectoryParams:
    """Figure-eight pattern on the tether sphere.

    The elevation runs at twice the azimuth frequency:

        theta(t) = theta0 + a_theta * sin(4 pi f s t + theta_phase)
        phi(t)   = phi0   + a_phi   * sin(2 pi f s t)

    with ``s`` the speed scale.  ``f_loop`` is the azimuth frequency at
    unit speed scale, i.e. full eights per second.  Every field must be
    finite, and ``r``, ``f_loop``, ``speed_scale`` and ``duration``
    positive, as their annotations declare (see
    :func:`~kitefusion.errors.require_finite`); a ``DomainError`` names
    the first that is not.
    The fields are kept as Python floats, whatever real type was given.
    A pattern whose peak speed squared or peak acceleration, bounded from
    ``r``, the amplitudes, ``f_loop`` and ``speed_scale``, overflows
    float64 is refused by name too, before any array is built, and so is
    a moving pattern (a nonzero amplitude) whose peak speed squared falls
    below the smallest normal float, which would read as standing still.

    Attributes
    ----------
    r : float
        Tether length, m, positive.
    theta0, phi0 : float
        Pattern centre, rad.
    a_theta, a_phi : float
        Oscillation amplitudes, rad.
    f_loop : float
        Pattern frequency at unit speed scale, Hz, positive.
    speed_scale : float
        Time-dilation factor, positive; doubles every velocity when doubled.
    duration : float
        Length of the synthesized record, s, positive.
    phi_g : float
        Heading of the ground frame's downwind axis in NED, rad.
    theta_phase : float
        Phase offset of the elevation oscillation, rad.  Zero gives the
        crossing eight; pi/2 degenerates the pattern into an arc.
    """

    r: Annotated[float, Domain.POSITIVE] = 30.0
    theta0: float = 0.7
    phi0: float = 0.0
    a_theta: float = 0.15
    a_phi: float = 0.75
    f_loop: Annotated[float, Domain.POSITIVE] = 0.16
    speed_scale: Annotated[float, Domain.POSITIVE] = 1.0
    duration: Annotated[float, Domain.POSITIVE] = 60.0
    phi_g: float = 0.0
    theta_phase: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        lo = self.theta0 - abs(self.a_theta)
        hi = self.theta0 + abs(self.a_theta)
        if not (0.0 < lo and hi < math.pi / 2.0):
            raise DomainError(
                "pattern must stay strictly inside the upwind hemisphere: "
                f"elevation sweeps [{lo}, {hi}]")
        # Bounds on the pattern's peak speed and acceleration, as products,
        # which reach inf where ``**`` raises OverflowError.  The angles'
        # rates, and the elevation's squared frequency 4 w**2 on its own,
        # are computed before ``r`` scales them, so ``r`` counts as 1 at
        # least.  The synthesizer sums three products of each peak (the
        # speed's dot product, the rows of the rotated acceleration), so
        # three times each must be finite.
        w = 2.0 * math.pi * self.f_loop * self.speed_scale  # azimuth, rad/s
        rate = (2.0 * abs(self.a_theta) + abs(self.a_phi)) * w
        scale = max(self.r, 1.0)
        speed = scale * rate
        accel = scale * (rate * rate + (4.0 * abs(self.a_theta) + abs(self.a_phi) + 4.0) * w * w)
        named = (f"r={self.r}, a_theta={self.a_theta}, a_phi={self.a_phi}, "
                 f"f_loop={self.f_loop}, speed_scale={self.speed_scale}")
        for what, peak in (("speed", speed * speed), ("acceleration", accel)):
            if not math.isfinite(3.0 * peak):
                raise DomainError(f"pattern {what} overflows float64: {named}")
        # A pattern that moves, but whose peak speed squared, bounded from
        # the actual ``r``, falls below the smallest normal float, would
        # read as standing still: its velocity's squares underflow.
        if (self.a_theta or self.a_phi) and not (self.r * rate) ** 2 >= sys.float_info.min:
            raise DomainError(f"pattern speed underflows float64: {named}")


class TruthSample(NamedTuple):
    """Exact wing state at one instant: position, velocity and
    acceleration in the ground frame, attitude quaternion (body to NED,
    scalar first) and velocity angle."""

    t: float
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    q: np.ndarray
    gamma: float


def _pattern_angles(params: TrajectoryParams, t: np.ndarray):
    """Sphere angles and their first two time derivatives at the times
    ``t``."""
    s = params.speed_scale
    w_th = 4.0 * math.pi * params.f_loop * s
    w_ph = 2.0 * math.pi * params.f_loop * s
    arg_th = w_th * t + params.theta_phase
    arg_ph = w_ph * t
    th = params.theta0 + params.a_theta * np.sin(arg_th)
    thd = params.a_theta * w_th * np.cos(arg_th)
    thdd = -params.a_theta * w_th ** 2 * np.sin(arg_th)
    ph = params.phi0 + params.a_phi * np.sin(arg_ph)
    phd = params.a_phi * w_ph * np.cos(arg_ph)
    phdd = -params.a_phi * w_ph ** 2 * np.sin(arg_ph)
    return th, ph, thd, phd, thdd, phdd


def _blocks(n: int):
    """Consecutive slices of at most ``_BLOCK`` ticks covering ``range(n)``."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK)]


def _square(x: np.ndarray) -> np.ndarray:
    """Element-wise ``x ** 2`` by libm's ``pow``, which can differ from
    numpy's squaring in the last bit."""
    return _libm(math.pow, x, np.full_like(x, 2.0))


def _position(r: float, th: np.ndarray, ph: np.ndarray):
    """Points at elevations ``th`` and azimuths ``ph`` on the sphere of
    radius ``r``, one row per angle pair, with the sines and cosines
    ``(st, ct, sp, cp)`` of the angles."""
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    return r * np.stack([ct * cp, ct * sp, st], axis=-1), (st, ct, sp, cp)


def _fixes(params: TrajectoryParams, t: np.ndarray) -> np.ndarray:
    """Wing positions at the times ``t``, one row per time: all that the
    satellite and barometer fixes take from the truth."""
    th, ph, *_ = _pattern_angles(params, t)
    return _position(params.r, th, ph)[0]


def _truth(params: TrajectoryParams, t: np.ndarray, angles):
    """Position, velocity, acceleration, quaternion and velocity angle at
    the times ``t``, one row per time, from their :func:`_pattern_angles`
    ``angles``, computed ``_BLOCK`` ticks at a time.  Raises
    ``DegenerateInputError`` at the first time the pattern velocity
    vanishes."""
    r = params.r
    rot_n2g = rot_ned_to_g(params.phi_g)  # self-inverse map
    n = len(t)
    p, v, a, q = (np.empty((n, width)) for width in (3, 3, 3, 4))
    gamma = np.empty(n)
    for rows in _blocks(n):
        th, ph, thd, phd, thdd, phdd = (angle[rows] for angle in angles)
        p[rows], (st, ct, sp, cp) = _position(r, th, ph)
        thd2, phd2 = _square(thd), _square(phd)
        v[rows] = r * np.stack([-st * thd * cp - ct * sp * phd,
                                -st * thd * sp + ct * cp * phd,
                                ct * thd], axis=-1)
        a[rows] = r * np.stack([
            -ct * cp * (thd2 + phd2) - st * cp * thdd
            + 2.0 * st * sp * thd * phd - ct * sp * phdd,
            -ct * sp * (thd2 + phd2) - st * sp * thdd
            - 2.0 * st * cp * thd * phd + ct * cp * phdd,
            -st * thd2 + ct * thdd,
        ], axis=-1)
        speed = np.sqrt(v[rows, None, :] @ v[rows, :, None])[:, 0]
        stopped = np.flatnonzero(speed == 0.0)
        if stopped.size:
            raise DegenerateInputError(f"pattern velocity vanishes at t={t[rows][stopped[0]]}")
        # body x along the velocity, body z down the tether; y completes
        x_k = v[rows] / speed
        z_k = -p[rows] / r
        y_k = np.cross(z_k, x_k)
        q[rows] = rot_to_quat(rot_n2g @ np.stack([x_k, y_k, z_k], axis=-1))
        gamma[rows] = _libm(math.atan2, ct * phd, thd)
    return p, v, a, q, gamma


@dataclass(frozen=True)
class NoiseSpec:
    """Noise and cadence budget of the sensor suite.

    Noise densities are converted to per-sample deviations with the
    sampling bandwidth (half the tick rate).  Bias limits are the half
    width of a uniform draw made once per record.  A rate of zero removes
    the channel entirely; a zero resolution or line count disables the
    corresponding quantization.  Every field must be finite and, as its
    annotation declares, not negative (see
    :func:`~kitefusion.errors.require_finite`); a ``DomainError`` names
    the first one that is not.  The real fields are kept as Python
    floats, whatever real type was given.  The limits that the
    synthesizer's arithmetic sets are checked when a record is made (see
    :func:`_require_fits`).

    Attributes
    ----------
    accel_density_g : float
        Accelerometer noise density, g/sqrt(Hz).
    accel_bias_g : float
        Accelerometer bias limit, g.
    gyro_density_dps : float
        Rate gyro noise density, (deg/s)/sqrt(Hz).
    gyro_bias_dps : float
        Rate gyro bias limit, deg/s.
    gyro_range_dps : float
        Rate gyro clipping range, deg/s; zero disables clipping.
    gps_sigma_xy : float
        Horizontal fix deviation per component, m.
    gps_rate : float
        Fix rate, Hz.
    gps_latency : float
        Delay between a fix being taken and arriving in the stream, s.
    baro_resolution : float
        Height quantization step, m.
    baro_rate : float
        Height sample rate, Hz.
    attitude_rms_deg : float
        Per-axis attitude error, deg RMS.
    encoder_cpr : int
        Line count of the angle encoders; zero for ideal readings.
    seed : int
        Seed of the generator used for every random draw.
    """

    accel_density_g: Annotated[float, Domain.NOT_NEGATIVE] = 2.5e-4
    accel_bias_g: Annotated[float, Domain.NOT_NEGATIVE] = 4e-3
    gyro_density_dps: Annotated[float, Domain.NOT_NEGATIVE] = 5e-2
    gyro_bias_dps: Annotated[float, Domain.NOT_NEGATIVE] = 0.1
    gyro_range_dps: Annotated[float, Domain.NOT_NEGATIVE] = 300.0
    gps_sigma_xy: Annotated[float, Domain.NOT_NEGATIVE] = 2.5
    gps_rate: Annotated[float, Domain.NOT_NEGATIVE] = 4.0
    gps_latency: Annotated[float, Domain.NOT_NEGATIVE] = 0.2
    baro_resolution: Annotated[float, Domain.NOT_NEGATIVE] = 0.2
    baro_rate: Annotated[float, Domain.NOT_NEGATIVE] = 9.0
    attitude_rms_deg: Annotated[float, Domain.NOT_NEGATIVE] = 1.0
    encoder_cpr: Annotated[int, Domain.NOT_NEGATIVE] = 400
    seed: Annotated[int, Domain.NOT_NEGATIVE] = 0

    def __post_init__(self) -> None:
        require_finite(self)

    @classmethod
    def none(cls, seed: int = 0) -> "NoiseSpec":
        """Ideal sensors: same cadences, no noise, no delay, no
        quantization."""
        return cls(accel_density_g=0.0, accel_bias_g=0.0,
                   gyro_density_dps=0.0, gyro_bias_dps=0.0,
                   gps_sigma_xy=0.0, gps_latency=0.0,
                   baro_resolution=0.0, attitude_rms_deg=0.0,
                   encoder_cpr=0, seed=seed)


def _small_rotations(delta: np.ndarray) -> np.ndarray:
    """Rotation matrices, shape (n, 3, 3), for the rotation vectors
    ``delta``, shape (n, 3) (Rodrigues); identity for a zero vector."""
    angle = np.sqrt(delta[:, None, :] @ delta[:, :, None])[:, 0]
    axis = np.divide(delta, angle, out=np.zeros_like(delta), where=angle != 0.0)
    kx, ky, kz = axis.T
    zero = np.zeros_like(kx)
    K = np.stack([zero, -kz, ky, kz, zero, -kx, -ky, kx, zero], axis=-1).reshape(-1, 3, 3)
    angle = angle[:, :, None]
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _fix_schedule(rate: float, latency: float, ts: float, n: int):
    """Times and arrival ticks of the samples a channel at ``rate`` Hz
    delivers within ``n`` ticks; none when ``rate`` is zero or ``latency``
    reaches past the record.  Sample ``k``,
    taken at ``k / rate``, arrives on the first tick not before
    ``k / rate + latency``."""
    # With a non-negative latency, a sample taken after n * ts, or any
    # sample once the latency reaches n * ts, arrives too late; so no
    # sample past those is computed, and every time and tick stays finite.
    if not (rate > 0.0 and latency < n * ts):
        return np.empty(0), []
    times = np.arange(math.floor(rate * n * ts) + 1) / rate
    ticks = np.ceil((times + latency) / ts - 1e-9)
    keep = ticks < n
    return times[keep], ticks[keep].astype(int).tolist()


class _Flight(NamedTuple):
    """What a record takes from its pattern alone, one row per tick, every
    array read-only: the truth ``p``, ``v``, ``a``, sign-continuous ``q``
    and ``gamma``; the body ``rates`` before bias, noise and clipping; the
    body-frame specific ``force``; and the ``encoders`` readings
    ``(theta_b, phi_b)``."""

    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    q: np.ndarray
    gamma: np.ndarray
    rates: np.ndarray
    force: np.ndarray
    encoders: np.ndarray


def _bits(*specs) -> tuple[str, ...]:
    """The exact bits of every field of the float dataclasses ``specs``,
    which tell -0.0 from 0.0 where the fields compare equal."""
    return tuple(getattr(spec, f.name).hex() for spec in specs for f in fields(spec))


# One flight per speed bin of the default report; a 40 s flight at 50 Hz
# takes about 0.35 MB.
@functools.lru_cache(maxsize=4)
def _flight(bits: tuple[str, ...], params: TrajectoryParams, geometry: EncoderGeometry,
            ts: float, counts_per_rev: int) -> _Flight:
    """The :class:`_Flight` of ``params`` and ``geometry`` at the tick
    period ``ts`` and encoder line count ``counts_per_rev``, held for the
    next record of the same pattern: ``bits``, their :func:`_bits`, keeps
    patterns that differ in a signed zero apart (a positive ``ts`` has no
    other float of its value).  A flight that raises is not held."""
    n = int(round(params.duration / ts))
    t = np.arange(n) * ts
    angles = _pattern_angles(params, t)
    p, v, a, q, gamma = _truth(params, t, angles)
    # Keep the quaternions sign-continuous: flip every one whose dot
    # product with its (already continuous) predecessor is negative.
    turns = np.cumsum((q[:-1, None, :] @ q[1:, :, None])[:, 0, 0] < 0.0) % 2
    q[1:][turns == 1] *= -1.0

    rates = np.zeros((n, 3))
    for rows in _blocks(n - 1):  # tick k + 1's rates carry q[k] to q[k + 1]
        rates[1:][rows] = body_rates_between(q[:-1][rows], q[1:][rows], ts)
    if n > 1:
        rates[0] = rates[1]

    rot_n2g = rot_ned_to_g(params.phi_g)
    gravity_g = np.array([0.0, 0.0, GRAVITY])
    force, encoders = np.empty((n, 3)), np.empty((n, 2))
    for rows in _blocks(n):
        rot_k_to_ned = quats_to_rots(q[rows])
        force[rows] = (rot_k_to_ned.transpose(0, 2, 1)
                       @ (rot_n2g @ (a[rows] - gravity_g)[:, :, None]))[:, :, 0]
        encoders[rows] = _angles_to_encoders(angles[0][rows], angles[1][rows], geometry,
                                             counts_per_rev)
    flight = _Flight(p, v, a, q, gamma, rates, force, encoders)
    for column in flight:
        column.flags.writeable = False
    return flight


def _last_per_tick(ticks: list[int], values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``values`` and the ``ticks`` (in increasing order) of the
    samples that are the last to arrive on their tick."""
    ticks = np.array(ticks, dtype=int)
    last = np.ones(len(ticks), dtype=bool)
    last[:-1] = ticks[1:] != ticks[:-1]
    return values[last], ticks[last]


#: The most rows an array of the log's width holds: numpy refuses an array
#: of more than ``sys.maxsize`` bytes.
_MAX_ROWS = sys.maxsize // (8 * len(FRAME_COLUMNS + TRUTH_COLUMNS))

#: How many deviations from its mean a draw of numpy's normal generator
#: can lie, with a margin: its ziggurat sampler's tail ends at 13.71.
_NORMAL_REACH = 16.0


def _require_fits(params: TrajectoryParams, noise: NoiseSpec, geometry: EncoderGeometry,
                  ts: float) -> None:
    """``DomainError`` naming the fields of a record the synthesizer's
    arithmetic cannot make, before anything is drawn or allocated: more
    ticks ``duration / ts`` or fixes ``duration * rate`` than an array
    holds (``_MAX_ROWS``), a bias whose uniform draw (of range twice the
    bias) or scaling to SI units overflows, an attitude noise whose
    squared rotation angle (of three draws) can overflow, a guide
    geometry whose products in the encoder inversion overflow, or a
    height resolution that quantizes heights up to ``r`` to infinity."""
    duration = params.duration
    if not duration / ts <= _MAX_ROWS:
        raise DomainError(f"record of {duration / ts:g} ticks does not fit an array: "
                          f"duration={duration}, ts={ts}")
    for name in ("gps_rate", "baro_rate"):
        rate = getattr(noise, name)
        if not duration * rate <= _MAX_ROWS:
            raise DomainError(f"record of {duration * rate:g} fixes does not fit an array: "
                              f"duration={duration}, {name}={rate}")
    for name, scale in (("accel_bias_g", GRAVITY), ("gyro_bias_dps", DEG)):
        bias = getattr(noise, name)
        if not (math.isfinite(2.0 * bias) and math.isfinite(bias * scale)):
            raise DomainError(f"bias draw overflows float64: {name}={bias}")
    reach = _NORMAL_REACH * noise.attitude_rms_deg * DEG
    if not math.isfinite(3.0 * reach * reach):
        raise DomainError("attitude noise overflows the squared rotation angle: "
                          f"attitude_rms_deg={noise.attitude_rms_deg}")
    # Every product in the inversion's discriminant is at most 8 times the
    # largest offset squared.
    offsets = {f.name: getattr(geometry, f.name) for f in fields(geometry)}
    largest = max(map(abs, offsets.values()))
    if not math.isfinite(8.0 * largest * largest):
        raise DomainError("guide geometry overflows the encoder inversion: "
                          + ", ".join(f"{name}={value}" for name, value in offsets.items()))
    if noise.baro_resolution > 0.0 and not math.isfinite(params.r / noise.baro_resolution):
        raise DomainError("height quantization overflows float64: "
                          f"baro_resolution={noise.baro_resolution}, r={params.r}")


def _record(params: TrajectoryParams, noise: NoiseSpec, geometry: EncoderGeometry,
            ts: float = _TS, has_truth: bool = False) -> tuple[np.ndarray, np.ndarray, _Flight]:
    """The noise pass: the log table of one flight, with its truth columns
    filled if ``has_truth``, its mask of empty cells (see
    :func:`~kitefusion.evalio._write_table`) and the noise-free
    :class:`_Flight` whose truth it carries.  The other arguments are
    :func:`synthesize`'s, checked by :func:`_require_fits` before any
    array is made."""
    require_positive("ts", ts)
    ts = float(ts)
    _require_fits(params, noise, geometry, ts)
    n = int(round(params.duration / ts))
    rng = np.random.default_rng(noise.seed)
    bandwidth = 0.5 / ts
    sigma_accel = noise.accel_density_g * math.sqrt(bandwidth) * GRAVITY
    sigma_gyro = noise.gyro_density_dps * math.sqrt(bandwidth) * DEG
    accel_bias = rng.uniform(-noise.accel_bias_g, noise.accel_bias_g, 3) * GRAVITY
    gyro_bias = rng.uniform(-noise.gyro_bias_dps, noise.gyro_bias_dps, 3) * DEG
    flight = _flight(_bits(params, geometry), params, geometry, ts, noise.encoder_cpr)
    # The table is made after the flight, so that the flight's temporaries
    # are freed before it takes its memory.
    table, empty = _blank_table(n, has_truth)
    fill = functools.partial(_fill, table, empty)

    gps_times, gps_ticks = _fix_schedule(noise.gps_rate, noise.gps_latency, ts, n)
    gps_xy = (_fixes(params, gps_times)[:, :2]
              + rng.normal(0.0, noise.gps_sigma_xy, (len(gps_times), 2)))
    fill("gps_xy", *_last_per_tick(gps_ticks, gps_xy))

    baro_times, baro_ticks = _fix_schedule(noise.baro_rate, 0.0, ts, n)
    baro_z = _fixes(params, baro_times)[:, 2]
    if noise.baro_resolution > 0.0:
        baro_z = np.floor(baro_z / noise.baro_resolution + 0.5) * noise.baro_resolution
    fill("baro_z", *_last_per_tick(baro_ticks, baro_z))

    # Per tick, in draw order: accelerometer, gyro and attitude-tilt noise.
    sigmas = np.repeat([sigma_accel, sigma_gyro, noise.attitude_rms_deg * DEG], 3)
    draws = rng.normal(0.0, sigmas, (n, 9))
    fill("t", np.arange(n) * ts)
    fill("accel_k", flight.force + accel_bias + draws[:, 0:3])
    gyro = flight.rates + gyro_bias + draws[:, 3:6]
    gyro_limit = noise.gyro_range_dps * DEG
    if gyro_limit > 0.0:
        gyro = np.clip(gyro, -gyro_limit, gyro_limit)
    fill("gyro_k", gyro)
    for rows in _blocks(n):
        rot_k_to_ned = quats_to_rots(flight.q[rows])
        fill("quat", rot_to_quat(rot_k_to_ned @ _small_rotations(draws[rows, 6:9])), rows)
    fill("encoder", flight.encoders)
    fill("wind_speed", params.speed_scale)
    if has_truth:
        for name in ("p", "v", "gamma"):
            fill(name, getattr(flight, name))
    return table, empty, flight


def synthesize(params: TrajectoryParams = TrajectoryParams(),
               noise: NoiseSpec = NoiseSpec(),
               geometry: EncoderGeometry = EncoderGeometry(),
               ts: float = _TS) -> tuple[list[SensorFrame], list[TruthSample]]:
    """Generate one flight record.

    Returns the sensor stream and the matching truth sequence, one entry
    per tick.  Satellite fixes carry the wing position at the moment the
    fix was taken but appear in the stream only after the configured
    latency; no channel is ever backdated.  Truth quaternions are kept
    sign-continuous from tick to tick so consumers can difference them.
    Each call returns arrays of its own, which the caller may write.
    The frames are made from the log table of one noise pass, which
    ``kitefusion simulate`` writes without making them, by the reader's
    frame maker; the truth from the noise-free flight.

    Parameters
    ----------
    params : TrajectoryParams
        Flight pattern.
    noise : NoiseSpec
        Sensor budget; use :meth:`NoiseSpec.none` for ideal sensors.
    geometry : EncoderGeometry
        Ground-station mechanism for the encoder channel.
    ts : float
        Tick period, s, positive; any real number (not a ``bool``, see
        :func:`~kitefusion.errors.is_real`) is converted once with
        ``float()``, so ``np.float32(0.02)`` gives the record of
        ``float(np.float32(0.02))``, and anything else raises ``DomainError``.

    A record past the synthesizer's limits raises ``DomainError`` naming
    its fields before any array is made (see :func:`_require_fits`).
    """
    table, empty, flight = _record(params, noise, geometry, ts)
    frames, _ = _log_data(table, empty, has_truth=False)
    truth = list(map(tuple.__new__, itertools.repeat(TruthSample),
                     zip(table[:, 0].tolist(), flight.p.copy(), flight.v.copy(), flight.a.copy(),
                         flight.q.copy(), flight.gamma.tolist())))
    return frames, truth
