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
positions alone (they need no attitude or velocity angle).  The
per-tick truth objects are built by ``map`` with no Python loop body,
and the frames by :func:`~kitefusion.pipelines._frames`, without the
frame check, from channels made by ``tolist()`` in the form of
:class:`~kitefusion.pipelines.SensorFrame`'s frame rule.  Each output
equals, bit for bit, what the tick-by-tick formulas give.  Faster
flights come from a pure time dilation of the pattern, so one knob
scales every speed and acceleration together.

Only the sensor noise depends on the seed, so the noise-free flight (the
truth, the body rates, the specific force and the encoder readings) is
computed once per pattern and shared by every seed's record: up to four
flights are held, one per speed bin of the default report, as read-only
float arrays only, about 0.35 MB for a 40 s flight at 50 Hz.  A record
from a held flight is the one a fresh process would synthesize, bit for
bit, and its truth arrays are its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .attitude import GRAVITY, body_rates_between, quats_to_rots, rot_to_quat
from .errors import DegenerateInputError, DomainError, require_finite, require_positive
from .frames import _libm, rot_ned_to_g
from .lineangle import EncoderGeometry, _angles_to_encoders
from .pipelines import SensorFrame, _frames, _tuple_rows

DEG = math.pi / 180.0

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
    finite, the marked ones positive; a ``DomainError`` names the first that is not.
    The fields are kept as Python floats, whatever real type was given.
    A pattern whose peak speed squared or peak acceleration, bounded from
    ``r``, the amplitudes, ``f_loop`` and ``speed_scale``, overflows
    float64 is refused by name too, before any array is built.

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

    r: float = 30.0
    theta0: float = 0.7
    phi0: float = 0.0
    a_theta: float = 0.15
    a_phi: float = 0.75
    f_loop: float = 0.16
    speed_scale: float = 1.0
    duration: float = 60.0
    phi_g: float = 0.0
    theta_phase: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        for name in ("r", "f_loop", "speed_scale", "duration"):
            require_positive(name, getattr(self, name))
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
        for what, peak in (("speed", speed * speed), ("acceleration", accel)):
            if not math.isfinite(3.0 * peak):
                raise DomainError(
                    f"pattern {what} overflows float64: r={self.r}, a_theta={self.a_theta}, "
                    f"a_phi={self.a_phi}, f_loop={self.f_loop}, speed_scale={self.speed_scale}")


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
    ``angles``.  Raises ``DegenerateInputError`` where the pattern
    velocity vanishes."""
    th, ph, thd, phd, thdd, phdd = angles
    r = params.r
    p, (st, ct, sp, cp) = _position(r, th, ph)
    thd2, phd2 = _square(thd), _square(phd)
    v = r * np.stack([-st * thd * cp - ct * sp * phd,
                      -st * thd * sp + ct * cp * phd,
                      ct * thd], axis=-1)
    a = r * np.stack([
        -ct * cp * (thd2 + phd2) - st * cp * thdd
        + 2.0 * st * sp * thd * phd - ct * sp * phdd,
        -ct * sp * (thd2 + phd2) - st * sp * thdd
        - 2.0 * st * cp * thd * phd + ct * cp * phdd,
        -st * thd2 + ct * thdd,
    ], axis=-1)
    speed = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
    stopped = np.flatnonzero(speed == 0.0)
    if stopped.size:
        raise DegenerateInputError(f"pattern velocity vanishes at t={t[stopped[0]]}")
    # body x along the velocity, body z down the tether; y completes
    x_k = v / speed
    z_k = -p / r
    y_k = np.cross(z_k, x_k)
    rot_n2g = rot_ned_to_g(params.phi_g)  # self-inverse map
    q = np.empty((len(t), 4))
    for rows in _blocks(len(t)):
        rot_k_to_g = np.stack([x_k[rows], y_k[rows], z_k[rows]], axis=-1)
        q[rows] = rot_to_quat(rot_n2g @ rot_k_to_g)
    gamma = _libm(math.atan2, ct * phd, thd)
    return p, v, a, q, gamma


@dataclass(frozen=True)
class NoiseSpec:
    """Noise and cadence budget of the sensor suite.

    Noise densities are converted to per-sample deviations with the
    sampling bandwidth (half the tick rate).  Bias limits are the half
    width of a uniform draw made once per record.  A rate of zero removes
    the channel entirely; a zero resolution or line count disables the
    corresponding quantization.  Every field must be finite and not
    negative; a ``DomainError`` names the first one that is not.  The
    real fields are kept as Python floats, whatever real type was given.

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

    accel_density_g: float = 2.5e-4
    accel_bias_g: float = 4e-3
    gyro_density_dps: float = 5e-2
    gyro_bias_dps: float = 0.1
    gyro_range_dps: float = 300.0
    gps_sigma_xy: float = 2.5
    gps_rate: float = 4.0
    gps_latency: float = 0.2
    baro_resolution: float = 0.2
    baro_rate: float = 9.0
    attitude_rms_deg: float = 1.0
    encoder_cpr: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise DomainError(f"{field.name} must not be negative, got {value}")

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
    delivers within ``n`` ticks; none when ``rate`` is zero.  Sample ``k``,
    taken at ``k / rate``, arrives on the first tick not before
    ``k / rate + latency``."""
    if not rate > 0.0:
        return np.empty(0), []
    # The last sample is taken after n * ts, so with a non-negative
    # latency it arrives too late: the range holds every sample kept.
    times = np.arange(math.floor(rate * n * ts) + 2) / rate
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
    if n > 1:
        rates[1:] = body_rates_between(q[:-1], q[1:], ts)
        rates[0] = rates[1]

    rot_n2g = rot_ned_to_g(params.phi_g)
    gravity_g = np.array([0.0, 0.0, GRAVITY])
    force = np.empty((n, 3))
    for rows in _blocks(n):
        rot_k_to_ned = quats_to_rots(q[rows])
        force[rows] = (rot_k_to_ned.transpose(0, 2, 1)
                       @ (rot_n2g @ (a[rows] - gravity_g)[:, :, None]))[:, :, 0]
    encoders = np.array(_angles_to_encoders(angles[0], angles[1], geometry, counts_per_rev),
                        dtype=float).reshape(n, 2)
    flight = _Flight(p, v, a, q, gamma, rates, force, encoders)
    for column in flight:
        column.flags.writeable = False
    return flight


def synthesize(params: TrajectoryParams = TrajectoryParams(),
               noise: NoiseSpec = NoiseSpec(),
               geometry: EncoderGeometry = EncoderGeometry(),
               ts: float = 0.02) -> tuple[list[SensorFrame], list[TruthSample]]:
    """Generate one flight record.

    Returns the sensor stream and the matching truth sequence, one entry
    per tick.  Satellite fixes carry the wing position at the moment the
    fix was taken but appear in the stream only after the configured
    latency; no channel is ever backdated.  Truth quaternions are kept
    sign-continuous from tick to tick so consumers can difference them.
    Each call returns arrays of its own, which the caller may write.

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
    """
    require_positive("ts", ts)
    ts = float(ts)
    n = int(round(params.duration / ts))
    rng = np.random.default_rng(noise.seed)
    bandwidth = 0.5 / ts
    sigma_accel = noise.accel_density_g * math.sqrt(bandwidth) * GRAVITY
    sigma_gyro = noise.gyro_density_dps * math.sqrt(bandwidth) * DEG
    accel_bias = rng.uniform(-noise.accel_bias_g, noise.accel_bias_g, 3) * GRAVITY
    gyro_bias = rng.uniform(-noise.gyro_bias_dps, noise.gyro_bias_dps, 3) * DEG

    gps_times, gps_ticks = _fix_schedule(noise.gps_rate, noise.gps_latency, ts, n)
    gps_xy = (_fixes(params, gps_times)[:, :2]
              + rng.normal(0.0, noise.gps_sigma_xy, (len(gps_times), 2)))
    gps_at = dict(zip(gps_ticks, _tuple_rows(gps_xy)))

    baro_times, baro_ticks = _fix_schedule(noise.baro_rate, 0.0, ts, n)
    baro_z = _fixes(params, baro_times)[:, 2]
    if noise.baro_resolution > 0.0:
        baro_z = np.floor(baro_z / noise.baro_resolution + 0.5) * noise.baro_resolution
    baro_at = dict(zip(baro_ticks, baro_z.tolist()))

    flight = _flight(_bits(params, geometry), params, geometry, ts, noise.encoder_cpr)
    # Per tick, in draw order: accelerometer, gyro and attitude-tilt noise.
    sigmas = np.repeat([sigma_accel, sigma_gyro, noise.attitude_rms_deg * DEG], 3)
    draws = rng.normal(0.0, sigmas, (n, 9))
    accel = flight.force + accel_bias + draws[:, 0:3]
    quat = np.empty((n, 4))
    for rows in _blocks(n):
        rot_k_to_ned = quats_to_rots(flight.q[rows])
        quat[rows] = rot_to_quat(rot_k_to_ned @ _small_rotations(draws[rows, 6:9]))
    gyro = flight.rates + gyro_bias + draws[:, 3:6]
    gyro_limit = noise.gyro_range_dps * DEG
    if gyro_limit > 0.0:
        gyro = np.clip(gyro, -gyro_limit, gyro_limit)

    times = (np.arange(n) * ts).tolist()
    truth = list(map(tuple.__new__, itertools.repeat(TruthSample),
                     zip(times, flight.p.copy(), flight.v.copy(), flight.a.copy(),
                         flight.q.copy(), flight.gamma.tolist())))
    ticks = range(n)
    frames = _frames(times, _tuple_rows(accel), _tuple_rows(gyro), _tuple_rows(quat),
                     map(gps_at.get, ticks), map(baro_at.get, ticks),
                     _tuple_rows(flight.encoders), itertools.repeat(params.speed_scale))
    return frames, truth
