"""Flight-log serialization and accuracy reporting.

Logs are plain CSV, one row per tick, with an empty cell wherever a
channel has no sample on that tick.  Floats are written with ``repr`` so
a written log reads back bit for bit.  Lines starting with ``#`` are
comments (the writer uses them for provenance such as the noise seed)
and are ignored by the reader.

The report side replays one log through the three measurement routings
and tabulates RMS errors per wind-speed bin, mirroring how tethered-wing
estimators are usually compared: horizontal position, height and
velocity angle against either recorded truth or, when the log carries
none, against the line-angle routing as the reference.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, LogFormatError
from .frames import wrap_angle
from .lineangle import EncoderReading
from .pipelines import EstimationPipeline, EstimatorConfig, SensorFrame

FRAME_COLUMNS = ("t", "ax", "ay", "az", "wx", "wy", "wz",
                 "q1", "q2", "q3", "q4", "gps_x", "gps_y", "baro_z",
                 "enc_theta", "enc_phi", "wind")
TRUTH_COLUMNS = ("truth_px", "truth_py", "truth_pz",
                 "truth_vx", "truth_vy", "truth_vz", "truth_gamma")

RADIO_RATIOS = (10.0, 10.0, 10.0)
LINE_ANGLE_RATIOS = (500.0, 500.0, 500.0)


class TruthPoint(NamedTuple):
    """Reference state carried alongside a log row."""

    t: float
    p: np.ndarray
    v: np.ndarray
    gamma: float


class LogData(NamedTuple):
    """A parsed log: the sensor stream and, if recorded, the truth."""

    frames: list[SensorFrame]
    truth: list[TruthPoint] | None


def _format(value: float) -> str:
    return repr(float(value))


def write_log(frames: Sequence[SensorFrame], path, truth=None,
              meta: Sequence[str] | None = None) -> None:
    """Write a sensor stream (optionally with truth columns) as CSV.

    ``truth`` entries only need ``p``, ``v`` and ``gamma`` attributes, so
    both simulator truth samples and re-read :class:`TruthPoint` rows
    work.  ``meta`` lines are written as ``#`` comments above the header.
    """
    if truth is not None and len(truth) != len(frames):
        raise LogFormatError(
            f"truth length {len(truth)} does not match {len(frames)} frames")
    header = FRAME_COLUMNS + (TRUTH_COLUMNS if truth is not None else ())
    lines = []
    for line in meta or ():
        lines.append(f"# {line}")
    lines.append(",".join(header))
    for i, frame in enumerate(frames):
        cells = [_format(frame.t)]
        for name, width in (("accel_k", 3), ("gyro_k", 3), ("quat", 4), ("gps_xy", 2)):
            value = getattr(frame, name)
            cells += [""] * width if value is None else [_format(v) for v in value]
        cells.append("" if frame.baro_z is None else _format(frame.baro_z))
        if frame.encoder is None:
            cells += ["", ""]
        else:
            cells += [_format(frame.encoder.theta_b), _format(frame.encoder.phi_b)]
        cells.append("" if frame.wind_speed is None else _format(frame.wind_speed))
        if truth is not None:
            s = truth[i]
            cells += [_format(v) for v in s.p]
            cells += [_format(v) for v in s.v]
            cells.append(_format(s.gamma))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_cell(cell: str, lineno: int) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        raise LogFormatError(f"line {lineno}: bad number {cell!r}") from None


def _take(values, lineno: int, count: int, what: str):
    """Pop ``count`` cells that must be all present or all absent."""
    cells = [values.pop(0) for _ in range(count)]
    present = [c is not None for c in cells]
    if not any(present):
        return None
    if not all(present):
        raise LogFormatError(f"line {lineno}: partial {what} sample")
    return cells


def read_log(path) -> LogData:
    """Parse a log written by :func:`write_log`.

    Raises
    ------
    LogFormatError
        On an unrecognized header, a malformed row, a partially present
        channel group, or timestamps that do not strictly increase.  The
        message carries the 1-based line number.
    """
    frames: list[SensorFrame] = []
    truth: list[TruthPoint] = []
    header: tuple[str, ...] | None = None
    has_truth = False
    last_t = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                cols = tuple(c.strip() for c in line.split(","))
                if cols == FRAME_COLUMNS:
                    has_truth = False
                elif cols == FRAME_COLUMNS + TRUTH_COLUMNS:
                    has_truth = True
                else:
                    raise LogFormatError(f"line {lineno}: unrecognized header")
                header = cols
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise LogFormatError(
                    f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
            values = [_parse_cell(c, lineno) for c in cells]
            t = values.pop(0)
            if t is None:
                raise LogFormatError(f"line {lineno}: missing timestamp")
            if last_t is not None and t <= last_t:
                raise LogFormatError(
                    f"line {lineno}: time {t} does not increase past {last_t}")
            last_t = t
            accel = _take(values, lineno, 3, "accelerometer")
            gyro = _take(values, lineno, 3, "gyro")
            quat = _take(values, lineno, 4, "attitude")
            gps = _take(values, lineno, 2, "XY fix")
            baro = values.pop(0)
            enc = _take(values, lineno, 2, "encoder")
            wind = values.pop(0)
            frames.append(SensorFrame(
                t=t,
                accel_k=None if accel is None else np.array(accel),
                gyro_k=None if gyro is None else np.array(gyro),
                quat=None if quat is None else np.array(quat),
                gps_xy=None if gps is None else np.array(gps),
                baro_z=baro,
                encoder=None if enc is None else EncoderReading(*enc),
                wind_speed=wind,
            ))
            if has_truth:
                if any(v is None for v in values):
                    raise LogFormatError(f"line {lineno}: incomplete truth row")
                truth.append(TruthPoint(
                    t=t, p=np.array(values[0:3]), v=np.array(values[3:6]),
                    gamma=values[6]))
    if header is None:
        raise LogFormatError("no header line found")
    return LogData(frames, truth if has_truth else None)


def rmse(a, b, angular: bool = False) -> float:
    """Root-mean-square difference of two equally long sequences.

    With ``angular`` the differences are wrapped to (-pi, pi] first, so a
    pair like 3.1 and -3.1 counts as 0.08 apart, not 6.2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DomainError("no samples to compare")
    d = a - b
    if angular:
        d = wrap_angle(d)
    return float(np.sqrt(np.mean(np.square(d))))


def default_configs(base: EstimatorConfig | None = None) -> tuple[EstimatorConfig, ...]:
    """The three canonical pipelines: radio routings with the soft
    tuning, line-angle routing with the stiff one."""
    base = base if base is not None else EstimatorConfig()
    return tuple(
        dataclasses.replace(base, approach=approach,
                            ratios=LINE_ANGLE_RATIOS if approach == 3 else RADIO_RATIOS)
        for approach in (1, 2, 3))


QUANTITIES = ("p_x", "p_y", "p_z", "gamma")


class ReportRow(NamedTuple):
    quantity: str
    approach: int
    values: tuple[float, ...]


class RmseReport(NamedTuple):
    """RMS errors per quantity, per routing, per wind-speed bin."""

    bin_labels: tuple[str, ...]
    rows: tuple[ReportRow, ...]

    def to_csv(self) -> str:
        lines = ["quantity,approach," + ",".join(self.bin_labels)]
        for row in self.rows:
            cells = [f"{v:.9g}" for v in row.values]
            lines.append(f"{row.quantity},{row.approach}," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _bin_labels(edges: Sequence[float]) -> tuple[str, ...]:
    labels = [f"<{edges[0]:g}"]
    labels += [f"{a:g}-{b:g}" for a, b in zip(edges, edges[1:])]
    labels.append(f">{edges[-1]:g}")
    return tuple(labels)


def compare_approaches(log: LogData,
                       configs: Sequence[EstimatorConfig] | None = None,
                       bin_edges: Sequence[float] = (2.0, 3.0, 4.0),
                       settle: float = 2.0) -> RmseReport:
    """Replay one log through each routing and tabulate RMS errors.

    Samples earlier than ``settle`` seconds after the start of the log
    are discarded so initialization transients do not dominate.  Each remaining sample lands in the wind-speed bin of its
    frame; rows without a wind-speed cell are skipped.  When the log has
    no truth columns the routing-3 estimate serves as the reference (its
    own rows then report the residual against itself, i.e. zero).

    Returns
    -------
    RmseReport
        One row per quantity and routing; bins with no samples hold nan.

    Raises
    ------
    DomainError
        If two configs share an approach (their rows would be
        indistinguishable), or the bin edges do not strictly increase.
    """
    if configs is None:
        configs = default_configs()
    approaches = [config.approach for config in configs]
    for approach in approaches:
        if approaches.count(approach) > 1:
            raise DomainError(f"approach {approach} appears more than once in configs")
    edges = [float(e) for e in bin_edges]
    if not edges or sorted(edges) != edges or len(set(edges)) != len(edges):
        raise DomainError(f"bin edges must be strictly increasing, got {bin_edges}")
    n_bins = len(edges) + 1
    runs: dict[int, list] = {}
    for config in configs:
        pipeline = EstimationPipeline(config)
        runs[config.approach] = [pipeline.step(f) for f in log.frames]

    if log.truth is not None:
        ref_p = [s.p for s in log.truth]
        ref_gamma = [s.gamma for s in log.truth]
    else:
        if 3 not in runs:
            raise DomainError("log has no truth and no routing-3 run to reference")
        ref_p = [None if o is None else o.p_hat for o in runs[3]]
        ref_gamma = [None if o is None else o.gamma_hat for o in runs[3]]

    t0 = log.frames[0].t if log.frames else 0.0
    rows = []
    for config in configs:
        outputs = runs[config.approach]
        residuals: list[list[list[float]]] = [[[] for _ in range(n_bins)]
                                              for _ in QUANTITIES]
        for i, (frame, out) in enumerate(zip(log.frames, outputs)):
            if out is None or ref_p[i] is None or frame.wind_speed is None:
                continue
            if frame.t - t0 < settle:
                continue
            b = bisect.bisect_right(edges, frame.wind_speed)
            for axis in range(3):
                residuals[axis][b].append(out.p_hat[axis] - ref_p[i][axis])
            residuals[3][b].append(float(wrap_angle(out.gamma_hat - ref_gamma[i])))
        for qi, quantity in enumerate(QUANTITIES):
            values = tuple(
                float(np.sqrt(np.mean(np.square(r)))) if r else math.nan
                for r in residuals[qi])
            rows.append(ReportRow(quantity, config.approach, values))
    return RmseReport(_bin_labels(edges), tuple(rows))
