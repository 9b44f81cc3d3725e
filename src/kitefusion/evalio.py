"""Flight-log serialization and accuracy reporting.

Logs are plain CSV, one row per tick, with an empty cell wherever a
channel has no sample on that tick.  Floats are written with ``repr`` so
a written log reads back bit for bit.  Lines starting with ``#`` are
comments (the writer uses them for provenance such as the noise seed)
and are ignored by the reader.

A log's rows follow five rules, checked in this order within a row, and
the earliest row that breaks one is named:

1. every present cell is finite;
2. the timestamp is present;
3. the time increases past the previous row's;
4. each channel group (accelerometer, gyro, attitude, XY fix, encoder)
   is all present or all absent, in that order;
5. a log with truth columns has every truth cell present.

:func:`_row_fault` is the one statement of them, and the reader and the
writer both call it.  The reader meets a non-finite cell already as it
parses the cell, and names it by its text, before the rules of its row.

Both directions handle a log in one form: an ``(n, width)`` float table
in the column layout, with truth columns after the frame columns for a
log with truth, and its mask of empty cells.  An empty cell holds nan,
but only the mask tells it from a present nan, which the row rules
refuse.  The reader, :func:`_log_blocks`, reads the file once, in blocks
of ``_BLOCK_LINES`` lines, and :func:`_read_block` parses each block
once, with one split and one ``float`` pass over its cells; in a parsed
block every nan is an empty cell.  A block that pass refuses has its
cells passed once more, stripped, so that a whitespace-only cell reads as
empty; if that also refuses, its first bad cell is only located, and the
rows before it are kept.  The parsed rows then go through the row rules,
and the block is yielded as frames (and truth) before the next is read;
:func:`read_log` collects the blocks.  :func:`_log_data` is the one
maker of frames from a table, for the reader and for
:func:`~kitefusion.simkite.synthesize`: each channel is read out of the
table once, for the rows that hold it, as Python floats in the form of
:class:`~kitefusion.pipelines.SensorFrame`'s frame rule, so the frames
are made by :func:`~kitefusion.pipelines._frames` without the frame
check; every truth point takes a row of one copy of each truth vector.
The writer, :func:`_write_table`, checks a table against the row rules
before it opens the file, and formats it row by row; :func:`write_log`
fills a table from the frames by field name with :func:`_fill`, as the
synthesizer's noise pass fills the table that ``kitefusion simulate``
writes.

The report side replays one log through the three measurement routings
and tabulates RMS errors per wind-speed bin, mirroring how tethered-wing
estimators are usually compared: horizontal position, height and
velocity angle against either recorded truth or, when the log carries
none, against the line-angle routing as the reference.  The one replay,
:func:`_replay`, takes the log as consecutive blocks: one block for
:func:`compare_approaches`, the reader's blocks for ``kitefusion
evaluate``.  Each block goes through :func:`~kitefusion.pipelines._run`,
the one function that primes and steps a block for every replay
(``kitefusion estimate`` included): the inertial acceleration every
routing integrates is the same for each of them, so it is computed once
per block and distinct heading, as arrays; a block the per-tick path
would refuse is not primed, so it fails as it would tick by tick.  Each
routing is turned into its error columns while it runs, in one pass over
its ticks: every tick's estimate leaves its floats in two lists, which
become flat ``p_hat`` and ``gamma_hat`` buffers once the block's run
ends, next to an ``emitted`` mask, so no per-tick output outlives its
tick, and no frame outlives its block.  The wind column holds nan where
a frame has no wind speed, so a nan speed is skipped as an absent one.
"""

from __future__ import annotations

import array
import dataclasses
import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, LogFormatError, as_real, is_real
from .frames import wrap_angle
from .pipelines import EstimationPipeline, EstimatorConfig, SensorFrame, _frames, _run, _tuple_rows

# The log layout per record, in column order: field, column names, and
# the label of a channel group whose cells must be all present or all
# absent (None for a single cell, and for truth, which must be whole).
_FRAME_LAYOUT = (
    ("t", ("t",), None),
    ("accel_k", ("ax", "ay", "az"), "accelerometer"),
    ("gyro_k", ("wx", "wy", "wz"), "gyro"),
    ("quat", ("q1", "q2", "q3", "q4"), "attitude"),
    ("gps_xy", ("gps_x", "gps_y"), "XY fix"),
    ("baro_z", ("baro_z",), None),
    ("encoder", ("enc_theta", "enc_phi"), "encoder"),
    ("wind_speed", ("wind",), None),
)
_TRUTH_LAYOUT = (
    ("p", ("truth_px", "truth_py", "truth_pz"), None),
    ("v", ("truth_vx", "truth_vy", "truth_vz"), None),
    ("gamma", ("truth_gamma",), None),
)


def _field_slices(layout, start: int = 0) -> tuple[tuple[str, slice, str | None], ...]:
    """``(field, columns, group)`` of each layout entry, its columns as a
    slice of a table whose first column for the layout is ``start``."""
    stops = list(itertools.accumulate((len(cols) for _, cols, _ in layout), initial=start))
    return tuple((name, slice(lo, hi), group)
                 for (name, _, group), lo, hi in zip(layout, stops, stops[1:]))


FRAME_COLUMNS = tuple(col for _, cols, _ in _FRAME_LAYOUT for col in cols)
TRUTH_COLUMNS = tuple(col for _, cols, _ in _TRUTH_LAYOUT for col in cols)
_FRAME_FIELDS = _field_slices(_FRAME_LAYOUT)
_TRUTH_FIELDS = _field_slices(_TRUTH_LAYOUT, start=len(FRAME_COLUMNS))
_FIELD_COLUMNS = {name: cols for name, cols, _ in _FRAME_FIELDS + _TRUTH_FIELDS}

# Data lines per block of the reader: enough to pay each C-level pass's
# call once per few thousand cells, few enough that a block's cell
# strings stay small.
_BLOCK_LINES = 256

# Builds a named tuple from one tuple of its fields, skipping its
# Python-level __new__.
_new_tuple = tuple.__new__

# The report's default wind-speed bin edges, m/s, and settling time, s.
_BIN_EDGES = (2.0, 3.0, 4.0)
_SETTLE = 2.0

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


def _require_sized(items, name: str = "frames") -> None:
    """``DomainError`` naming ``name`` unless ``items`` has a length, as an
    iterator has not."""
    if not hasattr(items, "__len__"):
        raise DomainError(f"{name} must be a sequence, got {type(items).__name__}")


def _require_truth_fits(truth, frames) -> None:
    """``LogFormatError`` unless ``truth`` is ``None`` or holds one point
    per frame."""
    if truth is not None and len(truth) != len(frames):
        raise LogFormatError(f"truth length {len(truth)} does not match {len(frames)} frames")


def write_log(frames: Sequence[SensorFrame], path, truth=None,
              meta: Sequence[str] | None = None) -> None:
    """Write a sensor stream (optionally with truth columns) as CSV.

    ``truth`` entries only need ``p``, ``v`` and ``gamma`` attributes, so
    both simulator truth samples and re-read :class:`TruthPoint` rows
    work.  ``meta`` lines are written as ``#`` comments above the header.
    The frames' and truth's fields are gathered into a log table, which
    :func:`_write_table` writes.

    Raises
    ------
    DomainError
        If ``frames`` or a given ``truth`` has no length, such as an
        iterator, or an entry of either lacks a field the log holds (the
        message names the argument and the index) or holds a value that is
        not a real number by :func:`~kitefusion.errors.is_real`, such as
        text, a ``bool`` or a ``Decimal`` (the message names the argument,
        the index and the field, as in ``truth[0].p``); or if ``meta`` is one
        ``str`` or ``bytes``, which would be written a character at a time,
        is not a sequence, or holds a line that is not a ``str``.
    LogFormatError
        If ``truth`` and ``frames`` differ in length, a ``meta`` line holds
        a line break (``\\n`` or ``\\r``, which would end the comment early),
        or a channel value has the wrong number of entries; or on a frame
        that breaks a row rule of this module's docstring (a present value
        that is not finite, whose message also names the column, a missing
        timestamp, a time that does not increase past the previous
        frame's, a truth point with a field missing), naming the frame
        index of the earliest.  Nothing is written then.
    """
    _require_sized(frames)
    if truth is not None:
        _require_sized(truth, "truth")
    _require_truth_fits(truth, frames)
    meta = () if meta is None else meta
    if isinstance(meta, (str, bytes)) or not np.iterable(meta):
        raise DomainError(f"meta must be a sequence of lines, got {meta!r}")
    meta = tuple(meta)
    for line in meta:
        if not isinstance(line, str):
            raise DomainError(f"meta lines must be str, got {line!r}")
        if "\n" in line or "\r" in line:
            raise LogFormatError(f"meta line {line!r} holds a line break")
    table, empty = _blank_table(len(frames), truth is not None)
    records = [("frames", frames, _FRAME_FIELDS)]
    if truth is not None:
        records.append(("truth", truth, _TRUTH_FIELDS))
    for what, items, record_fields in records:
        for name, cols, _ in record_fields:
            try:
                values = [getattr(item, name) for item in items]
            except AttributeError:
                i = next(i for i, item in enumerate(items) if not hasattr(item, name))
                raise DomainError(f"{what}[{i}] has no {name}, got {items[i]!r}") from None
            rows = [i for i, value in enumerate(values) if value is not None]
            present = [values[i] for i in rows]
            width = cols.stop - cols.start
            try:
                held = np.array(present, dtype=float).reshape(len(rows), width)
            except ValueError:
                raise LogFormatError(f"every {name} value must hold {width} numbers") from None
            # That conversion parses text and takes a bool as a number.
            entries = present if width == 1 else list(itertools.chain.from_iterable(present))
            if not all(map(is_real, entries)):
                i = rows[list(map(is_real, entries)).index(False) // width]
                raise DomainError(f"{what}[{i}].{name} must hold only real numbers, "
                                  f"got {values[i]!r}")
            _fill(table, empty, name, held, rows)
    _write_table(path, table, empty, meta)


def _blank_table(n: int, has_truth: bool) -> tuple[np.ndarray, np.ndarray]:
    """A log table of ``n`` rows, with truth columns if ``has_truth``, and
    its empty-cell mask, every cell empty: nan values and a mask of true.
    Both are column-major, so that :func:`_fill` writes a field's cells in
    one pass over contiguous memory (about five times faster than in rows
    of a row-major table)."""
    shape = (n, len(FRAME_COLUMNS) + (len(TRUTH_COLUMNS) if has_truth else 0))
    return np.full(shape, math.nan, order="F"), np.ones(shape, dtype=bool, order="F")


def _fill(table: np.ndarray, empty: np.ndarray, name: str, values, rows=slice(None)) -> None:
    """Put ``values``, one row of them per row in ``rows``, into the cells
    of the field ``name`` (a frame or truth field), and mark them present."""
    cols = _FIELD_COLUMNS[name]
    table[rows, cols] = np.reshape(values, (-1, cols.stop - cols.start))
    empty[rows, cols] = False


def _write_table(path, table: np.ndarray, empty: np.ndarray, meta: Sequence[str]) -> None:
    """Write the log ``table`` whose empty cells ``empty`` marks, with the
    lines ``meta`` as ``#`` comments above the header: the one writer,
    which :func:`write_log` and ``kitefusion simulate`` both call.  The
    table has the frame columns, and the truth columns after them for a
    log with truth.  It is checked against the row rules before the file
    is opened, and a ``LogFormatError`` names the frame index of the
    earliest row that breaks one."""
    has_truth = table.shape[1] > len(FRAME_COLUMNS)
    if fault := _row_fault(table, empty, has_truth, -math.inf):
        raise LogFormatError("frame %d: %s" % fault)
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in meta)
        fh.write(",".join((FRAME_COLUMNS + TRUTH_COLUMNS)[:table.shape[1]]) + "\n")
        # Every nan left in the table is an absent cell, and no finite
        # float's repr contains "nan", so blanking "nan" empties exactly those.
        fh.writelines((",".join(map(repr, row.tolist())) + "\n").replace("nan", "")
                      for row in table)


def _row_fault(table: np.ndarray, empty: np.ndarray, has_truth: bool,
               last_t: float) -> tuple[int, str] | None:
    """The first row of a log table that breaks a row rule, as ``(row,
    fault)``, or None if none does; ``empty`` marks the absent cells and
    ``last_t`` is the time before the first row.  The rules of the module
    docstring are checked in their order within a row."""
    t = table[:, 0]
    before = np.concatenate(([last_t], t[:-1]))
    bad = np.isfinite(table)
    bad |= empty
    bad = np.logical_not(bad, out=bad)
    rules = {"non-finite": bad.any(axis=1), "missing timestamp": empty[:, 0], "time": t <= before}
    for _, cols, group in _FRAME_FIELDS:
        if group is not None:
            absent = empty[:, cols]
            rules[f"partial {group} sample"] = absent.any(axis=1) != absent.all(axis=1)
    if has_truth:
        rules["incomplete truth row"] = empty[:, len(FRAME_COLUMNS):].any(axis=1)
    broken = np.logical_or.reduce(list(rules.values()))
    if not broken.any():
        return None
    row = int(broken.argmax())
    fault = next(rule for rule, rows in rules.items() if rows[row])
    if fault == "non-finite":
        col = int(bad[row].argmax())
        fault = (f"non-finite value {float(table[row, col])!r} "
                 f"in column {(FRAME_COLUMNS + TRUTH_COLUMNS)[col]}")
    elif fault == "time":
        fault = f"time {float(t[row])} does not increase past {float(before[row])}"
    return row, fault


def _column(table: np.ndarray, empty: np.ndarray, cols: slice):
    """One frame field of every row: None where its cells are empty,
    otherwise a float, or a tuple of floats for a field of several cells.
    A field every row holds is read by a basic slice and returned as made,
    a list of floats or an iterator of tuples, so that each frame's tuples
    are built together with it."""
    rows = np.flatnonzero(~empty[:, cols.start])
    whole = len(rows) == len(table)
    held = slice(None) if whole else rows
    if cols.stop - cols.start == 1:
        items = table[held, cols.start].tolist()
    else:
        items = _tuple_rows(table[held, cols])
    if whole:
        return items
    values = [None] * len(table)
    for row, item in zip(rows.tolist(), items):
        values[row] = item
    return values


def _read_block(lines: list[str], width: int) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The data lines among ``lines``, stripped lines of a log, as a
    ``(rows, width)`` table, nan where a cell is empty, and their first
    cell fault as ``(row, message)``, ``row`` counted in data lines, or
    None; blank and comment lines hold no data.  The table holds the rows
    before the fault's.

    A line's cell count is checked before its cells, and the cells from
    left to right: a cell that is not a number, a non-finite number.  The
    cells before a wrong cell count go through :func:`_parse_cells` once,
    and again stripped if it refuses them, so that a whitespace-only cell
    reads as empty; only if that also refuses does :func:`_cell_fault`
    look for the first bad cell.  No row rule is checked here.
    """
    text = ",".join(lines)
    # A comment line puts a "#" in the text; a "#" elsewhere is a bad cell.
    if "" in lines or "#" in text:
        lines = [line for line in lines if line and line[0] != "#"]
        text = ",".join(lines)
    counts = list(map(str.count, lines, itertools.repeat(",")))
    fault = None
    if counts.count(width - 1) != len(counts):
        row = next(row for row, count in enumerate(counts) if count != width - 1)
        fault = (row, f"expected {width} cells, got {counts[row] + 1}")
        # A new list: the caller's lines still map rows to line numbers.
        lines = lines[:row]
        text = ",".join(lines)
    cells = text.split(",") if lines else []
    table = _parse_cells(cells, width)
    if table is None:
        cells = [cell.strip() for cell in cells]
        table = _parse_cells(cells, width)
    if table is None:
        at, message = _cell_fault(cells)
        row = at // width
        table, fault = _parse_cells(cells[:row * width], width), (row, message)
    return table, fault


def _parse_cells(cells: list[str], width: int) -> np.ndarray | None:
    """``cells``, a log table's cells row by row, as a ``(rows, width)``
    table, nan where a cell is empty, by one ``float`` pass over the cells
    that are not; None if ``float`` refuses a cell or a value is not
    finite."""
    try:
        # A list, then one array: building an array straight from the
        # map measured about 10% slower.
        values = np.array(list(map(float, filter(None, cells))), dtype=float)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    table = np.full(len(cells), math.nan)
    table[np.frombuffer(bytearray(map(bool, cells)), dtype=bool)] = values
    return table.reshape(-1, width)


def _cell_fault(cells: list[str]) -> tuple[int, str]:
    """The index of the first of ``cells``, stripped cells of a log, that
    is neither empty nor a finite number, and its fault's message."""
    for at, cell in enumerate(cells):
        try:
            if not cell or math.isfinite(float(cell)):
                continue
        except ValueError:
            return at, f"bad number {cell!r}"
        return at, f"non-finite number {cell!r}"


def read_log(path) -> LogData:
    """Parse a log written by :func:`write_log`: the blocks of
    :func:`_log_blocks`, collected.

    The file is read once, in blocks of ``_BLOCK_LINES`` lines, and each
    block is parsed once by :func:`_read_block`: it is joined and split
    into cells once, each line's cell count is checked, and the non-empty
    cells of the lines before a wrong count go through ``float`` in one
    pass.  If that pass refuses a cell, it is run once more on the
    stripped cells, so that a whitespace-only cell reads as empty, and if
    that also refuses, the first cell that is not a finite number is
    located and the rows before its row kept.  The rows parsed are then
    checked against the row rules, once per block, and made into frames
    (and truth).

    Raises
    ------
    LogFormatError
        On a file that is not text in the locale's encoding (UTF-8),
        which the message names by its path; on an unrecognized header;
        or, with the 1-based line number of the earliest offending line,
        on a line of the wrong cell count, a cell that is not a number or
        not finite (``nan``, ``inf``, an overflowing ``1e999``), or a row
        that breaks a row rule of this module's docstring.  Within a line,
        a cell fault is named before a row rule.
    """
    blocks = _log_blocks(path)
    frames, truth = next(blocks)
    for block in blocks:
        frames += block.frames
        if truth is not None:
            truth += block.truth
    return LogData(frames, truth)


def _log_blocks(path) -> Iterator[LogData]:
    """The log at ``path`` as :class:`LogData` blocks, the one reader of
    logs: first a block of no rows once the header is read, whose truth
    is a list only if the log has truth columns, then the frames (and
    truth) of each block of ``_BLOCK_LINES`` lines that holds data, as
    each is read and checked (see :func:`read_log`).  A fault raises
    ``LogFormatError`` when its block is reached, after the blocks before
    it were yielded: the earlier of the block's first cell fault and the
    first row rule broken by the rows before it, named by its line."""
    try:
        with open(path) as fh:
            header: tuple[str, ...] | None = None
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    header = tuple(c.strip() for c in line.split(","))
                    break
            if header is None:
                raise LogFormatError("no header line found")
            if header not in (FRAME_COLUMNS, FRAME_COLUMNS + TRUTH_COLUMNS):
                raise LogFormatError(f"line {lineno}: unrecognized header")
            width, has_truth = len(header), header != FRAME_COLUMNS
            yield LogData([], [] if has_truth else None)
            # The time of the last row read (-inf before there is one).
            last_t = -math.inf
            while lines := list(map(str.strip, itertools.islice(fh, _BLOCK_LINES))):
                block, fault = _read_block(lines, width)
                # Every nan in a parsed block is an empty cell.
                empty = np.isnan(block)
                # The block ends before a cell fault's row, so a row rule
                # it breaks is an earlier fault.
                if fault := _row_fault(block, empty, has_truth, last_t) or fault:
                    data = [n for n, line in enumerate(lines, start=lineno + 1)
                            if line and line[0] != "#"]
                    raise LogFormatError("line %d: %s" % (data[fault[0]], fault[1]))
                lineno += len(lines)
                if len(block):
                    last_t = float(block[-1, 0])
                    yield _log_data(block, empty, has_truth)
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{path}: not {exc.encoding} text") from None


def _log_data(table: np.ndarray, empty: np.ndarray, has_truth: bool) -> LogData:
    """The frames (and, if ``has_truth``, the truth) of the rows of a log
    table whose empty cells ``empty`` marks, the one maker of frames from
    a table: the reader's, once its rows pass the row rules, and
    :func:`~kitefusion.simkite.synthesize`'s.  A present nan is a nan
    value, an empty cell a ``None`` field."""
    columns = [_column(table, empty, cols) for _, cols, _ in _FRAME_FIELDS]
    frames = _frames(*columns)
    if not has_truth:
        return LogData(frames, None)
    # Every row holds truth; its vectors are rows of one copy per field.
    (_, p, _), (_, v, _), (_, gamma, _) = _TRUTH_FIELDS
    truth = list(map(_new_tuple, itertools.repeat(TruthPoint), zip(
        columns[0], table[:, p].copy(), table[:, v].copy(), table[:, gamma.start].tolist())))
    return LogData(frames, truth)


def default_configs(base: EstimatorConfig | None = None) -> tuple[EstimatorConfig, ...]:
    """The three canonical pipelines: radio routings with the soft
    tuning, line-angle routing with the stiff one, each a copy of
    ``base`` (the default config if None); a ``base`` that is not an
    :class:`EstimatorConfig` raises ``DomainError``."""
    base = base if base is not None else EstimatorConfig()
    if not isinstance(base, EstimatorConfig):
        raise DomainError(f"base must be an EstimatorConfig, got {base!r}")
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
                       bin_edges: Sequence[float] = _BIN_EDGES,
                       settle: float = _SETTLE) -> RmseReport:
    """Replay one log through each routing and tabulate RMS errors.

    Samples earlier than ``settle`` seconds after the start of the log
    are discarded.  That drops routing 3's start-up transient, which
    ends within a fraction of a second, but not that of routings 1 and
    2: each seeds its velocity at zero and corrects it only on the XY
    fixes, so its error decays over tens of seconds and shows in their
    rows.  Each remaining sample lands in the wind-speed bin of its
    frame (an infinite speed in the top bin); rows without a wind speed,
    or with a nan one, are skipped.  When the log has
    no truth columns the routing-3 estimate serves as the reference (its
    own rows then report the residual against itself, i.e. zero).
    The log is replayed by :func:`_replay` as one block.

    Returns
    -------
    RmseReport
        One row per quantity and routing; bins with no samples hold nan.

    Raises
    ------
    DomainError
        If ``configs`` is not a sequence of :class:`EstimatorConfig` or is
        empty, two configs share an approach, the log has no truth and no
        config of routing 3 to reference, ``settle`` or a bin edge is not a
        finite real number (:func:`~kitefusion.errors.is_real`: text,
        ``None``, a ``Decimal`` and a ``bool`` are refused, as a frame
        refuses them),
        ``bin_edges`` is not a sequence of them, the bin edges do not
        strictly increase, or ``log.frames`` has no length (an iterator).
    LogFormatError
        If ``log.truth`` and ``log.frames`` differ in length.
    """
    configs, edges, settle = _report_args(configs, bin_edges, settle)
    _require_sized(log.frames)
    _require_truth_fits(log.truth, log.frames)
    return _replay([log], configs, edges, settle)


def _report_args(configs: Sequence[EstimatorConfig] | None = None,
                 bin_edges: Sequence[float] = _BIN_EDGES, settle: float = _SETTLE
                 ) -> tuple[tuple[EstimatorConfig, ...], list[float], float]:
    """The arguments of :func:`compare_approaches` that need no log,
    checked as it documents: the configs as a tuple (the three of
    :func:`default_configs` if None), the bin edges as a list of floats
    and ``settle`` as a float."""
    if configs is None:
        configs = default_configs()
    elif not np.iterable(configs):
        raise DomainError("configs must be a sequence of EstimatorConfig, "
                          f"got {type(configs).__name__}")
    configs = tuple(configs)
    for config in configs:
        if not isinstance(config, EstimatorConfig):
            raise DomainError(f"configs must hold only EstimatorConfig, got {config!r}")
    if not configs:
        raise DomainError("configs must hold at least one routing")
    approaches = [config.approach for config in configs]
    for approach in approaches:
        if approaches.count(approach) > 1:
            raise DomainError(f"approach {approach} appears more than once in configs")
    settle = as_real("settle", settle)
    if not math.isfinite(settle):
        raise DomainError(f"settle must be finite, got {settle}")
    if isinstance(bin_edges, (str, bytes)) or not np.iterable(bin_edges):
        raise DomainError(f"bin_edges must be a sequence of real numbers, got {bin_edges!r}")
    edges = [as_real("bin edge", edge) for edge in bin_edges]
    if not (edges and np.isfinite(edges).all() and (np.diff(edges) > 0.0).all()):
        raise DomainError(f"bin edges must be finite and strictly increasing, got {bin_edges}")
    return configs, edges, settle


def _replay(blocks: Iterable[LogData], configs: tuple[EstimatorConfig, ...],
            edges: list[float], settle: float) -> RmseReport:
    """The report of a log given as consecutive :class:`LogData` blocks, the
    one replay: :func:`compare_approaches` gives its log as one block and
    ``kitefusion evaluate`` the blocks of :func:`_log_blocks`, whose first
    holds no rows.  The arguments are :func:`_report_args`' results.

    The first block's truth tells whether the log has truth; without it
    and without a config of routing 3, ``DomainError`` is raised before
    any pipeline is built.  Each block is primed and stepped through the
    routings by :func:`~kitefusion.pipelines._run`, routing by routing,
    and only columns are kept past it: per routing,
    :func:`_stacked`'s ``emitted``, ``p_hat`` and ``gamma_hat``, and per
    tick the time, the wind speed (nan where absent) and the truth ``p``
    and ``gamma``.  The tabulation then runs on the whole log's columns,
    so each RMS sums its residuals in log order."""
    blocks = iter(blocks)
    first = next(blocks)
    has_truth = first.truth is not None
    approaches = [config.approach for config in configs]
    if not has_truth and 3 not in approaches:
        raise DomainError("log has no truth and no routing-3 run to reference")
    pipelines = [EstimationPipeline(config) for config in configs]
    # Each routing's run and the log's columns, a part per block, joined
    # once the log is read.
    runs = {approach: [] for approach in approaches}
    parts = []
    for frames, truth in itertools.chain([first], blocks):
        for pipe, outputs in zip(pipelines, _run(pipelines, frames)):
            runs[pipe.config.approach].append(_stacked(outputs))
        # An absent wind cell becomes nan.
        part = [np.array([f.t for f in frames], dtype=float),
                np.array([f.wind_speed for f in frames], dtype=float)]
        if has_truth:
            part += [np.array([s.p for s in truth], dtype=float).reshape(-1, 3),
                     np.array([s.gamma for s in truth], dtype=float)]
        parts.append(part)
    runs = {approach: tuple(map(np.concatenate, zip(*run))) for approach, run in runs.items()}
    t, wind, *truth_columns = map(np.concatenate, zip(*parts))
    if has_truth:
        ref_p, ref_gamma = truth_columns
        has_ref = np.ones(len(t), dtype=bool)
    else:
        has_ref, ref_p, ref_gamma = runs[3]

    t0 = t[0] if len(t) else 0.0
    # A speed equal to an edge belongs to the bin above it.
    bins = np.searchsorted(edges, wind, side="right")
    usable = has_ref & ~np.isnan(wind) & ~(t - t0 < settle)
    rows = []
    for config in configs:
        emitted, p_hat, gamma_hat = runs[config.approach]
        keep = np.flatnonzero(usable & emitted)
        residuals = np.column_stack([
            p_hat[keep] - ref_p[keep],
            wrap_angle(gamma_hat[keep] - ref_gamma[keep]),
        ])
        in_bin = [bins[keep] == b for b in range(len(edges) + 1)]
        for qi, quantity in enumerate(QUANTITIES):
            # A boolean selection keeps sample order, so each mean sums
            # the residuals in the order of the log.
            values = tuple(_rms(residuals[sel, qi]) for sel in in_bin)
            rows.append(ReportRow(quantity, config.approach, values))
    return RmseReport(_bin_labels(edges), tuple(rows))


_NO_POSITION = (math.nan, math.nan, math.nan)


def _stacked(outputs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which ticks of a run emitted, with its ``p_hat`` rows, shape (n, 3),
    and ``gamma_hat``, nan where it emitted nothing.

    Consumes ``outputs`` one tick at a time, so no output is kept past
    its tick: each tick's flag goes to a ``bytearray`` and its floats to
    two lists, which become flat buffers once the run ends.
    """
    emitted, positions, gammas = bytearray(), [], []
    for out in outputs:
        if out is None:
            emitted.append(False)
            positions += _NO_POSITION
            gammas.append(math.nan)
        else:
            emitted.append(True)
            positions += out.p_hat
            gammas.append(out.gamma_hat)
    return (np.frombuffer(emitted, dtype=bool),
            np.frombuffer(array.array("d", positions)).reshape(-1, 3),
            np.frombuffer(array.array("d", gammas)))


def _rms(residuals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(residuals)))) if residuals.size else math.nan
