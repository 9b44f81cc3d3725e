from __future__ import annotations

import bisect
import dataclasses
import functools
import io
import math
import os
import random
import re
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kitefusion import evalio, pipelines
from kitefusion.attitude import inertial_accel
from kitefusion.errors import DomainError, LogFormatError
from kitefusion.evalio import (
    FRAME_COLUMNS,
    QUANTITIES,
    TRUTH_COLUMNS,
    LogData,
    ReportRow,
    RmseReport,
    TruthPoint,
    _bin_labels,
    compare_approaches,
    default_configs,
    read_log,
    write_log,
)
from kitefusion.frames import wrap_angle
from kitefusion.pipelines import EstimationPipeline, EstimatorConfig, SensorFrame
from kitefusion.simkite import NoiseSpec, TrajectoryParams, synthesize


def small_record(duration=2.0, **noise_kw):
    noise_kw.setdefault("seed", 2)
    return synthesize(TrajectoryParams(duration=duration), NoiseSpec(**noise_kw))


class TestRoundTrip:
    def test_frames_and_truth_survive(self, tmp_path):
        frames, truth = small_record()
        path = tmp_path / "flight.csv"
        write_log(frames, path, truth=truth)
        log = read_log(path)
        assert len(log.frames) == len(frames)
        assert log.truth is not None
        for orig, back in zip(frames, log.frames):
            assert back.t == orig.t
            assert np.array_equal(back.accel_k, orig.accel_k)
            assert np.array_equal(back.quat, orig.quat)
            if orig.gps_xy is None:
                assert back.gps_xy is None
            else:
                assert np.array_equal(back.gps_xy, orig.gps_xy)
            if orig.baro_z is None:
                assert back.baro_z is None
            else:
                assert back.baro_z == orig.baro_z
            assert back.encoder == orig.encoder
        for orig, back in zip(truth, log.truth):
            assert np.array_equal(back.p, orig.p)
            assert np.array_equal(back.v, orig.v)
            assert back.gamma == orig.gamma

    def test_rewrite_is_byte_identical(self, tmp_path):
        frames, truth = small_record()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_log(frames, first, truth=truth)
        log = read_log(first)
        write_log(log.frames, second, truth=log.truth)
        assert first.read_bytes() == second.read_bytes()

    def test_awkward_floats_lossless(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 1e-17, -0.0, 123456789.123456789]
        frames = [SensorFrame(t=float(i) + 0.1, baro_z=v)
                  for i, v in enumerate(values)]
        path = tmp_path / "x.csv"
        write_log(frames, path)
        back = read_log(path)
        for orig, frame in zip(values, back.frames):
            assert frame.baro_z == orig

    def test_truth_free_log(self, tmp_path):
        frames, _ = small_record()
        path = tmp_path / "bare.csv"
        write_log(frames, path)
        log = read_log(path)
        assert log.truth is None
        assert path.read_text().splitlines()[0] == ",".join(FRAME_COLUMNS)

    def test_meta_written_as_comments(self, tmp_path):
        frames, _ = small_record(duration=0.1)
        path = tmp_path / "meta.csv"
        write_log(frames, path, meta=["rng: numpy-PCG64 seed=2", "site: bench"])
        text = path.read_text().splitlines()
        assert text[0] == "# rng: numpy-PCG64 seed=2"
        assert text[1] == "# site: bench"
        assert len(read_log(path).frames) == len(frames)

    def test_truth_length_mismatch_rejected(self, tmp_path):
        frames, truth = small_record(duration=0.2)
        with pytest.raises(LogFormatError):
            write_log(frames, tmp_path / "bad.csv", truth=truth[:-1])


HEADER_LINE = ",".join(FRAME_COLUMNS)


def test_header_is_the_file_format():
    """The columns are derived from the layout tables; the names and their
    order are the log format, so they are pinned here as written."""
    assert FRAME_COLUMNS == ("t", "ax", "ay", "az", "wx", "wy", "wz",
                             "q1", "q2", "q3", "q4", "gps_x", "gps_y", "baro_z",
                             "enc_theta", "enc_phi", "wind")
    assert TRUTH_COLUMNS == ("truth_px", "truth_py", "truth_pz",
                             "truth_vx", "truth_vy", "truth_vz", "truth_gamma")


def write_text(tmp_path, body):
    path = tmp_path / "log.csv"
    path.write_text(body)
    return path


class TestReadValidation:
    def row(self, t, baro="12.0"):
        cells = [repr(t)] + [""] * 15 + ["1.0"]
        cells[13] = baro
        return ",".join(cells)

    def test_unrecognized_header(self, tmp_path):
        path = write_text(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(LogFormatError, match="line 1"):
            read_log(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(LogFormatError, match="no header"):
            read_log(write_text(tmp_path, "\n"))

    def test_wrong_cell_count(self, tmp_path):
        body = HEADER_LINE + "\n1.0,2.0\n"
        with pytest.raises(LogFormatError, match="line 2"):
            read_log(write_text(tmp_path, body))

    def test_bad_number(self, tmp_path):
        row = self.row(0.0, baro="twelve")
        with pytest.raises(LogFormatError, match="twelve"):
            read_log(write_text(tmp_path, HEADER_LINE + "\n" + row + "\n"))

    def test_missing_timestamp(self, tmp_path):
        row = "," + ",".join([""] * 16)
        with pytest.raises(LogFormatError, match="timestamp"):
            read_log(write_text(tmp_path, HEADER_LINE + "\n" + row + "\n"))

    def test_partial_group(self, tmp_path):
        cells = ["0.0", "1.0", "", "3.0"] + [""] * 13  # ay missing
        body = HEADER_LINE + "\n" + ",".join(cells) + "\n"
        with pytest.raises(LogFormatError, match="partial accelerometer"):
            read_log(write_text(tmp_path, body))

    def test_time_must_increase(self, tmp_path):
        body = HEADER_LINE + "\n" + self.row(0.0) + "\n" + self.row(0.0) + "\n"
        with pytest.raises(LogFormatError, match="line 3"):
            read_log(write_text(tmp_path, body))

    def test_incomplete_truth_row(self, tmp_path):
        frames, truth = small_record(duration=0.1)
        path = tmp_path / "t.csv"
        write_log(frames, path, truth=truth)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[-1] = ""
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match="line 3"):
            read_log(path)


    @pytest.mark.parametrize("row, col, cell", [
        (5, 0, "nan"),                         # timestamp
        (8, 1, "inf"),                         # accelerometer
        (3, FRAME_COLUMNS.index("wind"), "-inf"),
        (4, len(FRAME_COLUMNS) + 6, "NaN"),    # truth gamma
    ])
    def test_non_finite_cell_rejected(self, tmp_path, row, col, cell):
        """A nan time would pass the increasing-time check (every
        comparison with nan is false) and switch it off for every later
        row, so non-finite cells are refused wherever they stand."""
        frames, truth = small_record(duration=0.2)
        path = tmp_path / "t.csv"
        write_log(frames, path, truth=truth)
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = cell
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LogFormatError, match=f"line {row + 1}: non-finite"):
            read_log(path)


def assigned(frame: SensorFrame, **channels) -> SensorFrame:
    """``frame`` with ``channels`` assigned after it was built, which the
    frame does not check or convert."""
    for name, value in channels.items():
        setattr(frame, name, value)
    return frame


class TestWriteFiniteRule:
    """The writer refuses what the reader would refuse, before it opens
    the file, naming the frame index and the column."""

    def test_nan_attitude_rejected(self, tmp_path):
        frames, truth = small_record(duration=0.2)
        frames[3] = dataclasses.replace(frames[3], quat=np.array([math.nan, 0.0, 0.0, 1.0]))
        path = tmp_path / "bad.csv"
        with pytest.raises(LogFormatError, match="frame 3: non-finite value nan in column q1"):
            write_log(frames, path, truth=truth)
        assert not path.exists()

    def test_mask_decides_absence(self, tmp_path):
        """In a table, the empty-cell mask, not the nan, tells an absent
        cell: a present nan becomes a nan value of the frame, which the
        writer refuses by its column, and an empty cell a ``None``."""
        quat = slice(FRAME_COLUMNS.index("q1"), FRAME_COLUMNS.index("q4") + 1)
        table = np.full((2, len(FRAME_COLUMNS)), math.nan)
        table[:, 0] = [0.0, 0.02]
        table[1, quat] = [math.nan, 0.0, 0.0, 1.0]
        empty = np.isnan(table)
        empty[1, quat] = False
        frames, truth = evalio._log_data(table, empty, has_truth=False)
        assert truth is None
        assert frames[0].quat is None and frames[1].gps_xy is None
        assert math.isnan(frames[1].quat[0]) and frames[1].quat[1:] == (0.0, 0.0, 1.0)
        path = tmp_path / "bad.csv"
        with pytest.raises(LogFormatError, match="frame 1: non-finite value nan in column q1"):
            write_log(frames, path)
        assert not path.exists()

    def test_infinite_truth_rejected(self, tmp_path):
        frames, truth = small_record(duration=0.2)
        truth[5] = truth[5]._replace(gamma=-math.inf)
        path = tmp_path / "bad.csv"
        with pytest.raises(LogFormatError, match="frame 5: .* -inf in column truth_gamma"):
            write_log(frames, path, truth=truth)
        assert not path.exists()

    @pytest.mark.parametrize("frame", [
        # A frame refuses a channel of the wrong length when it is built;
        # one assigned afterwards reaches the writer.
        assigned(SensorFrame(t=0.0), accel_k=np.array([1.0, 2.0])),
        assigned(SensorFrame(t=0.0), baro_z="twelve"),
    ])
    def test_malformed_channel_rejected(self, tmp_path, frame):
        path = tmp_path / "bad.csv"
        with pytest.raises(LogFormatError, match="value must hold"):
            write_log([frame], path)
        assert not path.exists()

    def test_earliest_frame_then_leftmost_column_named(self, tmp_path):
        frames = [SensorFrame(t=0.0, baro_z=math.inf),
                  SensorFrame(t=0.02, gps_xy=np.array([1.0, math.nan]), wind_speed=math.nan)]
        with pytest.raises(LogFormatError, match="frame 0: non-finite value inf in column baro_z"):
            write_log(frames, tmp_path / "bad.csv")
        with pytest.raises(LogFormatError, match="frame 0: .* in column gps_y"):
            write_log(frames[1:], tmp_path / "bad.csv")

    @pytest.mark.parametrize("line", ["a\nb", "seed=2\r", "\r\nsite: bench"])
    def test_meta_line_break_rejected(self, tmp_path, line):
        """A line break would end the ``#`` comment early and leave the
        rest of the line where the reader expects the header."""
        frames, _ = small_record(duration=0.1)
        path = tmp_path / "bad.csv"
        with pytest.raises(LogFormatError) as raised:
            write_log(frames, path, meta=["site: bench", line])
        assert str(raised.value) == f"meta line {line!r} holds a line break"
        assert not path.exists()
        # The same text without its line breaks is written and reads back.
        write_log(frames, path, meta=["site: bench", line.replace("\n", " ").replace("\r", " ")])
        assert len(read_log(path).frames) == len(frames)

    @pytest.mark.parametrize("meta, message", [
        ("abc", "meta must be a sequence of lines, got 'abc'"),
        (b"abc", "meta must be a sequence of lines, got b'abc'"),
        (7, "meta must be a sequence of lines, got 7"),
        ([1], "meta lines must be str, got 1"),
        (["site: bench", None], "meta lines must be str, got None"),
    ], ids=["str", "bytes", "number", "int-line", "none-line"])
    def test_meta_not_lines_refused(self, tmp_path, meta, message):
        # One string would be written a character a line: "# a", "# b", "# c".
        frames, _ = small_record(duration=0.1)
        path = tmp_path / "bad.csv"
        with pytest.raises(DomainError) as raised:
            write_log(frames, path, meta=meta)
        assert str(raised.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("edit, message", [
        ("repeat", "frame 3: time 0.04 does not increase past 0.04"),
        ("reverse", "frame 3: time 0.02 does not increase past 0.04"),
        ("missing", "frame 1: missing timestamp"),
        # The earliest fault is named, as the reader names the earliest line.
        ("missing-then-repeat", "frame 1: missing timestamp"),
        ("truth-gamma", "frame 2: incomplete truth row"),
    ], ids=["repeat", "reverse", "missing", "missing-then-repeat", "truth-gamma"])
    def test_row_the_reader_refuses_rejected(self, tmp_path, edit, message):
        frames, truth = small_record(duration=0.2)
        if edit in ("repeat", "missing-then-repeat"):
            frames[3] = dataclasses.replace(frames[3], t=frames[2].t)
        if edit == "reverse":
            frames[3] = dataclasses.replace(frames[3], t=frames[1].t)
        if edit.startswith("missing"):
            assigned(frames[1], t=None)
        if edit == "truth-gamma":
            truth[2] = truth[2]._replace(gamma=None)
        path = tmp_path / "bad.csv"
        with pytest.raises(LogFormatError) as raised:
            write_log(frames, path, truth=truth)
        assert str(raised.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("argument", ["frames", "truth"])
    def test_iterator_refused_by_name(self, tmp_path, argument):
        record = dict(zip(("frames", "truth"), small_record(duration=0.2)))
        record[argument] = iter(record[argument])
        path = tmp_path / "bad.csv"
        with pytest.raises(DomainError) as raised:
            write_log(record["frames"], path, truth=record["truth"])
        assert str(raised.value) == f"{argument} must be a sequence, got list_iterator"
        assert not path.exists()

    @pytest.mark.parametrize("edit, message", [
        ("ints", "frames[0] has no t, got 1"),
        ("frame", "frames[2] has no t, got 7"),
        ("truth", "truth[2] has no p, got None"),
        ("all-truth", "truth[0] has no p, got None"),
    ], ids=["ints", "frame", "truth", "all-truth"])
    def test_entry_without_fields_refused_by_name(self, tmp_path, edit, message):
        """An entry without the fields the log holds is named by its
        argument and index, not by a bare ``AttributeError``."""
        frames, truth = small_record(duration=0.1)
        if edit == "ints":
            frames, truth = [1, 2], None
        elif edit == "frame":
            frames[2] = 7
        elif edit == "truth":
            truth[2] = None
        else:
            truth = [None] * len(frames)
        path = tmp_path / "bad.csv"
        with pytest.raises(DomainError) as raised:
            write_log(frames, path, truth=truth)
        assert str(raised.value) == message
        assert not path.exists()

    def test_meta_may_be_a_generator(self, tmp_path):
        # Read once: the line check must not use up what is written.
        frames, _ = small_record(duration=0.1)
        path = tmp_path / "meta.csv"
        write_log(frames, path, meta=(line for line in ["seed 2", "site: bench"]))
        assert path.read_text().splitlines()[:2] == ["# seed 2", "# site: bench"]


class TestCompareApproaches:
    @pytest.fixture
    def no_pipeline(self, monkeypatch):
        """Fail the test if ``compare_approaches`` builds a pipeline."""
        def built(config):
            raise AssertionError("a pipeline was built")

        monkeypatch.setattr(evalio, "EstimationPipeline", built)

    def test_report_shape_and_binning(self, tmp_path):
        frames, truth = synthesize(
            TrajectoryParams(duration=8.0, speed_scale=2.5), NoiseSpec(seed=1))
        report = compare_approaches(LogData(frames, truth))
        assert report.bin_labels == ("<2", "2-3", "3-4", ">4")
        assert len(report.rows) == 12
        quantities = [row.quantity for row in report.rows]
        assert quantities == ["p_x", "p_y", "p_z", "gamma"] * 3
        for row in report.rows:
            assert math.isnan(row.values[0])      # no samples below 2
            assert row.values[1] >= 0.0           # the populated 2-3 bin
            assert math.isnan(row.values[2]) and math.isnan(row.values[3])

    def test_line_angle_beats_radio_on_noisy_log(self):
        frames, truth = synthesize(TrajectoryParams(duration=20.0), NoiseSpec(seed=5))
        report = compare_approaches(LogData(frames, truth), bin_edges=(0.5,))
        by_key = {(r.quantity, r.approach): r.values[1] for r in report.rows}
        assert by_key[("p_x", 3)] < by_key[("p_x", 1)]
        assert by_key[("p_y", 3)] < by_key[("p_y", 1)]
        assert by_key[("gamma", 3)] < by_key[("gamma", 1)]

    def test_reference_falls_back_to_line_angle(self):
        frames, _ = small_record(duration=6.0)
        report = compare_approaches(LogData(frames, None))
        for row in report.rows:
            if row.approach == 3:
                populated = [v for v in row.values if not math.isnan(v)]
                assert populated and max(populated) == 0.0

    def test_settle_excludes_everything_on_short_log(self):
        frames, truth = small_record(duration=1.0)
        report = compare_approaches(LogData(frames, truth), settle=2.0)
        assert all(math.isnan(v) for row in report.rows for v in row.values)

    def test_csv_format(self):
        frames, truth = small_record(duration=4.0)
        text = compare_approaches(LogData(frames, truth)).to_csv()
        lines = text.splitlines()
        assert lines[0] == "quantity,approach,<2,2-3,3-4,>4"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "p_x" and first[1] == "1"
        float(first[3])  # parses

    def test_bad_bin_edges(self):
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError):
            compare_approaches(LogData(frames, truth), bin_edges=(3.0, 2.0))
        with pytest.raises(DomainError):
            compare_approaches(LogData(frames, truth), bin_edges=())

    @pytest.mark.parametrize("bin_edges", [(math.nan,), (1.0, math.nan), (2.0, math.inf),
                                           (-math.inf, 2.0)])
    def test_non_finite_bin_edges_rejected(self, bin_edges):
        # (nan,) would otherwise label its bins '<nan' and '>nan'.
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError, match="bin edges must be finite"):
            compare_approaches(LogData(frames, truth), bin_edges=bin_edges)

    @pytest.mark.parametrize("settle", [math.nan, math.inf, -math.inf])
    def test_non_finite_settle_rejected(self, settle):
        # nan would otherwise switch the settle window off without a word.
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError, match="settle must be finite"):
            compare_approaches(LogData(frames, truth), settle=settle)

    @pytest.mark.parametrize("value", ["2", None, 2j, True, np.True_, Decimal("1.5")],
                             ids=["text", "none", "complex", "bool", "numpy-bool", "decimal"])
    def test_settle_not_a_real_number_refused(self, value):
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError, match="^settle must be a real number, got "):
            compare_approaches(LogData(frames, truth), settle=value)

    @pytest.mark.parametrize("bin_edges", [["2", "3"], [None, 3.0], [2.0, 3j], [True, 3.0],
                                           [2.0, np.True_], [Decimal("1.5"), 3.0]],
                             ids=["text", "none", "complex", "bool", "numpy-bool", "decimal"])
    def test_bin_edge_not_a_real_number_refused(self, bin_edges):
        # float() would read text as its digits.
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError, match="^bin edge must be a real number, got "):
            compare_approaches(LogData(frames, truth), bin_edges=bin_edges)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_truth_of_another_length_refused(self, no_pipeline, extra):
        """A short truth list would fail on a bare IndexError, and a long
        one would be scored against its first rows; both are refused with
        write_log's message before any pipeline runs."""
        frames, truth = small_record(duration=4.0)
        truth = truth[:extra] if extra < 0 else truth + truth[:extra]
        with pytest.raises(LogFormatError, match=(
                f"^truth length {len(frames) + extra} does not match {len(frames)} frames$")):
            compare_approaches(LogData(frames, truth))

    @pytest.mark.parametrize("bin_edges", [None, 2.0, "23"], ids=["none", "number", "text"])
    def test_bin_edges_not_a_sequence_refused(self, bin_edges):
        # Text would be read character by character, as edges '2' and '3'.
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError, match=(
                f"^bin_edges must be a sequence of real numbers, got {re.escape(repr(bin_edges))}$")):
            compare_approaches(LogData(frames, truth), bin_edges=bin_edges)

    def test_no_reference_refused_before_any_pipeline(self, no_pipeline):
        """A log without truth, compared without routing 3, has nothing to
        score against; that is refused before any routing runs over it."""
        frames, _ = small_record(duration=4.0)
        with pytest.raises(DomainError, match="^log has no truth and no routing-3 run"):
            compare_approaches(LogData(frames, None), default_configs()[:2])

    @pytest.mark.parametrize("configs, message", [
        (EstimatorConfig(), "configs must be a sequence of EstimatorConfig, got EstimatorConfig"),
        (3, "configs must be a sequence of EstimatorConfig, got int"),
        ([None], "configs must hold only EstimatorConfig, got None"),
        (["x"], "configs must hold only EstimatorConfig, got 'x'"),
        ([EstimatorConfig(), 3], "configs must hold only EstimatorConfig, got 3"),
    ], ids=["one-config", "number", "none", "text", "number-among-configs"])
    def test_configs_not_of_estimator_configs_refused(self, no_pipeline, configs, message):
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError) as raised:
            compare_approaches(LogData(frames, truth), configs)
        assert str(raised.value) == message

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_frames_without_length_refused(self, no_pipeline, with_truth):
        # With truth, the length check would fail on a bare TypeError;
        # without, the pipelines would be built before _prime refused it.
        frames, truth = small_record(duration=0.5)
        with pytest.raises(DomainError, match="^frames must be a sequence, got list_iterator$"):
            compare_approaches(LogData(iter(frames), truth if with_truth else None))

    def test_repeated_approach_rejected(self):
        # Two tunings of one routing would share a run key, and both rows
        # would report the second run.
        frames, truth = small_record(duration=0.5)
        soft, _, stiff = default_configs()
        stiff_radio = dataclasses.replace(stiff, approach=1)
        with pytest.raises(DomainError, match="approach 1"):
            compare_approaches(LogData(frames, truth), [soft, stiff_radio])

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_configs_may_be_a_generator(self, with_truth):
        # configs is read once, so a generator gives the same table.
        frames, truth = small_record(duration=4.0)
        log = LogData(frames, truth if with_truth else None)
        got = compare_approaches(log, (config for config in default_configs()))
        assert repr(got) == repr(compare_approaches(log, default_configs()))
        assert len(got.rows) == 12

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("empty", [list, tuple, lambda: (c for c in ())],
                             ids=["list", "tuple", "generator"])
    def test_empty_configs_rejected(self, with_truth, empty):
        frames, truth = small_record(duration=0.5)
        log = LogData(frames, truth if with_truth else None)
        with pytest.raises(DomainError, match="configs must hold at least one routing"):
            compare_approaches(log, empty())

    def test_default_configs_tunings(self):
        configs = default_configs()
        assert [c.approach for c in configs] == [1, 2, 3]
        assert configs[0].ratios == (10.0, 10.0, 10.0)
        assert configs[2].ratios == (500.0, 500.0, 500.0)

    @pytest.mark.parametrize("base", ["x", 30.0, NoiseSpec()], ids=["str", "float", "spec"])
    def test_default_configs_base_not_a_config_refused(self, base):
        with pytest.raises(DomainError) as raised:
            default_configs(base)
        assert str(raised.value) == f"base must be an EstimatorConfig, got {base!r}"


def run_counting_steps(monkeypatch, log, configs, primed):
    """``repr`` of the report of ``compare_approaches`` (or the type and
    message of what it raised), the routing of every ``step`` call made,
    and the number of per-tick ``inertial_accel`` calls.  ``step`` is
    replaced the way a timing probe replaces it, by a function of
    ``(pipe, frame)``; ``primed=False`` turns the priming off."""
    steps, per_tick = [], []
    step, accel = EstimationPipeline.step, pipelines.inertial_accel

    def counted_step(pipe, frame):
        steps.append(pipe.config.approach)
        return step(pipe, frame)

    def counted_accel(*args):
        per_tick.append(1)
        return accel(*args)

    with monkeypatch.context() as m:
        m.setattr(EstimationPipeline, "step", counted_step)
        m.setattr(pipelines, "inertial_accel", counted_accel)
        if not primed:
            m.setattr(pipelines, "_prime", lambda pipes, frames: None)
        try:
            result = repr(compare_approaches(log, configs))
        except Exception as exc:  # both paths must raise alike
            result = (type(exc), str(exc))
    return result, steps, len(per_tick)


def _headings():
    soft, mid, stiff = default_configs()
    return (dataclasses.replace(soft, phi_g=-0.0), dataclasses.replace(mid, phi_g=2.5),
            dataclasses.replace(stiff, phi_g=0.0))


def _one_coasting():
    soft, mid, stiff = default_configs()
    return soft, dataclasses.replace(mid, use_imu=False), stiff


class TestPrimedRoutings:
    """compare_approaches computes a record's inertial accelerations once
    per heading and primes the routings with them: the report, and any
    error with the tick it comes from, are those of the per-tick path."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def record():
        return synthesize(TrajectoryParams(duration=12.0, speed_scale=3.5, phi_g=0.4),
                          NoiseSpec(seed=8))

    @pytest.mark.parametrize("configs", [default_configs(), _headings(), _one_coasting()],
                             ids=["default", "three-headings", "one-coasting"])
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_report_bit_identical(self, monkeypatch, configs, with_truth):
        frames, truth = self.record()
        log = LogData(frames, truth if with_truth else None)
        primed = run_counting_steps(monkeypatch, log, configs, primed=True)
        unprimed = run_counting_steps(monkeypatch, log, configs, primed=False)
        assert primed[:2] == unprimed[:2]
        # Priming replaces every per-tick rotation.
        coasting = sum(not config.use_imu for config in configs)
        assert (primed[2], unprimed[2]) == (0, (len(configs) - coasting) * len(frames))

    def test_read_back_log_bit_identical(self, monkeypatch, tmp_path):
        frames, truth = self.record()
        write_log(frames, tmp_path / "log.csv", truth=truth)
        log = read_log(tmp_path / "log.csv")
        primed = run_counting_steps(monkeypatch, log, default_configs(), primed=True)
        unprimed = run_counting_steps(monkeypatch, log, default_configs(), primed=False)
        assert primed[:2] == unprimed[:2]
        assert primed[2] == 0

    def test_headings_told_apart_by_sign_of_zero(self):
        # Zero specific force on the identity attitude makes every NED
        # component -0.0, so the x component takes the sign of the zero
        # sin(phi_g): 0.0 and -0.0 are two headings.
        frames = [SensorFrame(t=0.02 * k, accel_k=np.array([-0.0, -0.0, -0.0]),
                              quat=np.array([1.0, 0.0, 0.0, 0.0])) for k in range(3)]
        pipes = [EstimationPipeline(EstimatorConfig(phi_g=phi_g)) for phi_g in (0.0, -0.0)]
        pipelines._prime(pipes, frames)
        entries = [list(pipe._accels) for pipe in pipes]
        assert [len(held) for held in entries] == [len(frames)] * len(pipes)
        got = [np.array(held).tobytes() for held in entries]
        want = [np.array([inertial_accel(f.accel_k, f.quat,
                                         pipe._cos_g, pipe._sin_g) for f in frames]).tobytes()
                for pipe in pipes]
        assert got == want and want[0] != want[1]

    @pytest.mark.parametrize("field, value, tick", [
        ("quat", np.array([1.0, 0.1, 0.0, 0.0]), 57),
        ("quat", np.array([math.nan, 0.0, 0.0, 0.0]), 300),
        ("encoder", (math.inf, 0.1), 80),
        ("t", 0.5, 30),
        ("accel_k", [0.0, 0.0, 9.8], 10),
        ("accel_k", np.zeros(4), 12),
        ("quat", np.array([1, 0, 0, 0]), 5),
        ("quat", None, 5),
        ("accel_k", None, 400),
        ("accel_k", np.array([0.0, math.nan, 9.8]), 70),
        ("accel_k", np.array([math.inf, 0.0, 9.8]), 200),
    ], ids=["non-unit-quat", "nan-quat", "infinite-encoder", "time-stalls", "list-accel",
            "long-accel", "integer-quat", "no-quat", "no-accel", "nan-accel", "infinite-accel"])
    def test_same_outcome_at_same_tick(self, monkeypatch, field, value, tick):
        frames, truth = self.record()
        frames = list(frames)
        if field == "accel_k" and value is not None and len(value) != 3:
            # Refused when a frame is built; assigned afterwards, it
            # reaches the routings.
            frames[tick] = assigned(dataclasses.replace(frames[tick]), accel_k=value)
        else:
            frames[tick] = dataclasses.replace(frames[tick], **{field: value})
        log = LogData(frames, truth)
        primed = run_counting_steps(monkeypatch, log, default_configs(), primed=True)
        unprimed = run_counting_steps(monkeypatch, log, default_configs(), primed=False)
        assert primed[:2] == unprimed[:2]


class TestComparePeakMemory:
    """Each routing's run is kept as its error columns; keeping one output
    per tick instead holds about 4.9 MB at once on this record."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def minute_record():
        return synthesize(TrajectoryParams(duration=60.0), NoiseSpec(seed=3))

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_sixty_second_record_peak(self, with_truth):
        frames, truth = self.minute_record()
        assert len(frames) == 3000
        log = LogData(frames, truth if with_truth else None)
        compare_approaches(LogData(frames[:10], None))  # fill the gain cache first
        tracemalloc.start()
        try:
            compare_approaches(log)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


class TestStackedBlockEdges:
    """A run's columns fill a block of ``_BLOCK_LINES`` ticks at a time;
    at every block edge they are the columns of the run's outputs taken
    from a list, bit for bit."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def record():
        frames, _ = synthesize(TrajectoryParams(duration=11.0, speed_scale=2.5),
                               NoiseSpec(seed=4))
        return frames

    @staticmethod
    def listed(outputs):
        outputs = list(outputs)
        emitted = np.array([out is not None for out in outputs], dtype=bool)
        p_hat = np.array([(math.nan,) * 3 if out is None else out.p_hat for out in outputs],
                         dtype=float).reshape(-1, 3)
        gamma_hat = np.array([math.nan if out is None else out.gamma_hat for out in outputs],
                             dtype=float)
        return emitted, p_hat, gamma_hat

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want, strict=True):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("ticks", [0, 1, 255, 256, 257, 513])
    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_columns_of_listed_outputs(self, ticks, approach):
        assert evalio._BLOCK_LINES == 256
        frames = self.record()[:ticks]
        config = default_configs()[approach - 1]
        got = evalio._stacked(map(EstimationPipeline(config).step, frames))
        want = self.listed(map(EstimationPipeline(config).step, frames))
        self.assert_same(got, want)
        if approach == 2 and ticks >= 255:
            # Routing 2 warms up until a height is followed by an XY fix.
            assert not got[0][0] and got[0][-1]

    def test_run_that_never_emits(self):
        # Routing 1 without XY fixes never learns its horizontal axes.
        frames = [dataclasses.replace(frame, gps_xy=None) for frame in self.record()[:513]]
        config = default_configs()[0]
        got = evalio._stacked(map(EstimationPipeline(config).step, frames))
        self.assert_same(got, self.listed(map(EstimationPipeline(config).step, frames)))
        assert not got[0].any() and np.isnan(got[1]).all() and np.isnan(got[2]).all()


class TestReadPeakMemory:
    """The reader parses a block of lines at a time, so its strings stay
    small and the peak is set by the frames it returns.  On Python 3.11
    the line-by-line parse before it peaked at 4.51 MB with truth and
    3.06 MB without, and the block reader at 4.46 and 3.03 MB."""

    BOUNDS = {True: 4.75e6, False: 3.25e6}

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_sixty_second_record_peak(self, tmp_path, with_truth):
        frames, truth = TestComparePeakMemory.minute_record()
        path = tmp_path / "minute.csv"
        write_log(frames, path, truth=truth if with_truth else None)
        read_log(path)  # let lazy imports and caches settle first
        tracemalloc.start()
        try:
            log = read_log(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log.frames) == 3000
        assert peak <= self.BOUNDS[with_truth]


class TestTruthPointDuckTyping:
    def test_reread_truth_writes_again(self, tmp_path):
        frames, truth = small_record(duration=0.5)
        path = tmp_path / "first.csv"
        write_log(frames, path, truth=truth)
        log = read_log(path)
        assert isinstance(log.truth[0], TruthPoint)
        write_log(log.frames, tmp_path / "second.csv", truth=log.truth)


def per_sample_report(log, configs, bin_edges, settle):
    """The previous tabulation of :func:`compare_approaches`: one residual
    at a time into per-bin lists."""
    edges = [float(e) for e in bin_edges]
    n_bins = len(edges) + 1
    runs = {}
    for config in configs:
        pipeline = EstimationPipeline(config)
        runs[config.approach] = [pipeline.step(f) for f in log.frames]
    if log.truth is not None:
        ref_p = [s.p for s in log.truth]
        ref_gamma = [s.gamma for s in log.truth]
    else:
        ref_p = [None if o is None else o.p_hat for o in runs[3]]
        ref_gamma = [None if o is None else o.gamma_hat for o in runs[3]]
    t0 = log.frames[0].t if log.frames else 0.0
    rows = []
    for config in configs:
        outputs = runs[config.approach]
        residuals = [[[] for _ in range(n_bins)] for _ in QUANTITIES]
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
            values = tuple(float(np.sqrt(np.mean(np.square(r)))) if r else math.nan
                           for r in residuals[qi])
            rows.append(ReportRow(quantity, config.approach, values))
    return RmseReport(_bin_labels(edges), tuple(rows))


@functools.lru_cache(maxsize=None)
def tabulation_record():
    """A record whose wind cell steps through values on and between the
    bin edges, and is missing on every fifth row."""
    frames, truth = synthesize(TrajectoryParams(duration=6.0, speed_scale=2.5),
                               NoiseSpec(seed=4))
    winds = (1.5, 2.0, 2.4, 3.0, None, 3.5, 4.0, 4.5, 2.6, None)
    frames = [dataclasses.replace(f, wind_speed=winds[k % len(winds)])
              for k, f in enumerate(frames)]
    return frames, truth


class TestTabulationMatchesPerSample:
    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("bin_edges, settle", [
        ((2.0, 3.0, 4.0), 2.0),
        ((2.0, 3.0, 4.0), 0.0),
        ((2.4, 2.6), 1.0),
        ((0.5,), 2.0),
    ])
    def test_tables_repr_equal(self, with_truth, bin_edges, settle):
        frames, truth = tabulation_record()
        log = LogData(frames, truth if with_truth else None)
        configs = default_configs()
        got = compare_approaches(log, configs, bin_edges=bin_edges, settle=settle)
        assert repr(got) == repr(per_sample_report(log, configs, bin_edges, settle))

    @pytest.mark.parametrize("truth", [None, []])
    def test_empty_log(self, truth):
        log = LogData([], truth)
        configs = default_configs()
        got = compare_approaches(log, configs)
        assert repr(got) == repr(per_sample_report(log, configs, (2.0, 3.0, 4.0), 2.0))
        assert all(math.isnan(v) for row in got.rows for v in row.values)


# The line-by-line reader that the table reader replaced, kept as the
# oracle for what ``read_log`` returns and which message it raises.

def _reference_parse_cell(cell: str, lineno: int) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise LogFormatError(f"line {lineno}: bad number {cell!r}") from None
    if not math.isfinite(value):
        raise LogFormatError(f"line {lineno}: non-finite number {cell!r}")
    return value


def _reference_take(values, lineno: int, count: int, what: str):
    cells = [values.pop(0) for _ in range(count)]
    present = [c is not None for c in cells]
    if not any(present):
        return None
    if not all(present):
        raise LogFormatError(f"line {lineno}: partial {what} sample")
    return cells


def line_by_line_read_log(path) -> LogData:
    frames, truth = [], []
    header = None
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
            values = [_reference_parse_cell(c, lineno) for c in cells]
            t = values.pop(0)
            if t is None:
                raise LogFormatError(f"line {lineno}: missing timestamp")
            if last_t is not None and t <= last_t:
                raise LogFormatError(
                    f"line {lineno}: time {t} does not increase past {last_t}")
            last_t = t
            accel = _reference_take(values, lineno, 3, "accelerometer")
            gyro = _reference_take(values, lineno, 3, "gyro")
            quat = _reference_take(values, lineno, 4, "attitude")
            gps = _reference_take(values, lineno, 2, "XY fix")
            baro = values.pop(0)
            enc = _reference_take(values, lineno, 2, "encoder")
            wind = values.pop(0)
            frames.append(SensorFrame(
                t=t,
                accel_k=None if accel is None else np.array(accel),
                gyro_k=None if gyro is None else np.array(gyro),
                quat=None if quat is None else np.array(quat),
                gps_xy=None if gps is None else np.array(gps),
                baro_z=baro,
                encoder=None if enc is None else tuple(enc),
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


def _bits(value):
    """A value as its exact bits and type: a Python float, a tuple of
    them, a float64 array, or None."""
    if value is None:
        return None
    if type(value) is tuple:
        return ("tuple", *map(_bits, value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    assert type(value) is float, type(value)
    return value.hex()


def log_bits(log: LogData):
    frames = [tuple(_bits(getattr(frame, field.name)) for field in dataclasses.fields(frame))
              for frame in log.frames]
    truth = None if log.truth is None else [tuple(map(_bits, s)) for s in log.truth]
    return frames, truth


def outcome(reader, path):
    """What a reader makes of a file: its exact frames and truth, or the
    message it raises."""
    try:
        return log_bits(reader(path))
    except LogFormatError as exc:
        return str(exc)


CORRUPT_CELLS = ("", " ", "nan", "NaN", "inf", "-inf", "1e999", "-1e400", "twelve",
                 "1_0", " 1.5 ", "\t", "\x1c2.5")
CHANNELS = [[FRAME_COLUMNS.index(name) for name in names] for names in (
    ("ax", "ay", "az"), ("wx", "wy", "wz"), ("q1", "q2", "q3", "q4"),
    ("gps_x", "gps_y"), ("baro_z",), ("enc_theta", "enc_phi"), ("wind",))]


def corrupt(lines: list[str], first: int, rng, stop: int | None = None) -> list[str]:
    """One to three seeded corruptions of the data rows from ``first`` on,
    up to ``stop`` (the last row if None): a replaced or deleted cell, a
    blanked channel, a swapped or repeated timestamp, an inserted comment
    or blank line, or a replaced timestamp."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(8)
        row = rng.randrange(first, len(lines) if stop is None else stop)
        cells = lines[row].split(",")
        if kind in (0, 1):
            cells[rng.randrange(len(cells))] = rng.choice(CORRUPT_CELLS)
        elif kind == 2:
            del cells[rng.randrange(len(cells))]
        elif kind == 3:
            for col in rng.choice(CHANNELS):
                if col < len(cells):
                    cells[col] = ""
        elif kind in (4, 5) and row + 1 < len(lines):
            after = lines[row + 1].split(",")
            if kind == 4:
                cells[0], after[0] = after[0], cells[0]
            else:
                after[0] = cells[0]
            lines[row + 1] = ",".join(after)
        elif kind == 6:
            lines.insert(row, rng.choice(("# inserted", "", "   ", "#")))
            continue
        elif kind == 7:
            cells[0] = rng.choice(CORRUPT_CELLS)
        lines[row] = ",".join(cells)
    return lines


class TestTableReaderMatchesLineByLine:
    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("block", range(4))
    def test_corruption_sweep(self, tmp_path, with_truth, block):
        """Over seeded corruptions of short logs the table reader returns
        bit-identical frames and truth, or raises the identical message."""
        frames, truth = small_record(duration=0.5)
        clean = tmp_path / "clean.csv"
        write_log(frames, clean, truth=truth if with_truth else None, meta=["seed 2"])
        lines = clean.read_text().splitlines()
        rng = random.Random(1000 * block + with_truth)
        path = tmp_path / "corrupt.csv"
        seen, mismatches = set(), []
        for case in range(250):
            path.write_text("\n".join(corrupt(lines, 2, rng)) + "\n")
            expected = outcome(line_by_line_read_log, path)
            got = outcome(read_log, path)
            if got != expected:
                mismatches.append((case, path.read_text(), expected, got))
            seen.add("ok" if isinstance(expected, tuple) else expected.split(": ")[1].split()[0])
        assert not mismatches, mismatches[0]
        # The sweep reaches clean reads and every class of fault.
        assert {"ok", "expected", "bad", "non-finite", "missing", "time", "partial"} <= seen

    def test_clean_logs_identical(self, tmp_path):
        frames, truth = small_record(duration=1.0)
        for kept in (truth, None):
            path = tmp_path / "clean.csv"
            write_log(frames, path, truth=kept)
            assert outcome(read_log, path) == outcome(line_by_line_read_log, path)

    @pytest.mark.parametrize("body, message", [
        # An earlier row fault wins over a later unparsable line.
        ("0.0" + ",," * 8 + "\n0.0" + ",," * 8 + "\n1.0,x\n", "line 3: time 0.0"),
        ("0.0,1.0" + ",," * 7 + "," + "\n0.1,twelve" + ",," * 7 + "," + "\n",
         "line 2: partial accelerometer"),
        # Within a line, a bad cell wins over the row checks.
        (",nan" + ",," * 7 + ",\n", "line 2: non-finite number 'nan'"),
        # An overflowing literal is a non-finite value, not a number.
        ("1e999" + ",," * 8 + "\n", "line 2: non-finite number '1e999'"),
        # A finite row whose sum overflows is still a good row.
        ("1e308," * 5 + "," * 11 + "\n", "line 2: partial gyro"),
    ])
    def test_fault_precedence(self, tmp_path, body, message):
        path = write_text(tmp_path, HEADER_LINE + "\n" + body)
        with pytest.raises(LogFormatError, match=re.escape(message)):
            read_log(path)
        assert outcome(line_by_line_read_log, path) == outcome(read_log, path)

    # Logs of 1,000 rows span four blocks of the reader; the sweep above
    # fits in one.

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("where", ["last block", "block boundary"])
    def test_corruption_sweep_past_three_blocks(self, tmp_path, long_logs, with_truth, where):
        lines = long_logs[with_truth]
        block = evalio._BLOCK_LINES
        assert len(lines) - 2 > 3 * block
        rng = random.Random(f"{where}:{with_truth}")
        path = tmp_path / "corrupt.csv"
        seen = set()
        for case in range(30):
            if where == "last block":
                first, stop = 2 + 3 * block, None
            else:
                # Rows from two before to two after the start of block 1, 2 or 3.
                first = 2 + rng.randint(1, 3) * block - 2
                stop = first + 4
            path.write_text("\n".join(corrupt(lines, first, rng, stop)) + "\n")
            expected = outcome(line_by_line_read_log, path)
            assert outcome(read_log, path) == expected, (case, expected)
            seen.add("ok" if isinstance(expected, tuple) else expected.split(": ")[1].split()[0])
        assert {"ok", "expected", "non-finite", "time"} <= seen

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_comment_and_blank_lines_shift_line_numbers(self, tmp_path, long_logs, with_truth):
        """Lines that hold no data, among them a run longer than a block,
        move every later line number; a fault in the last block is still
        named by its own line."""
        block = evalio._BLOCK_LINES
        lines = list(long_logs[with_truth])
        for at, inserted in ((2 + 3 * block, ["   "]), (2 + 2 * block - 1, ["", "#"]),
                             (2 + block, ["# note"] * (block + 5)), (40, ["\t", "# x"])):
            lines[at:at] = inserted
        path = tmp_path / "shifted.csv"
        path.write_text("\n".join(lines) + "\n")
        clean = outcome(read_log, path)
        assert isinstance(clean, tuple) and len(clean[0]) == 1000
        assert clean == outcome(line_by_line_read_log, path)
        row = len(lines) - 20
        cells = lines[row].split(",")
        cells[0] = lines[row - 1].split(",")[0]
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        message = outcome(read_log, path)
        assert message.startswith(f"line {row + 1}: time ")
        assert message == outcome(line_by_line_read_log, path)

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_clean_logs_stay_on_the_array_pass(self, tmp_path, monkeypatch, long_logs,
                                               with_truth):
        """What write_log writes, with meta comments above the header and
        blank and comment lines among its data lines, is read with one
        ``float`` pass over each block's cells and no search for a fault."""
        block = evalio._BLOCK_LINES
        lines = list(long_logs[with_truth])
        assert lines[0].startswith("# ")
        for at, inserted in ((2 + 3 * block + 9, ["# late"]), (2 + block - 1, ["", "   "]),
                             (40, ["#", "# note", ""])):
            lines[at:at] = inserted
        path = tmp_path / "annotated.csv"
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(line_by_line_read_log, path)
        assert len(expected[0]) == 1000
        parses = record_parses(monkeypatch)
        assert log_bits(read_log(path)) == expected
        width = len(FRAME_COLUMNS) + (len(TRUTH_COLUMNS) if with_truth else 0)
        assert len(parses) == math.ceil((len(lines) - 2) / block)
        assert sum(map(len, parses)) == 1000 * width

    def test_refused_block_alone_retried_stripped(self, tmp_path, monkeypatch, long_logs):
        """A whitespace-only cell in the third of four blocks sends only
        that block's cells through ``float`` a second time, stripped, and
        reads as empty; no fault is looked for, and no line is taken twice."""
        block = evalio._BLOCK_LINES
        lines = list(long_logs[True])
        row = 2 + 2 * block + 11
        column = FRAME_COLUMNS.index("baro_z")
        cells = lines[row].split(",")
        cells[column] = " "
        lines[row] = ",".join(cells)
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines) + "\n")
        parses = record_parses(monkeypatch)
        opened = count_lines_taken(monkeypatch)
        got = outcome(read_log, path)
        sizes = [block] * 3 + [block, len(lines) - 2 - 3 * block]
        assert [len(cells) for cells in parses] == [size * len(cells) for size in sizes]
        cell = (row - 2 - 2 * block) * len(cells) + column
        assert (parses[2][cell], parses[3][cell]) == (" ", "")
        assert parses[2][:cell] == parses[3][:cell]
        assert [fh.taken for fh in opened] == [len(lines)]
        assert got == outcome(line_by_line_read_log, path)

    def test_row_fault_named_from_the_array_pass(self, tmp_path, monkeypatch, long_logs):
        """A repeated timestamp in the third of four blocks, whose cells
        all parse, is named without a search for a cell fault: the read
        takes each line of the first three blocks once, parses each
        block's cells once and stops there."""
        block = evalio._BLOCK_LINES
        lines = list(long_logs[True])
        assert len(lines) - 2 > 3 * block
        row = 2 + 2 * block + 11
        cells = lines[row].split(",")
        cells[0] = lines[row - 1].split(",")[0]
        lines[row] = ",".join(cells)
        path = tmp_path / "repeated.csv"
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(line_by_line_read_log, path)
        parses = record_parses(monkeypatch)
        opened = count_lines_taken(monkeypatch)
        with pytest.raises(LogFormatError, match=rf"^line {row + 1}: time \S+ does not "
                                                 rf"increase past \S+$") as raised:
            read_log(path)
        assert str(raised.value) == expected
        assert len(parses) == 3
        assert [fh.taken for fh in opened] == [2 + 3 * block]

    # Two faults in one block: the earlier line is named, and within a
    # line the cell count, then the cells from left to right.

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("edits, named", [
        ([(0, "baro_z", " "), (3, "wind", "x")], (3, "bad number 'x'")),
        ([(0, "ax", "x"), (2, None, None)], (0, "bad number 'x'")),
        ([(0, None, None), (2, "ax", "x")], (0, "expected")),
        ([(0, "t", "repeat"), (2, "wx", "x")], (0, "time")),
        ([(0, "ay", "nan"), (0, "gps_x", "x")], (0, "non-finite number 'nan'")),
        ([(0, "ay", "x"), (0, "gps_x", "nan")], (0, "bad number 'x'")),
        # The block holds no comment or blank line.
        ([(0, None, None)], (0, "expected")),
    ], ids=["blank-then-bad", "bad-then-count", "count-then-bad", "time-then-bad",
            "nan-left-of-x", "x-left-of-nan", "count-without-comments"])
    def test_two_faults_in_one_block(self, tmp_path, long_logs, with_truth, edits, named):
        """Faults in one block, in the second of four, are named as the
        line-by-line read names them; a column of None drops a cell, and
        a cell ``repeat`` repeats the timestamp of the row before."""
        lines = list(long_logs[with_truth])
        first = 2 + evalio._BLOCK_LINES + 40
        for offset, column, cell in edits:
            cells = lines[first + offset].split(",")
            if column is None:
                del cells[-1]
            elif cell == "repeat":
                cells[0] = lines[first + offset - 1].split(",")[0]
            else:
                cells[FRAME_COLUMNS.index(column)] = cell
            lines[first + offset] = ",".join(cells)
        assert not any(line.startswith("#") or not line.strip() for line in lines[2:])
        path = tmp_path / "two.csv"
        path.write_text("\n".join(lines) + "\n")
        expected = outcome(line_by_line_read_log, path)
        offset, fault = named
        assert expected.startswith(f"line {first + offset + 1}: {fault}")
        assert outcome(read_log, path) == expected

    def test_fault_ends_the_read(self, tmp_path, monkeypatch, long_logs):
        """A fault in the first of four blocks is raised once that block
        is read: no later block is taken from the file, and no line twice."""
        block = evalio._BLOCK_LINES
        lines = list(long_logs[False])
        assert len(lines) - 2 > 3 * block
        cells = lines[12].split(",")
        cells[FRAME_COLUMNS.index("ax")] = "nan"
        lines[12] = ",".join(cells)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        read_block = evalio._read_block

        def counted(*args):
            calls.append(args)
            return read_block(*args)

        monkeypatch.setattr(evalio, "_read_block", counted)
        opened = count_lines_taken(monkeypatch)
        with pytest.raises(LogFormatError, match="^line 13: non-finite number 'nan'$"):
            read_log(path)
        assert len(calls) == 1
        assert [fh.taken for fh in opened] == [2 + block]
        assert outcome(read_log, path) == outcome(line_by_line_read_log, path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_reads_as_its_file(self, tmp_path, long_logs):
        """A log from a pipe, which cannot be read twice, reads as the
        same file does, with a fault or with a whitespace-only cell."""
        lines = list(long_logs[True])
        row = 2 + 3 * evalio._BLOCK_LINES + 7
        path, pipe = tmp_path / "log.csv", tmp_path / "pipe"
        os.mkfifo(pipe)
        for cell in (" ", "nan"):
            cells = lines[row].split(",")
            cells[FRAME_COLUMNS.index("wind")] = cell
            text = "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:]) + "\n"
            path.write_text(text)
            writer = threading.Thread(target=pipe.write_text, args=(text,))
            writer.start()
            try:
                got = outcome(read_log, pipe)
            finally:
                writer.join()
            assert got == outcome(read_log, path) == outcome(line_by_line_read_log, path)

    @pytest.mark.parametrize("cell", [" ", "\t", " \t "])
    def test_whitespace_cell_in_late_block_reads_empty(self, tmp_path, long_logs, cell):
        lines = list(long_logs[True])
        row = 2 + 3 * evalio._BLOCK_LINES + 7
        baro, wind = FRAME_COLUMNS.index("baro_z"), FRAME_COLUMNS.index("wind")
        cells = lines[row].split(",")
        cells[baro] = cells[wind] = cell
        lines[row] = ",".join(cells)
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines) + "\n")
        log = read_log(path)
        frame = log.frames[row - 2]
        assert frame.baro_z is None and frame.wind_speed is None
        assert log_bits(log) == outcome(line_by_line_read_log, path)


class _CountingText(io.TextIOWrapper):
    """A text file that counts the lines taken from it."""

    taken = 0

    def __next__(self):
        line = super().__next__()
        self.taken += 1
        return line


def record_parses(monkeypatch) -> list[list[str]]:
    """Make ``evalio`` record the cells of each ``float`` pass of its
    reader, and refuse to search a block for a cell fault; returns the
    list of the cells passed."""
    parses = []
    parse_cells = evalio._parse_cells

    def recorded(cells, width):
        parses.append(list(cells))
        return parse_cells(cells, width)

    def refused(cells):
        raise AssertionError("a fault was looked for")

    monkeypatch.setattr(evalio, "_parse_cells", recorded)
    monkeypatch.setattr(evalio, "_cell_fault", refused)
    return parses


def count_lines_taken(monkeypatch) -> list[_CountingText]:
    """Make ``evalio`` open files that count the lines taken from them;
    returns the list of the files it opens."""
    opened = []

    def counting_open(path):
        opened.append(_CountingText(io.open(path, "rb")))
        return opened[-1]

    monkeypatch.setattr(evalio, "open", counting_open, raising=False)
    return opened


@pytest.fixture(scope="module")
def long_logs(tmp_path_factory):
    """The lines of a clean 20 s log, with and without truth columns."""
    frames, truth = small_record(duration=20.0)
    logs = {}
    for with_truth in (True, False):
        path = tmp_path_factory.mktemp("long") / "clean.csv"
        write_log(frames, path, truth=truth if with_truth else None, meta=["seed 2"])
        logs[with_truth] = path.read_text().splitlines()
    return logs


finite = st.floats(allow_nan=False, allow_infinity=False)


def vectors(width: int):
    return st.none() | st.lists(finite, min_size=width, max_size=width).map(np.array)


@st.composite
def recorded_logs(draw):
    times = sorted(draw(st.lists(finite, max_size=6, unique=True)))
    frames = [SensorFrame(
        t=t, accel_k=draw(vectors(3)), gyro_k=draw(vectors(3)), quat=draw(vectors(4)),
        gps_xy=draw(vectors(2)), baro_z=draw(st.none() | finite),
        encoder=draw(st.none() | st.tuples(finite, finite)),
        wind_speed=draw(st.none() | finite)) for t in times]
    truth = None
    if draw(st.booleans()):
        truth = [TruthPoint(t, draw(vectors(3).filter(lambda v: v is not None)),
                            draw(vectors(3).filter(lambda v: v is not None)), draw(finite))
                 for t in times]
    return LogData(frames, truth)


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log=recorded_logs())
    def test_write_read_write_identical(self, tmp_path, log):
        """Any finite log, absent channels included, reads back bit for bit
        and writes again to the same bytes."""
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_log(log.frames, first, truth=log.truth)
        back = read_log(first)
        assert log_bits(back) == log_bits(log)
        write_log(back.frames, second, truth=back.truth)
        assert first.read_bytes() == second.read_bytes()
