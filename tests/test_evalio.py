from __future__ import annotations

import bisect
import dataclasses
import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kitefusion.errors import DomainError, LogFormatError
from kitefusion.evalio import (
    FRAME_COLUMNS,
    QUANTITIES,
    LogData,
    ReportRow,
    RmseReport,
    TruthPoint,
    _bin_labels,
    compare_approaches,
    default_configs,
    read_log,
    rmse,
    write_log,
)
from kitefusion.frames import wrap_angle
from kitefusion.lineangle import EncoderReading
from kitefusion.pipelines import EstimationPipeline, SensorFrame
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


class TestRmse:
    def test_plain(self):
        assert_allclose(rmse([0.0, 3.0, 4.0], [0.0, 0.0, 0.0]),
                        math.sqrt(25.0 / 3.0))

    def test_angular_wraps(self):
        gap = 2.0 * math.pi - 6.2
        assert_allclose(rmse([3.1, -3.1], [-3.1, 3.1], angular=True), gap,
                        atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            rmse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(DomainError):
            rmse([], [])


class TestCompareApproaches:
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

    def test_repeated_approach_rejected(self):
        # Two tunings of one routing would share a run key, and both rows
        # would report the second run.
        frames, truth = small_record(duration=0.5)
        soft, _, stiff = default_configs()
        stiff_radio = dataclasses.replace(stiff, approach=1)
        with pytest.raises(DomainError, match="approach 1"):
            compare_approaches(LogData(frames, truth), [soft, stiff_radio])

    def test_default_configs_tunings(self):
        configs = default_configs()
        assert [c.approach for c in configs] == [1, 2, 3]
        assert configs[0].ratios == (10.0, 10.0, 10.0)
        assert configs[2].ratios == (500.0, 500.0, 500.0)


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
