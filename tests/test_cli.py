from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from kitefusion import cli, errors, evalio, pipelines
from kitefusion.cli import CONFIG_KEYS, ESTIMATE_HEADER, build_estimator_config, load_config, main
from kitefusion.errors import LogFormatError, NonConvergenceError
from kitefusion.estimator import axis_gain, kf_frequency_response, lo_frequency_response
from kitefusion.evalio import FRAME_COLUMNS, compare_approaches, read_log, write_log
from kitefusion.lineangle import EncoderGeometry
from kitefusion.pipelines import EstimationPipeline, EstimatorConfig
from kitefusion.simkite import NoiseSpec, TrajectoryParams, synthesize

BASE_CONFIG = """\
# short bench flight
duration = 2.0
seed = 7
"""


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def sim_log(tmp_path):
    cfg = write(tmp_path / "sim.cfg", BASE_CONFIG)
    log = tmp_path / "flight.csv"
    assert main(["simulate", "--config", cfg, "--out", str(log)]) == 0
    return log


@pytest.fixture(scope="module")
def long_log(tmp_path_factory):
    """A 12 s log of 600 rows, which spans three blocks of the reader."""
    home = tmp_path_factory.mktemp("long")
    cfg = write(home / "long.cfg", "duration = 12.0\nseed = 7\n")
    log = home / "flight.csv"
    assert main(["simulate", "--config", cfg, "--out", str(log)]) == 0
    assert len(read_log(log).frames) == 600 > 2 * evalio._BLOCK_LINES
    return log


@pytest.fixture(scope="module")
def gap_log(tmp_path_factory):
    """A 16 s log of 800 rows, four blocks of the reader, without attitude
    on frame 300, in its second block."""
    frames, truth = synthesize(TrajectoryParams(duration=16.0), NoiseSpec(seed=5))
    frames[300] = dataclasses.replace(frames[300], quat=None)
    log = tmp_path_factory.mktemp("gap") / "gap.csv"
    write_log(frames, log, truth=truth)
    assert evalio._BLOCK_LINES < 300 < 2 * evalio._BLOCK_LINES < len(frames)
    return log


def per_cell_estimate_csv(log, config) -> str:
    """The previous ``estimate`` row writer: one ``repr`` per cell."""
    pipeline = EstimationPipeline(config)
    lines = [ESTIMATE_HEADER]
    for frame in log.frames:
        out = pipeline.step(frame)
        if out is None:
            continue
        cells = [repr(out.t)]
        cells += [repr(float(v)) for v in out.p_hat]
        cells += [repr(float(v)) for v in out.v_hat]
        cells += [repr(out.theta_hat), repr(out.phi_hat),
                  repr(out.gamma_hat), repr(out.gamma_dot_hat)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_cell_bode_csv(config, axis=0, f_min=0.01, f_max=24.0, points=200) -> str:
    """The ``bode`` table from the two frequency responses, one ``repr``
    per value."""
    freqs = np.geomspace(f_min, f_max, points)
    kf = kf_frequency_response(axis_gain(config.ts, config.ratios[axis]), config.ts, freqs)
    lo = lo_frequency_response(config.k_gamma, config.ts, freqs)
    lines = ["f_hz,kf_fu_mag,kf_fy_mag,lo_fy1_mag,lo_fy2_mag"]
    for k in range(points):
        lines.append(",".join(repr(float(column[k])) for column in (freqs, *kf, *lo)))
    return "\n".join(lines) + "\n"


class TestSimulate:
    def test_writes_seed_comment_and_header(self, sim_log):
        lines = sim_log.read_text().splitlines()
        assert lines[0] == "# rng: numpy-PCG64 seed=7"
        assert lines[1].startswith("t,ax,ay,az,")
        assert lines[1].endswith("truth_gamma")
        assert len(lines) == 2 + 100  # 2 s at 50 Hz

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE_CONFIG)
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        assert main(["simulate", "--config", cfg, "--out", str(a), "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(c), "--seed", "10"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()
        assert a.read_text().splitlines()[0].endswith("seed=9")

    def test_no_truth_flag(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE_CONFIG)
        out = tmp_path / "bare.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--no-truth"]) == 0
        assert out.read_text().splitlines()[1].endswith(",wind")

    def test_ts_sets_tick_period(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE_CONFIG + "ts = 0.04\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 50  # 2 s at 25 Hz
        assert float(rows[1].split(",")[0]) - float(rows[0].split(",")[0]) == pytest.approx(0.04)

    def test_invalid_trajectory_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "theta0 = 1.6\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_overflowing_noise_exits_2_without_a_log(self, tmp_path, capsys):
        """A finite but huge fix deviation draws infinite fixes; the writer
        refuses them, as the reader would, before it creates the file."""
        cfg = write(tmp_path / "c.cfg", BASE_CONFIG + "gps_sigma_xy = 1e308\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite value" in err and "column gps_" in err
        assert not out.exists()

    def test_vanishing_pattern_velocity_exits_2_without_a_log(self, tmp_path, capsys):
        """A pattern of zero amplitudes stands still, so the wing has no
        velocity angle: one error line naming the first such time, no
        traceback, and no file."""
        cfg = write(tmp_path / "c.cfg", BASE_CONFIG + "a_theta = 0.0\na_phi = 0.0\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: pattern velocity vanishes at t=0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        (["--seed", "-1"], BASE_CONFIG),
        ([], BASE_CONFIG + "gps_sigma_xy = -1\n"),
        ([], BASE_CONFIG + "accel_bias_g = -1\n"),
        ([], BASE_CONFIG + "baro_resolution = -0.2\n"),
    ], ids=["seed", "gps_sigma_xy", "accel_bias_g", "baro_resolution"])
    def test_negative_noise_value_exits_2_without_a_log(self, tmp_path, capsys, argv, config):
        cfg = write(tmp_path / "c.cfg", config)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), *argv]) == 2
        assert "must not be negative" in capsys.readouterr().err
        assert not out.exists()

    def test_seeded_log_bytes_pinned(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "duration = 3.0\napproach = 3\n")
        out = tmp_path / "pinned.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e8960e767ea2388c45633a15ea2fa5309477ebdfe75cd60c280e5187ad2752f4")

    @pytest.mark.parametrize("config, digest", [
        # One full eight, so the azimuth changes sign and some readings
        # round to a zero count from below: they must read 0.0, not -0.0.
        ("duration = 6.5\nseed = 11\n",
         "840113606823fd69c1b5d78165049b59a3032c46345e2fa8b50f88d5baf14ebe"),
        # Ideal sensors (NoiseSpec.none()), turned heading, faster eights.
        ("duration = 6.5\nspeed_scale = 2.0\nphi_g = 0.4\n"
         + "".join(f"{key} = 0\n" for key in (
             "accel_density_g", "accel_bias_g", "gyro_density_dps", "gyro_bias_dps",
             "gps_sigma_xy", "gps_latency", "baro_resolution", "attitude_rms_deg",
             "encoder_cpr")),
         "8eb3160cf7d8565d0d6d3690c400de139b76c5acf360b896887d9360afaa4860"),
        # 1,200 rows, past the 512 ticks the synthesizer draws per block.
        ("duration = 24.0\nseed = 11\n",
         "7bf8263045abf57ae8d82c09c0ed8383d8ec78b4f6ff99fff6828771da1ca0f7"),
    ], ids=["figure-eight", "noiseless", "several-blocks"])
    def test_full_eight_log_bytes_pinned(self, tmp_path, config, digest):
        cfg = write(tmp_path / "c.cfg", config)
        out = tmp_path / "pinned.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestEstimate:
    def test_output_layout_and_determinism(self, tmp_path, sim_log):
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(["estimate", "--log", str(sim_log), "--out", str(out1)]) == 0
        assert main(["estimate", "--log", str(sim_log), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == ESTIMATE_HEADER
        cells = lines[1].split(",")
        assert len(cells) == 11
        p = np.array([float(v) for v in cells[1:4]])
        assert abs(np.linalg.norm(p) - 30.0) < 2.0  # near the tether sphere

    def test_approach_changes_result(self, tmp_path, sim_log):
        cfg1 = write(tmp_path / "a1.cfg", "approach = 1\nlambda = 10\n")
        out1, out3 = tmp_path / "a1.csv", tmp_path / "a3.csv"
        assert main(["estimate", "--config", cfg1, "--log", str(sim_log),
                     "--out", str(out1)]) == 0
        assert main(["estimate", "--log", str(sim_log), "--out", str(out3)]) == 0
        assert out1.read_bytes() != out3.read_bytes()

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_bytes_match_per_cell_formatter(self, tmp_path, approach):
        """The row writer formats each output the way the per-cell
        formatter it replaced did, byte for byte."""
        cfg = write(tmp_path / "c.cfg", f"duration = 4.0\nseed = 3\napproach = {approach}\n")
        log, out = tmp_path / "noisy.csv", tmp_path / "estimate.csv"
        assert main(["simulate", "--config", cfg, "--out", str(log)]) == 0
        assert main(["estimate", "--config", cfg, "--log", str(log), "--out", str(out)]) == 0
        config = build_estimator_config(load_config(cfg))
        assert out.read_bytes() == per_cell_estimate_csv(read_log(log), config).encode()

    @staticmethod
    def run_counting_rotations(monkeypatch, capsys, argv, out, primed):
        """Exit code, output bytes (None when absent), stderr and the number
        of per-tick ``inertial_accel`` calls of one ``estimate`` run;
        ``primed=False`` turns the priming off."""
        rotations = []
        accel = pipelines.inertial_accel

        def counted_accel(*args):
            rotations.append(1)
            return accel(*args)

        with monkeypatch.context() as m:
            m.setattr(pipelines, "inertial_accel", counted_accel)
            if not primed:
                m.setattr(pipelines, "_prime", lambda pipes, frames: None)
            code = main(argv)
        written = out.read_bytes() if out.exists() else None
        if written is not None:
            out.unlink()
        return code, written, capsys.readouterr().err, len(rotations)

    PRIMING_CONFIGS = ["approach = 1\nlambda = 10\n", "approach = 2\n", "", "phi_g = 2.5\n",
                       "use_imu = false\n"]

    def assert_priming_keeps_bytes(self, monkeypatch, capsys, tmp_path, log, config):
        out = tmp_path / "e.csv"
        argv = ["estimate", "--config", write(tmp_path / "e.cfg", config),
                "--log", str(log), "--out", str(out)]
        primed = self.run_counting_rotations(monkeypatch, capsys, argv, out, primed=True)
        unprimed = self.run_counting_rotations(monkeypatch, capsys, argv, out, primed=False)
        assert primed[:3] == unprimed[:3] and primed[0] == 0
        ticks = len(read_log(log).frames)
        assert (primed[3], unprimed[3]) == (0, 0 if "use_imu" in config else ticks)

    @pytest.mark.parametrize("config", PRIMING_CONFIGS)
    def test_priming_keeps_bytes(self, monkeypatch, capsys, tmp_path, sim_log, config):
        """The record's accelerations are computed in one array pass, with
        the bytes of the per-tick rotation."""
        self.assert_priming_keeps_bytes(monkeypatch, capsys, tmp_path, sim_log, config)

    @pytest.mark.parametrize("config", PRIMING_CONFIGS)
    def test_priming_keeps_bytes_across_blocks(self, monkeypatch, capsys, tmp_path, long_log,
                                               config):
        """Each block of the log primes the pipeline before it is stepped,
        and hands over to the next without a per-tick rotation."""
        self.assert_priming_keeps_bytes(monkeypatch, capsys, tmp_path, long_log, config)

    @pytest.mark.parametrize("config", PRIMING_CONFIGS)
    def test_priming_keeps_bytes_off_unit(self, monkeypatch, capsys, tmp_path, sim_log, config):
        """As above on a log whose quaternions are off unit by 9e-7, inside
        the tolerance, alternately long and short."""
        log = read_log(sim_log)
        frames = [dataclasses.replace(frame, quat=tuple((1.0 + (-1) ** k * 9e-7) * c
                                                        for c in frame.quat))
                  for k, frame in enumerate(log.frames)]
        off_unit = tmp_path / "off_unit.csv"
        write_log(frames, off_unit, truth=log.truth)
        assert read_log(off_unit).frames[1].quat == frames[1].quat
        self.assert_priming_keeps_bytes(monkeypatch, capsys, tmp_path, off_unit, config)

    def test_non_unit_quaternion_exits_2_alike(self, monkeypatch, capsys, tmp_path, sim_log):
        log = read_log(sim_log)
        log.frames[40] = dataclasses.replace(log.frames[40],
                                             quat=1.01 * np.array(log.frames[40].quat))
        bad = tmp_path / "bad.csv"
        write_log(log.frames, bad)
        out = tmp_path / "e.csv"
        argv = ["estimate", "--log", str(bad), "--out", str(out)]
        primed = self.run_counting_rotations(monkeypatch, capsys, argv, out, primed=True)
        unprimed = self.run_counting_rotations(monkeypatch, capsys, argv, out, primed=False)
        assert primed[:3] == unprimed[:3]
        assert primed[:2] == (2, None)
        assert primed[2].startswith("error: quaternion norm 1.01")

    def test_missing_log_exits_2(self, tmp_path, capsys):
        code = main(["estimate", "--log", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        capsys.readouterr()

    def test_malformed_log_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,log\n")
        code = main(["estimate", "--log", str(bad), "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestStepCallContract:
    """A timing probe replaces ``EstimationPipeline.step`` on the class with
    a function of ``(pipe, frame)``: ``compare_approaches``, ``estimate``
    and ``evaluate`` must call ``step`` with the frame alone, once per
    frame and routing, and give the outputs they give without the probe."""

    @staticmethod
    def probe(monkeypatch):
        """Install the probe; returns the routing of each call made."""
        calls = []
        original = EstimationPipeline.step

        def step(pipe, frame):
            calls.append(pipe.config.approach)
            return original(pipe, frame)

        monkeypatch.setattr(EstimationPipeline, "step", step)
        return calls

    def test_compare_approaches(self, monkeypatch, sim_log):
        log = read_log(sim_log)
        want = repr(compare_approaches(log))
        calls = self.probe(monkeypatch)
        assert repr(compare_approaches(log)) == want
        assert sorted(calls) == sorted([1, 2, 3] * len(log.frames))

    @pytest.mark.parametrize("approach", [1, 2, 3])
    def test_estimate(self, monkeypatch, tmp_path, sim_log, approach):
        out = tmp_path / "e.csv"
        argv = ["estimate", "--config", write(tmp_path / "e.cfg", f"approach = {approach}\n"),
                "--log", str(sim_log), "--out", str(out)]
        assert main(argv) == 0
        want = out.read_bytes()
        calls = self.probe(monkeypatch)
        assert main(argv) == 0
        assert out.read_bytes() == want
        assert calls == [approach] * len(read_log(sim_log).frames)

    def test_evaluate(self, monkeypatch, tmp_path, long_log):
        out = tmp_path / "report.csv"
        argv = ["evaluate", "--log", str(long_log), "--out", str(out)]
        assert main(argv) == 0
        want = out.read_bytes()
        calls = self.probe(monkeypatch)
        assert main(argv) == 0
        assert out.read_bytes() == want
        assert sorted(calls) == sorted([1, 2, 3] * len(read_log(long_log).frames))


class TestRunBlocks:
    """``pipelines._run`` primes each block afresh: a block that primes
    nothing, here for a frame without attitude, runs on the per-tick path
    between primed blocks, and every block yields one output per frame."""

    @pytest.mark.parametrize("order", ["tick-major", "routing-major"])
    def test_blocks_give_the_unprimed_bits(self, gap_log, order):
        configs = evalio.default_configs()
        want = [[repr(out) for out in map(EstimationPipeline(config).step,
                                          read_log(gap_log).frames)] for config in configs]
        pipes = [EstimationPipeline(config) for config in configs]
        got = [[] for _ in configs]
        primed, end = [], object()
        for block, _ in evalio._log_blocks(gap_log):
            outputs = pipelines._run(pipes, block)
            if block:
                primed.append(pipes[0]._accels is not pipelines._ZEROS)
            before = [len(run) for run in got]
            if order == "tick-major":
                for outs in zip(*outputs):
                    for run, out in zip(got, outs):
                        run.append(repr(out))
            else:
                for run, outs in zip(got, outputs):
                    run += map(repr, outs)
            assert [next(outs, end) for outs in outputs] == [end] * len(configs)
            assert [len(run) - n for run, n in zip(got, before)] == [len(block)] * len(configs)
        assert primed == [True, False, True, True]
        assert got == want

    def test_estimate_writes_the_unprimed_bytes(self, tmp_path, gap_log):
        out = tmp_path / "e.csv"
        assert main(["estimate", "--log", str(gap_log), "--out", str(out)]) == 0
        assert out.read_bytes() == per_cell_estimate_csv(read_log(gap_log),
                                                         EstimatorConfig()).encode()


class TestEvaluate:
    def test_report_written(self, tmp_path, sim_log):
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--log", str(sim_log), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,approach,<2,2-3,3-4,>4"
        assert len(lines) == 13

    def test_report_without_truth(self, tmp_path):
        """Without truth columns routing 3 is the reference, so its rows
        read zero once the 2 s settle has passed, and the others do not."""
        cfg = write(tmp_path / "bare.cfg", "duration = 4.0\nseed = 7\n")
        log, out = tmp_path / "bare.csv", tmp_path / "report.csv"
        assert main(["simulate", "--config", cfg, "--out", str(log), "--no-truth"]) == 0
        assert main(["evaluate", "--config", cfg, "--log", str(log), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        scored = {approach: {float(v) for row in rows if row[1] == approach
                             for v in row[2:] if v != "nan"} for approach in "123"}
        assert len(rows) == 12 and scored["3"] == {0.0}
        assert min(scored["1"]) > 0.0 and min(scored["2"]) > 0.0

    def test_custom_bins_and_settle(self, tmp_path, sim_log):
        cfg = write(tmp_path / "ev.cfg", "speed_bins = 0.5,1.5\nsettle = 0.5\n")
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--config", cfg, "--log", str(sim_log),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,approach,<0.5,0.5-1.5,>1.5"
        row = lines[1].split(",")
        assert row[2] == "nan" and row[4] == "nan"
        assert not math.isnan(float(row[3]))  # unit speed lands in 0.5-1.5


def edited_log(log, tmp_path, *edits) -> tuple:
    """A copy of ``log`` with each ``(lineno, column, cell)`` of ``edits``
    set, and the message ``read_log`` refuses it with."""
    lines = log.read_text().splitlines(keepends=True)
    for lineno, column, cell in edits:
        cells = lines[lineno - 1].split(",")
        cells[column] = cell
        lines[lineno - 1] = ",".join(cells)
    path = tmp_path / "edited.csv"
    path.write_text("".join(lines))
    with pytest.raises(LogFormatError) as raised:
        read_log(path)
    return path, str(raised.value)


class TestBlocks:
    """The verbs on a log of three blocks of the reader: each holds a block
    at a time and writes what the whole-log functions give."""

    # The first line of the third block: a seed comment and the header
    # come before the data lines.
    THIRD_BLOCK = 3 + 2 * evalio._BLOCK_LINES

    @pytest.mark.parametrize("verb", ["estimate", "evaluate"])
    @pytest.mark.parametrize("column, cell, fault", [
        (1, "nan", "non-finite number 'nan'"), (0, "0.1", "time 0.1 does not increase past "),
        (2, "", "partial accelerometer sample"),
    ], ids=["nan", "time", "partial"])
    def test_fault_in_third_block_exits_2_naming_its_line(self, tmp_path, capsys, long_log,
                                                          verb, column, cell, fault):
        lineno = self.THIRD_BLOCK + 40
        bad, message = edited_log(long_log, tmp_path, (lineno, column, cell))
        assert message.startswith(f"line {lineno}: {fault}")
        out = tmp_path / "out.csv"
        assert main([verb, "--log", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_first_fault_in_log_order_wins(self, tmp_path, capsys, long_log):
        """A refused tick before a bad line is named, and a bad line before
        a refused tick; either way no estimate is written."""
        out = tmp_path / "e.csv"
        early, late = 3 + 40, self.THIRD_BLOCK + 40
        nan, off_unit = (1, "nan"), (FRAME_COLUMNS.index("q1"), "1.5")
        for tick_line, bad_line in ((early, late), (late, early)):
            bad, message = edited_log(long_log, tmp_path, (tick_line, *off_unit),
                                      (bad_line, *nan))
            assert message == f"line {bad_line}: non-finite number 'nan'"
            assert main(["estimate", "--log", str(bad), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            if tick_line < bad_line:
                assert err.startswith("error: quaternion norm ")
            else:
                assert err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("config", ["duration = 12.0\nseed = 7\n",
                                        "duration = 6.0\nseed = 4\ngps_rate = 120\n"
                                        "baro_rate = 75\ngps_latency = 0.0\nphi_g = 0.4\n"],
                             ids=["three-blocks", "fixes-sharing-a-tick"])
    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no-truth"])
    def test_simulate_writes_the_synthesized_log(self, tmp_path, config, truth):
        """``simulate`` writes the synthesizer's log table without making
        frames: the bytes of ``write_log`` of what ``synthesize`` returns."""
        path = write(tmp_path / "c.cfg", config)
        cfg = load_config(path)
        out, want = tmp_path / "out.csv", tmp_path / "want.csv"
        assert main(["simulate", "--config", path, "--out", str(out),
                     *([] if truth else ["--no-truth"])]) == 0
        frames, samples = synthesize(cli._build(TrajectoryParams, cfg), cli._build(NoiseSpec, cfg))
        write_log(frames, want, truth=samples if truth else None,
                  meta=[f"rng: numpy-PCG64 seed={cfg['seed']}"])
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no-truth"])
    def test_evaluate_reports_compare_approaches(self, tmp_path, long_log, truth):
        log = long_log
        if not truth:
            log = tmp_path / "bare.csv"
            write_log(read_log(long_log).frames, log)
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--log", str(log), "--out", str(out)]) == 0
        assert out.read_text() == compare_approaches(read_log(log)).to_csv()

    def test_evaluate_checks_its_arguments_before_the_log(self, tmp_path, capsys):
        """Bin edges that do not increase are refused before the log is
        opened, so a missing log is not named."""
        cfg = write(tmp_path / "c.cfg", "speed_bins = 3.0, 2.0\n")
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--config", cfg, "--log", str(tmp_path / "missing.csv"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bin edges must be finite and strictly")
        assert not out.exists()


class TestBode:
    def test_table_layout(self, tmp_path):
        out = tmp_path / "bode.csv"
        assert main(["bode", "--out", str(out), "--points", "50"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f_hz,kf_fu_mag,kf_fy_mag,lo_fy1_mag,lo_fy2_mag"
        assert len(lines) == 51
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(0.01)
        assert first[2] == pytest.approx(1.0, abs=0.01)  # position passband

    @pytest.mark.parametrize("config, argv, table", [
        (None, [], {}),
        ("lambda = 500, 200, 10\nk_gamma = 0.6, 0.7\n",
         ["--axis", "2", "--f-min", "0.1", "--f-max", "3", "--points", "7"],
         {"axis": 2, "f_min": 0.1, "f_max": 3.0, "points": 7}),
    ], ids=["defaults", "axis-2-band"])
    def test_bytes_match_per_cell_formatter(self, tmp_path, config, argv, table):
        cfg = None if config is None else write(tmp_path / "c.cfg", config)
        out = tmp_path / "bode.csv"
        assert main(["bode", "--out", str(out), *argv,
                     *([] if cfg is None else ["--config", cfg])]) == 0
        expected = per_cell_bode_csv(build_estimator_config(load_config(cfg)), **table)
        assert out.read_bytes() == expected.encode()

    def test_gain_not_converging_exits_3(self, monkeypatch, tmp_path, capsys):
        def not_converging(ts, ratio):
            raise NonConvergenceError(f"ratio {ratio}: no fixed point after 10000 iterations")

        monkeypatch.setattr(cli, "axis_gain", not_converging)
        out = tmp_path / "x.csv"
        assert main(["bode", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: ratio 500.0: no fixed point after 10000 iterations\n")
        assert not out.exists()

    def test_lambda_moves_crossover(self, tmp_path):
        soft = tmp_path / "soft.csv"
        stiff = tmp_path / "stiff.csv"
        cfg = write(tmp_path / "soft.cfg", "lambda = 10\n")
        assert main(["bode", "--config", cfg, "--out", str(soft), "--points", "50"]) == 0
        assert main(["bode", "--out", str(stiff), "--points", "50"]) == 0
        f_soft = [line.split(",") for line in soft.read_text().splitlines()[1:]]
        f_stiff = [line.split(",") for line in stiff.read_text().splitlines()[1:]]
        # near 1 Hz the stiff tuning still tracks while the soft one rolls off
        mid = next(i for i, row in enumerate(f_soft) if float(row[0]) > 1.0)
        assert float(f_stiff[mid][2]) > float(f_soft[mid][2])

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_fewer_than_one_point_exits_2(self, tmp_path, capsys, points):
        out = tmp_path / "x.csv"
        assert main(["bode", "--out", str(out), "--points", points]) == 2
        assert "error: need at least one point" in capsys.readouterr().err
        assert not out.exists()

    def test_band_outside_nyquist_exits_2(self, tmp_path, capsys):
        code = main(["bode", "--out", str(tmp_path / "x.csv"), "--f-max", "30"])
        assert code == 2
        capsys.readouterr()

    def test_axis_picks_its_ratio(self, tmp_path):
        """``--axis 2`` tabulates the third ratio: its ``kf_*`` columns are
        those of axis 0 tuned to the same ratio."""
        mixed = write(tmp_path / "mixed.cfg", "lambda = 500, 500, 10\n")
        soft = write(tmp_path / "soft.cfg", "lambda = 10\n")
        tables = []
        for cfg, axis in ((mixed, "2"), (soft, "0")):
            out = tmp_path / f"axis{axis}.csv"
            assert main(["bode", "--config", cfg, "--out", str(out), "--points", "50",
                         "--axis", axis]) == 0
            tables.append([line.split(",")[:3] for line in out.read_text().splitlines()])
        assert len(tables[0]) == 51
        assert tables[0] == tables[1]

    def test_axis_outside_0_to_2_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bode", "--out", str(tmp_path / "x.csv"), "--axis", "3"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_ratio_past_the_stable_loop_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "lambda = 1e8\n")
        out = tmp_path / "x.csv"
        assert main(["bode", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ratio 100000000.0 at ts 0.02: ")
        assert err.count("\n") == 1
        assert not out.exists()


VERBS = ["simulate", "estimate", "evaluate", "bode"]


class TestSharedOptions:
    """``--config`` and ``--out`` for every verb, ``--log`` for the two
    that read a log."""

    @staticmethod
    def log_options(verb, log):
        return ["--log", str(log)] if verb in ("estimate", "evaluate") else []

    @pytest.mark.parametrize("verb", VERBS)
    def test_config_read(self, tmp_path, sim_log, capsys, verb):
        out = tmp_path / "out.csv"
        argv = [verb, *self.log_options(verb, sim_log), "--out", str(out), "--config"]
        assert main([*argv, write(tmp_path / "c.cfg", BASE_CONFIG)]) == 0
        assert out.exists()
        out.unlink()
        bad = write(tmp_path / "bad.cfg", "tether = 30\n")
        assert main([*argv, bad]) == 2
        assert capsys.readouterr().err == f"error: {bad} line 1: unknown key 'tether'\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", VERBS)
    def test_out_required(self, sim_log, capsys, verb):
        with pytest.raises(SystemExit) as info:
            main([verb, *self.log_options(verb, sim_log)])
        assert info.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", VERBS)
    def test_log_required_by_the_verbs_that_read_one(self, tmp_path, sim_log, capsys, verb):
        out = ["--out", str(tmp_path / "out.csv")]
        reads_log = verb in ("estimate", "evaluate")
        with pytest.raises(SystemExit) as info:
            main([verb, *out, *([] if reads_log else ["--log", str(sim_log)])])
        assert info.value.code == 2
        err = capsys.readouterr().err
        if reads_log:
            assert "the following arguments are required: --log" in err
        else:
            assert "unrecognized arguments: --log" in err


class TestConfigParsing:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "tether = 30\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_syntax_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "r 30\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()

    def test_bad_value_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "# tether\nr = thirty\n")
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'r'" in err

    @pytest.mark.parametrize("line", [
        "phi_g = nan",
        "r = inf",
        "ts = inf",
        "k_gamma = nan, 0.9",
        "lambda = inf",
    ])
    def test_non_finite_value_exits_2(self, tmp_path, sim_log, capsys, line):
        # Unchecked, these give NaN estimates (phi_g, r), an uncaught
        # LinAlgError (ts, k_gamma) or a million Riccati iterations (lambda).
        cfg = write(tmp_path / "c.cfg", f"# tuning\n{line}\n")
        start = time.perf_counter()
        code = main(["estimate", "--config", cfg, "--log", str(sim_log),
                     "--out", str(tmp_path / "e.csv")])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_unused_key_still_parsed(self, tmp_path, capsys):
        # bode uses no noise key, but every value in the file is checked.
        cfg = write(tmp_path / "c.cfg", "seed = seven\n")
        code = main(["bode", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_lambda_must_be_one_or_three(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "lambda = 1,2\n")
        code = main(["bode", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("verb, argv, config", [
        ("simulate", ["--seed", str(10 ** 400)], BASE_CONFIG),
        ("simulate", [], f"seed = {10 ** 400}\n"),
        ("simulate", [], f"encoder_cpr = {10 ** 400}\n"),
        ("estimate", [], f"approach = {10 ** 400}\n"),
    ], ids=["seed-flag", "seed", "encoder_cpr", "approach"])
    def test_integer_beyond_float_range_exits_2(self, tmp_path, sim_log, capsys,
                                                verb, argv, config):
        cfg = write(tmp_path / "c.cfg", config)
        out = tmp_path / "x.csv"
        log = ["--log", str(sim_log)] if verb == "estimate" else []
        assert main([verb, "--config", cfg, "--out", str(out), *log, *argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "must be finite" in err[0]
        # The value shows by its digit count, not as 401 digits.
        assert "an integer of 401 digits" in err[0] and len(err[0]) < 80
        assert not out.exists()

    @pytest.mark.parametrize("verb, bad", [("estimate", "--log"), ("evaluate", "--log"),
                                           ("bode", "--config")])
    def test_file_not_utf8_text_exits_2_naming_it(self, tmp_path, sim_log, capsys, verb, bad):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff\xfe" + sim_log.read_bytes())
        out = tmp_path / "x.csv"
        assert main([verb, bad, str(binary), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {binary}: not utf-8 text\n"
        assert not out.exists()

    def test_inline_comments_and_bools(self, tmp_path, sim_log):
        cfg = write(tmp_path / "c.cfg",
                    "use_imu = false  # coast between fixes\nlambda = 500\n")
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg, "--log", str(sim_log),
                     "--out", str(out)]) == 0


CONFIGURED = (EncoderGeometry, EstimatorConfig, TrajectoryParams, NoiseSpec)

KEY_TYPES = {
    "guide_rise": float, "guide_reach": float, "pivot_height": float,
    "pivot_setback": float,
    "r": float, "phi_g": float, "ts": float, "k_gamma": tuple, "approach": int,
    "use_imu": bool,
    "theta0": float, "phi0": float, "a_theta": float, "a_phi": float,
    "f_loop": float, "speed_scale": float, "duration": float, "theta_phase": float,
    "accel_density_g": float, "accel_bias_g": float, "gyro_density_dps": float,
    "gyro_bias_dps": float, "gyro_range_dps": float, "gps_sigma_xy": float,
    "gps_rate": float, "gps_latency": float, "baro_resolution": float,
    "baro_rate": float, "attitude_rms_deg": float, "encoder_cpr": int, "seed": int,
    "lambda": tuple, "speed_bins": tuple, "settle": float,
}

EVERY_KEY = """\
guide_rise = 0.12
guide_reach = 0.28
pivot_height = 0.03
pivot_setback = 0.01
r = 25.0
phi_g = 0.3
ts = 0.025
k_gamma = 0.5, 0.8
approach = 2
use_imu = false
theta0 = 0.65
phi0 = 0.1
a_theta = 0.12
a_phi = 0.7
f_loop = 0.18
speed_scale = 1.5
duration = 3.0
theta_phase = 0.2
accel_density_g = 3e-4
accel_bias_g = 3e-3
gyro_density_dps = 0.04
gyro_bias_dps = 0.2
gyro_range_dps = 250.0
gps_sigma_xy = 2.0
gps_rate = 5.0
gps_latency = 0.1
baro_resolution = 0.25
baro_rate = 10.0
attitude_rms_deg = 1.5
encoder_cpr = 1024
seed = 5
lambda = 300, 400, 600
speed_bins = 1.0, 2.0
settle = 0.5
"""


class TestConfigSchema:
    def test_keys_and_value_types_pinned(self):
        assert len(CONFIG_KEYS) == 34
        assert set(CONFIG_KEYS) == set(KEY_TYPES)
        for key, parse in CONFIG_KEYS.items():
            assert type(parse("1")) is KEY_TYPES[key], key

    def test_every_field_is_a_key(self):
        for cls in CONFIGURED:
            for field in dataclasses.fields(cls):
                if field.name not in ("ratios", "geometry"):
                    assert field.name in CONFIG_KEYS, (cls.__name__, field.name)

    def test_every_key_reaches_its_dataclass(self, tmp_path):
        cfg = load_config(write(tmp_path / "every.cfg", EVERY_KEY))
        geometry = EncoderGeometry(guide_rise=0.12, guide_reach=0.28,
                                   pivot_height=0.03, pivot_setback=0.01)
        expected = [
            EstimatorConfig(r=25.0, phi_g=0.3, ts=0.025, ratios=(300.0, 400.0, 600.0),
                            k_gamma=(0.5, 0.8), geometry=geometry, approach=2,
                            use_imu=False),
            TrajectoryParams(r=25.0, theta0=0.65, phi0=0.1, a_theta=0.12, a_phi=0.7,
                             f_loop=0.18, speed_scale=1.5, duration=3.0, phi_g=0.3,
                             theta_phase=0.2),
            NoiseSpec(accel_density_g=3e-4, accel_bias_g=3e-3, gyro_density_dps=0.04,
                      gyro_bias_dps=0.2, gyro_range_dps=250.0, gps_sigma_xy=2.0,
                      gps_rate=5.0, gps_latency=0.1, baro_resolution=0.25,
                      baro_rate=10.0, attitude_rms_deg=1.5, encoder_cpr=1024, seed=5),
        ]
        built = [build_estimator_config(cfg),
                 cli._build(TrajectoryParams, cfg), cli._build(NoiseSpec, cfg)]
        for want, got in zip(expected, built):
            assert got == want
            default = type(want)()
            for field in dataclasses.fields(want):
                assert getattr(want, field.name) != getattr(default, field.name), field.name
                assert type(getattr(got, field.name)) is type(getattr(want, field.name))
        assert cfg["speed_bins"] == (1.0, 2.0) and cfg["settle"] == 0.5


README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_HEADER = "| key | type | default | domain | synthesizer limit |"


def readme_config_rows() -> list[list[str]]:
    """The rows of the README's config table, each a list of its cells
    with the key's backquotes stripped."""
    lines = README.read_text().splitlines()
    body = lines[lines.index(TABLE_HEADER) + 2:]  # past the header and its rule
    rows = [[cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.startswith("|"), body)]
    assert all(len(row) == 5 for row in rows)
    return rows


def config_text(value) -> str:
    """A value as a config file writes it."""
    if isinstance(value, bool):
        return str(value).lower()
    return ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def field_row(cls, name: str) -> tuple[str, str, str]:
    """Type, default and domain of the field ``name`` of ``cls``, as the
    README's table states them."""
    field = next(field for field in errors._fields(cls) if field.name == name)
    default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    kind = f"{field.width} floats" if field.many else field.kind.__name__
    if field.domain is not None:
        return kind, config_text(default), field.domain.value
    return kind, config_text(default), "true or false" if field.kind is bool else "finite"


def code_config_row(key: str) -> tuple[str, str, str]:
    """Type, default and domain of the config key ``key``, from the code:
    every dataclass with the field must agree."""
    if key == "lambda":
        return ("1 or 3 floats",) + field_row(EstimatorConfig, "ratios")[1:]
    if key == "speed_bins":
        return "floats", config_text(evalio._BIN_EDGES), "finite, increasing"
    if key == "settle":
        return "float", config_text(evalio._SETTLE), "finite"
    rows = {field_row(cls, key) for cls in CONFIGURED
            if key in {field.name for field in dataclasses.fields(cls)}}
    assert len(rows) == 1, (key, rows)
    return rows.pop()


class TestReadmeConfigTable:
    def test_one_row_per_config_key(self):
        keys = [row[0] for row in readme_config_rows()]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(CONFIG_KEYS)

    def test_type_default_and_domain_are_the_code(self):
        for key, *cells, _ in readme_config_rows():
            assert tuple(cells) == code_config_row(key), key


#: The edge values each real config key is set to; an integer key takes 0
#: and -1 only.
EDGES = (1e308, -1e308, 1e-308, 5e-324, 0.0, -1.0, 1e300, 1e-300, 1e20)


def edge_configs():
    """``(case, config text)`` for every config key but ``use_imu`` at each
    edge value: ``k_gamma`` with both entries set, ``lambda`` and
    ``speed_bins`` with one value, ``duration`` alone and every other key
    beside ``duration = 0.3``."""
    for key, parse in CONFIG_KEYS.items():
        if key == "use_imu":
            continue
        for value in (0, -1) if parse is int else EDGES:
            line = f"{key} = " + (f"{value!r}, {value!r}" if key == "k_gamma" else repr(value))
            yield line, line + "\n" if key == "duration" else f"duration = 0.3\n{line}\n"


def csv_cells(path, skip: int = 0) -> np.ndarray:
    """The cells of a CSV after its header line and its first ``skip``
    columns, as a float table."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(cell) for cell in row.split(",")[skip:]] for row in rows])


class TestEdgeGrid:
    """The config contract, over every key at the edges of float range
    (:func:`edge_configs`): ``simulate``, then ``estimate`` and ``evaluate``
    on its log (or on a default 0.3 s log where it wrote none): each verb
    either refuses the config, with exit 2, one ``error:`` line and no
    file, or exits 0 with a log that reads back, finite estimates and
    report cells that are finite or, for an empty speed bin, nan.  A
    warning is raised as an error, so one counts as a fault."""

    @staticmethod
    def fault(capsys, argv, out) -> str | None:
        """What is wrong with one run of ``main(argv)`` writing ``out``,
        or None; the caller checks what an exit-0 run wrote."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        except Exception as exc:  # a traceback at the command line
            capsys.readouterr()
            return f"raised {type(exc).__name__}: {exc}"
        std = capsys.readouterr()
        if code == 2:
            lines = std.err.splitlines()
            if len(lines) != 1 or not lines[0].startswith("error: ") or std.out or out.exists():
                return f"exit 2 with {std.err!r}, out exists: {out.exists()}"
            return None
        if code != 0 or std.err or std.out or not out.exists():
            return f"exit {code} with {std.err!r}, out exists: {out.exists()}"
        return None

    def test_every_key_at_each_edge(self, tmp_path, capsys):
        default_log = tmp_path / "default.csv"
        assert main(["simulate", "--config", write(tmp_path / "d.cfg", "duration = 0.3\n"),
                     "--out", str(default_log)]) == 0
        faults = []
        for case, config in edge_configs():
            cfg = write(tmp_path / "edge.cfg", config)
            log, estimate, report = (tmp_path / name for name in ("log.csv", "e.csv", "r.csv"))
            for path in (log, estimate, report):
                path.unlink(missing_ok=True)
            fault = self.fault(capsys, ["simulate", "--config", cfg, "--out", str(log)], log)
            if log.exists():  # exit 0: the log must read back
                read_log(log)
            source = log if log.exists() else default_log
            verbs = {"simulate": fault}
            for verb, out in (("estimate", estimate), ("evaluate", report)):
                argv = [verb, "--config", cfg, "--log", str(source), "--out", str(out)]
                verbs[verb] = self.fault(capsys, argv, out)
            if verbs["estimate"] is None and estimate.exists():
                if not np.isfinite(csv_cells(estimate)).all():
                    verbs["estimate"] = "non-finite estimates"
            if verbs["evaluate"] is None and report.exists():
                cells = csv_cells(report, skip=2)  # past quantity and approach
                empty = np.isnan(cells).all(axis=0)
                if not np.isfinite(cells[:, ~empty]).all():
                    verbs["evaluate"] = "non-finite report cells"
            faults += [f"{case}: {verb} {fault}" for verb, fault in verbs.items() if fault]
        assert not faults, "\n".join(faults)
