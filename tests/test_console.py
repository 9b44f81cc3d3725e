"""The command line in new interpreters, for what an in-process ``main``
call cannot show: a cold process, a real pipe on stdin, warnings raised as
errors, and everything a refusal writes to stderr.

Each check runs ``python -m kitefusion.cli`` with this checkout's ``src``
first on ``PYTHONPATH``, so nothing need be installed.  The verbs'
behaviour is tested in process in ``test_cli.py``; a new interpreter costs
far more than a call, so only checks that need one are here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kitefusion.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
RUN_CONFIG = "duration = 2.0\nseed = 7\n"


def python(cwd, *args: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` in ``cwd``, with every warning
    raised as an error and ``stdin`` written to its stdin pipe."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          input=stdin, capture_output=True, text=True, timeout=120)


def kitefusion(cwd, *argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run the command line in a new interpreter in ``cwd``, as
    :func:`python` does."""
    return python(cwd, "-m", "kitefusion.cli", *argv, stdin=stdin)


def assert_refused(result: subprocess.CompletedProcess, out: Path, line: str) -> None:
    """Exit 2 with ``line`` alone on stderr (so no traceback and no
    warning), nothing on stdout, and no output file."""
    assert (result.returncode, result.stderr, result.stdout) == (2, line + "\n", "")
    assert not out.exists()


@pytest.fixture(scope="module")
def flight(tmp_path_factory) -> Path:
    """A directory holding ``run.cfg``, the 2 s log ``flight.csv`` it
    simulates and ``estimate.csv``, all written in process."""
    home = tmp_path_factory.mktemp("flight")
    cfg = home / "run.cfg"
    cfg.write_text(RUN_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(home / "flight.csv")]) == 0
    assert main(["estimate", "--config", str(cfg), "--log", str(home / "flight.csv"),
                 "--out", str(home / "estimate.csv")]) == 0
    return home


def test_cold_processes_write_the_same_log(flight, tmp_path):
    """Two new interpreters, each with its own string-hash seed and no
    flight held, write the bytes of the in-process run."""
    for name in ("a.csv", "b.csv"):
        result = kitefusion(tmp_path, "simulate", "--config", str(flight / "run.cfg"),
                            "--out", name)
        assert (result.returncode, result.stderr) == (0, "")
    want = (flight / "flight.csv").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == want
    assert (tmp_path / "b.csv").read_bytes() == want


def edited(flight: Path, case: str) -> str:
    """The text of ``flight.csv``, as is or with one edit by ``case``."""
    lines = (flight / "flight.csv").read_text().splitlines(keepends=True)

    def set_cell(lineno: int, column: int, cell: str) -> None:
        cells = lines[lineno - 1].split(",")
        cells[column] = cell
        lines[lineno - 1] = ",".join(cells)

    if case == "noted":
        # A whitespace-only wind cell and a comment: each sends its block
        # to the line-by-line pass.
        set_cell(60, 16, " ")
        lines.insert(49, "# hand note\n")
    elif case == "nan":
        set_cell(100, 1, "nan")
    return "".join(lines)


@pytest.mark.parametrize("case", ["clean", "noted"])
def test_estimate_reads_a_pipe(flight, tmp_path, case):
    """``--log /dev/stdin`` on a pipe, which cannot be rewound, writes the
    estimate of the log file; a refused block is parsed again from the
    lines the reader already took."""
    result = kitefusion(tmp_path, "estimate", "--config", str(flight / "run.cfg"),
                        "--log", "/dev/stdin", "--out", "estimate.csv",
                        stdin=edited(flight, case))
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "estimate.csv").read_bytes() == (flight / "estimate.csv").read_bytes()


def test_pipe_fault_exits_2_naming_its_line(flight, tmp_path):
    result = kitefusion(tmp_path, "estimate", "--config", str(flight / "run.cfg"),
                        "--log", "/dev/stdin", "--out", "estimate.csv",
                        stdin=edited(flight, "nan"))
    assert_refused(result, tmp_path / "estimate.csv", "error: line 100: non-finite number 'nan'")


@pytest.mark.parametrize("argv, config, line", [
    (["bode", "--points", "0"], None, "error: need at least one point, got 0"),
    (["simulate", "--seed", "-1"], None, "error: seed must not be negative, got -1"),
    # An integer beyond float range.
    (["simulate", "--seed", str(10 ** 400)], None,
     "error: seed must be finite, got an integer of 401 digits"),
    # A pattern of zero amplitudes has no velocity to take an angle of.
    (["simulate"], b"duration = 2.0\na_theta = 0.0\na_phi = 0.0\n",
     "error: pattern velocity vanishes at t=0.0"),
    # Past the stable filter loop (about 3.33e7 at ts = 0.02), and far past
    # it, where the Riccati iteration would overflow if it ran.
    (["bode"], b"lambda = 1e8\n",
     "error: ratio 100000000.0 at ts 0.02: closed loop is not strictly stable"),
    (["bode"], b"lambda = 1e200\n",
     "error: ratio 1e+200 at ts 0.02: closed loop is not strictly stable"),
    (["bode"], b"\xfflambda = 10\n", "error: bad.cfg: not utf-8 text"),
    # numpy's geomspace would warn, then the grid fail.
    (["bode", "--f-max", "inf"], None, "error: f-max must be positive and finite, got inf"),
    (["bode", "--f-min", "inf"], None, "error: f-min must be positive and finite, got inf"),
    # A pattern whose speed overflows float64: an OverflowError, or a log
    # written after numpy's overflow warning.
    (["simulate"], b"duration = 0.2\nspeed_scale = 1e200\n",
     "error: pattern speed overflows float64: r=30.0, a_theta=0.15, a_phi=0.75, f_loop=0.16, "
     "speed_scale=1e+200"),
    (["simulate"], b"duration = 0.2\nr = 1e300\n",
     "error: pattern speed overflows float64: r=1e+300, a_theta=0.15, a_phi=0.75, f_loop=0.16, "
     "speed_scale=1.0"),
    # A moving pattern whose velocity's squares underflow, not a still one.
    (["simulate"],
     b"r = 1e-300\na_theta = 1e-300\na_phi = 1e-300\nf_loop = 1e10\nduration = 0.1\n",
     "error: pattern speed underflows float64: r=1e-300, a_theta=1e-300, a_phi=1e-300, "
     "f_loop=10000000000.0, speed_scale=1.0"),
    # Limits the synthesizer's arithmetic sets, checked before any array is
    # made: each value raised an OverflowError, numpy's "Maximum allowed
    # size exceeded" or an overflow warning instead.
    (["simulate"], b"duration = 0.2\nts = 1e-300\n",
     "error: record of 2e+299 ticks does not fit an array: duration=0.2, ts=1e-300"),
    (["simulate"], b"duration = 0.2\naccel_bias_g = 1e308\n",
     "error: bias draw overflows float64: accel_bias_g=1e+308"),
    (["simulate"], b"duration = 0.2\nguide_rise = 1e300\n",
     "error: guide geometry overflows the encoder inversion: guide_rise=1e+300, "
     "guide_reach=0.3, pivot_height=0.02, pivot_setback=0.02"),
    (["simulate"], b"duration = 0.2\nattitude_rms_deg = 1e308\n",
     "error: attitude noise overflows the squared rotation angle: attitude_rms_deg=1e+308"),
], ids=["points-0", "negative-seed", "401-digit-seed", "still-pattern", "ratio-1e8",
        "ratio-1e200", "config-not-utf8", "f-max-inf", "f-min-inf", "speed-scale-1e200",
        "r-1e300", "underflowing-pattern", "ts-1e-300", "accel-bias-1e308", "guide-rise-1e300",
        "attitude-noise-1e308"])
def test_bad_input_exits_2_with_one_line(tmp_path, argv, config, line):
    if config is not None:
        (tmp_path / "bad.cfg").write_bytes(config)
        argv = [*argv, "--config", "bad.cfg"]
    result = kitefusion(tmp_path, *argv, "--out", "out.csv")
    assert_refused(result, tmp_path / "out.csv", line)


# Runs the command line, then prints the peak resident size of the new
# interpreter's address space, in KiB.  Its ru_maxrss would not do: Linux
# carries the forking process's peak (the test process's, which is larger)
# across exec into it.
PEAK_RSS = """\
import sys
from kitefusion.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_peak_memory_grows_less_than_1_kib_per_tick(tmp_path):
    """Each verb holds arrays and a block of the log, not one object per
    tick: from a 20 s log to a 200 s one (9,000 ticks more), the peak
    resident size of a new interpreter grows by at most 1 KiB per tick.
    Holding the whole record as frames, truth points or estimates grew by
    1.65-2.25 KiB per tick."""
    peaks = {}
    for seconds in (20, 200):
        (tmp_path / "run.cfg").write_text(f"duration = {seconds}.0\nseed = 7\n")
        log = f"flight{seconds}.csv"
        for verb, argv in (("simulate", ["--out", log]),
                           ("estimate", ["--log", log, "--out", "estimate.csv"]),
                           ("evaluate", ["--log", log, "--out", "report.csv"])):
            result = python(tmp_path, "-c", PEAK_RSS, verb, "--config", "run.cfg", *argv)
            assert (result.returncode, result.stderr) == (0, "")
            peaks[verb, seconds] = int(result.stdout)
    added_ticks = (200 - 20) * 50
    growth = {verb: (peaks[verb, 200] - peaks[verb, 20]) / added_ticks
              for verb in ("simulate", "estimate", "evaluate")}
    assert max(growth.values()) <= 1.0, growth  # KiB per tick
