"""The benchmark's three workloads and the run loop that times them.

Each workload is single-process and closed-loop: one caller issues the
next unit of work when the previous one returns.  Inputs come only from
the workload seed, through fixed pools of records whose outputs were
recorded once (see ``record.py``), so every operation is checked.

``sweep``
    The Monte-Carlo speed sweep of the acceptance tests: one unit is a
    40 s record synthesized and replayed through the three default
    routings by ``compare_approaches``.  Speed scales cycle through
    1.5, 2.5, 3.5 and 4.5 because the encoder inversion works harder at
    speed.  Mostly ``simkite`` and ``lineangle``; no file I/O.
``verbs``
    The command-line chain, in process: ``simulate`` one 60 s record,
    ``estimate`` it with routings 1, 2 and 3, ``evaluate`` it.  The only
    workload that writes and parses logs and parses configs.
``stream``
    Onboard use: routing 3 with the stiff tuning fed one frame at a time
    from a noisy record at speed scale 4.5, every ``step`` call timed.
    No synthesis (done in untimed set-up) and no I/O.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
from kitefusion import cli, evalio, pipelines, simkite
from kitefusion.frames import wrap_angle

import checks
from tracer import STEP, Tracer, metric

SCALES = (1.5, 2.5, 3.5, 4.5)
VERBS_SCALE = 2.5
STREAM_SCALE = 4.5
TS = 0.02
SETTLE = 2.0
POOL_SEED = {"sweep": 10_000, "verbs": 20_000, "stream": 30_000}


@dataclass(frozen=True)
class Shape:
    """Size of one workload: flight seconds per record, records in the
    recorded pool, and units of work in a traced run."""

    flight_s: float
    pool: int
    traced_units: int


SIZES = {
    "full": {"sweep": Shape(40.0, 64, 4), "verbs": Shape(60.0, 8, 2),
             "stream": Shape(120.0, 8, 8)},
    "tiny": {"sweep": Shape(4.0, 4, 4), "verbs": Shape(4.0, 1, 1),
             "stream": Shape(4.0, 1, 2)},
}
SETUP_REPEATS = {"full": 11, "tiny": 1}
WORKLOADS = ("sweep", "verbs", "stream")


def pool_record(workload: str, item: int) -> tuple[float, int]:
    """Speed scale and noise seed of pool record ``item``."""
    scale = {"sweep": SCALES[item % len(SCALES)], "verbs": VERBS_SCALE,
             "stream": STREAM_SCALE}[workload]
    return scale, POOL_SEED[workload] + item


def unit_items(workload: str, seed: int, pool: int):
    """Endless, seed-determined sequence of pool items, one per unit.

    ``sweep`` keeps the speed scales cycling in order; ``stream`` replays
    one record for the whole run.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stream":
        yield from itertools.repeat(rng.randrange(pool))
    groups = len(SCALES) if workload == "sweep" else 1
    orders = [rng.sample(range(pool // groups), pool // groups) for _ in range(groups)]
    for j in itertools.count():
        group = j % groups
        yield orders[group][(j // groups) % len(orders[group])] * groups + group


# ----------------------------------------------------------------------
# Outputs in comparable form


def report_table(report) -> dict:
    return checks.table([f"{row.quantity}/{row.approach}" for row in report.rows],
                        report.bin_labels, [row.values for row in report.rows])


def read_report_csv(path) -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()
    bins = lines[0].split(",")[2:]
    labels, values = [], []
    for line in lines[1:]:
        quantity, approach, *cells = line.split(",")
        labels.append(f"{quantity}/{approach}")
        values.append([float(c) for c in cells])
    return checks.table(labels, bins, values)


def read_estimate_csv(path) -> list[tuple[float, ...]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [tuple(float(c) for c in line.split(",")) for line in lines[1:]]


def output_row(out) -> tuple[float, ...] | None:
    if out is None:
        return None
    return (float(out.t), *map(float, out.p_hat), *map(float, out.v_hat),
            float(out.theta_hat), float(out.phi_hat), float(out.gamma_hat),
            float(out.gamma_dot_hat))


def table_accuracy(tbl: dict) -> dict[str, float]:
    """3-D position RMSE per routing and routing-3 velocity-angle RMSE
    from a record's RMSE table (one speed bin populated)."""
    cells = {label: next(v for v in row if v is not None)
             for label, row in zip(tbl["labels"], tbl["values"]) if any(row)}
    acc = {f"pos_rmse_m.r{a}": math.sqrt(sum(cells[f"p_{x}/{a}"] ** 2 for x in "xyz"))
           for a in (1, 2, 3)}
    acc["gamma_rmse_rad.r3"] = cells["gamma/3"]
    return acc


def stream_accuracy(rows, truth) -> dict[str, float]:
    t0 = truth[0].t
    pos, gam = [], []
    for row, sample in zip(rows, truth):
        if row is None or sample.t - t0 < SETTLE:
            continue
        pos.append(sum((row[1 + k] - sample.p[k]) ** 2 for k in range(3)))
        gam.append(wrap_angle(row[9] - sample.gamma) ** 2)
    return {"pos_rmse_m.r3": math.sqrt(statistics.fmean(pos)),
            "gamma_rmse_rad.r3": math.sqrt(statistics.fmean(gam))}


# ----------------------------------------------------------------------
# Units of work


@dataclass
class UnitResult:
    """One record (``sweep``), chain (``verbs``) or pass (``stream``).

    ``parts`` holds the seconds of each timed part: ``record``, each verb
    of a chain (the three ``estimate`` calls together), or ``pass``.
    ``group`` is the speed scale."""

    parts: dict
    ticks: int
    attempted: int
    failed: int
    accuracy: dict
    group: float


class Sweep:
    name = "sweep"

    def __init__(self, shape: Shape, refs: dict, work_dir: str):
        self.shape, self.refs = shape, refs
        self.configs = evalio.default_configs()

    def _report(self, item: int):
        scale, noise_seed = pool_record(self.name, item)
        frames, truth = simkite.synthesize(
            simkite.TrajectoryParams(duration=self.shape.flight_s, speed_scale=scale),
            simkite.NoiseSpec(seed=noise_seed))
        return len(frames), evalio.compare_approaches(evalio.LogData(frames, truth),
                                                      self.configs)

    def run_unit(self, item: int, ops) -> UnitResult:
        ops.begin()
        start = time.perf_counter()
        ticks, report = self._report(item)
        seconds = time.perf_counter() - start
        tbl = report_table(report)
        ok = checks.matches_table(tbl, self.refs[str(item)])
        return UnitResult({"record": seconds}, ticks, 1, int(not ok), table_accuracy(tbl),
                          pool_record(self.name, item)[0])

    def record(self, item: int) -> dict:
        return report_table(self._report(item)[1])


class Verbs:
    name = "verbs"

    def __init__(self, shape: Shape, refs: dict, work_dir: str):
        self.shape, self.refs, self.dir = shape, refs, work_dir
        self.configs = {}
        for approach in (1, 2, 3):
            path = os.path.join(work_dir, f"approach{approach}.cfg")
            with open(path, "w") as fh:
                fh.write(f"duration = {shape.flight_s!r}\nspeed_scale = {VERBS_SCALE!r}\n"
                         f"ts = {TS!r}\napproach = {approach}\n")
            self.configs[approach] = path
        self.log = os.path.join(work_dir, "flight.csv")

    def _chain(self, noise_seed: int):
        """(verb label, argv, output path) of the five calls of a chain."""
        yield "simulate", ["simulate", "--config", self.configs[3], "--out", self.log,
                           "--seed", str(noise_seed)], self.log
        for approach in (1, 2, 3):
            out = os.path.join(self.dir, f"estimate{approach}.csv")
            yield "estimate", ["estimate", "--config", self.configs[approach],
                               "--log", self.log, "--out", out], out
        out = os.path.join(self.dir, "report.csv")
        yield "evaluate", ["evaluate", "--config", self.configs[3], "--log", self.log,
                           "--out", out], out

    def run_unit(self, item: int, ops) -> UnitResult:
        _, noise_seed = pool_record(self.name, item)
        ref = self.refs[str(item)]
        verb_seconds = {"simulate": 0.0, "estimate": 0.0, "evaluate": 0.0}
        failed = 0
        accuracy = {}
        clock = time.perf_counter
        for k, (verb, argv, out) in enumerate(self._chain(noise_seed)):
            ops.begin()
            start = clock()
            try:
                status = cli.main(argv)
            finally:
                verb_seconds[verb] += clock() - start
            ok = status == 0
            if ok and verb == "simulate":
                ok = checks.sha256_file(out) == ref["log_sha256"]
            elif ok and verb == "estimate":
                ok = checks.matches_fingerprint(read_estimate_csv(out), ref["estimate"][k - 1])
            elif ok:
                tbl = read_report_csv(out)
                ok = checks.matches_table(tbl, ref["evaluate"], digits=9)
                accuracy = table_accuracy(tbl)
            failed += not ok
        ticks = int(round(self.shape.flight_s / TS))
        return UnitResult(verb_seconds, ticks, 5, failed, accuracy, VERBS_SCALE)

    def record(self, item: int) -> dict:
        _, noise_seed = pool_record(self.name, item)
        ref: dict = {"estimate": []}
        for verb, argv, out in self._chain(noise_seed):
            if cli.main(argv) != 0:
                raise RuntimeError(f"{verb} failed while recording")
            if verb == "simulate":
                ref["log_sha256"] = checks.sha256_file(out)
            elif verb == "estimate":
                ref["estimate"].append(checks.fingerprint(read_estimate_csv(out)))
            else:
                ref["evaluate"] = read_report_csv(out)
        return ref


class Stream:
    name = "stream"

    def __init__(self, shape: Shape, refs: dict, work_dir: str):
        self.shape, self.refs = shape, refs
        self.config = evalio.default_configs()[2]
        self._frames: dict[int, tuple] = {}
        self._verified: dict[int, list] = {}

    def frames(self, item: int):
        """Untimed set-up: synthesize the record once per run."""
        if item not in self._frames:
            scale, noise_seed = pool_record(self.name, item)
            self._frames[item] = simkite.synthesize(
                simkite.TrajectoryParams(duration=self.shape.flight_s, speed_scale=scale),
                simkite.NoiseSpec(seed=noise_seed))
        return self._frames[item]

    def _pass(self, item: int) -> tuple[float, list]:
        frames, _ = self.frames(item)
        pipe = pipelines.EstimationPipeline(self.config)
        step = pipe.step
        clock = time.perf_counter
        start = clock()
        outputs = [step(frame) for frame in frames]
        return clock() - start, outputs

    def run_unit(self, item: int, ops) -> UnitResult:
        frames, truth = self.frames(item)
        ops.begin()
        seconds, outputs = self._pass(item)
        rows = [output_row(out) for out in outputs]
        if rows == self._verified.get(item):
            ok = True
        else:
            ok = checks.matches_fingerprint(rows, self.refs[str(item)])
            if ok:
                self._verified[item] = rows
        return UnitResult({"pass": seconds}, len(frames), 1, int(not ok),
                          stream_accuracy(rows, truth), STREAM_SCALE)

    def record(self, item: int) -> dict:
        _, outputs = self._pass(item)
        return checks.fingerprint([output_row(out) for out in outputs])


WORKLOAD_CLASSES = {"sweep": Sweep, "verbs": Verbs, "stream": Stream}


# ----------------------------------------------------------------------
# Timing helpers


class StepProbe:
    """Times every ``EstimationPipeline.step`` call while installed."""

    def __init__(self):
        self.ns: list[int] = []

    def __enter__(self) -> "StepProbe":
        cls = pipelines.EstimationPipeline
        self._original = original = cls.step
        durations = self.ns
        clock = time.perf_counter_ns

        def step(pipe, frame):
            start = clock()
            out = original(pipe, frame)
            durations.append(clock() - start)
            return out

        cls.step = step
        return self

    def __exit__(self, *exc) -> None:
        pipelines.EstimationPipeline.step = self._original


class Ops:
    """Numbers each record or verb call, so that its spans share one id.

    With ``calibrate``, it also takes calibration samples before each one,
    outside its measured time, and adds the time they cost to ``paused``.
    """

    def __init__(self, calibrate: bool = False):
        self.count = 0
        self.tracer: Tracer | None = None
        self.calibration: list[float] | None = [] if calibrate else None
        self.paused = 0.0

    def begin(self) -> None:
        if self.calibration is not None:
            start = time.perf_counter()
            self.calibration += [calibration_sample() for _ in range(CALIBRATION_SAMPLES)]
            self.paused += time.perf_counter() - start
        self.count += 1
        if self.tracer is not None:
            self.tracer.op = self.count


SETUP_CHILD = """\
import time
start = time.perf_counter()
import kitefusion
from kitefusion import cli, evalio, pipelines
base = cli.build_estimator_config(cli.load_config({config!r}))
for config in evalio.default_configs(base):
    pipelines.EstimationPipeline(config)
print(repr(time.perf_counter() - start))
"""
SETUP_CONFIG = "# set-up probe\nr = 30.0\nts = 0.02\nphi_g = 0.0\nk_gamma = 0.4, 0.9\n"


class SetupProbe:
    """Times importing kitefusion and building the three default pipelines
    in a fresh interpreter; the first, untimed run compiles bytecode."""

    def __init__(self, src_dir: str, work_dir: str):
        config = os.path.join(work_dir, "setup.cfg")
        with open(config, "w") as fh:
            fh.write(SETUP_CONFIG)
        self._argv = [sys.executable, "-c", SETUP_CHILD.format(config=config)]
        self._env = dict(os.environ, PYTHONPATH=src_dir)
        self.times: list[float] = []
        self._child()

    def _child(self) -> float:
        done = subprocess.run(self._argv, env=self._env, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(done.stdout.strip().splitlines()[-1])

    def sample(self) -> float:
        """Take one measurement; returns the wall time it cost."""
        start = time.perf_counter()
        self.times.append(self._child())
        return time.perf_counter() - start


def traced_setup(ops: Ops) -> None:
    """Gain synthesis from a cold cache, as a fresh process pays it."""
    from kitefusion import estimator

    for value in vars(estimator).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    ops.begin()
    base = cli.build_estimator_config(cli.load_config(None))
    for config in evalio.default_configs(base):
        pipelines.EstimationPipeline(config)


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def grouped_median(units: list[UnitResult], key: str) -> float:
    """Mean over speed scales of the per-scale median, so the figure does
    not depend on how many units of each scale a run finished."""
    groups: dict[float, list[float]] = {}
    for unit in units:
        if key in unit.accuracy:
            groups.setdefault(unit.group, []).append(unit.accuracy[key])
    if not groups:
        return math.nan
    return statistics.fmean(statistics.median(v) for v in groups.values())


def fast_decile(values) -> float:
    """The first decile of per-unit times or latencies.

    Other tenants of a small shared machine slow whole stretches of a run,
    often for many seconds and by up to about 1.8x, so the median of a
    run's units moves with their load.  The fast decile stays put as long
    as a tenth of the run's units ran undisturbed."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def part_seconds(units: list[UnitResult]) -> dict[str, list[float]]:
    parts: dict[str, list[float]] = {}
    for unit in units:
        for key, seconds in unit.parts.items():
            parts.setdefault(key, []).append(seconds)
    return parts


#: Consecutive ``step`` calls per latency sample; the p99 of a block
#: leaves ten calls beyond it.
STEP_BLOCK = 1000


class StepBlocks:
    """p50, p90 and p99 of each block of ``STEP_BLOCK`` consecutive ``step``
    calls.  Only these are kept, so the benchmark's own memory does not
    grow with the work it runs."""

    def __init__(self):
        self.p50: list[float] = []
        self.p90: list[float] = []
        self.p99: list[float] = []
        self._pending: list[int] = []

    def add(self, step_ns: list[int]) -> None:
        self._pending += step_ns
        while len(self._pending) >= STEP_BLOCK:
            self._close(self._pending[:STEP_BLOCK])
            del self._pending[:STEP_BLOCK]

    def finish(self) -> None:
        """Use a short remainder only when no full block was seen."""
        if not self.p50 and self._pending:
            self._close(self._pending)
        self._pending = []

    def _close(self, block: list[int]) -> None:
        block = sorted(block)
        self.p50.append(statistics.median(block))
        self.p90.append(percentile(block, 0.90))
        self.p99.append(percentile(block, 0.99))


#: First decile of :func:`calibration_sample` in a quiet period on the
#: machine of BASELINE.md.  Timings are reported at that machine speed.
CALIBRATION_REF_S = 0.85e-3
#: Calibration samples taken before every record or verb call.
CALIBRATION_SAMPLES = 8
_CAL_ROT = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def calibration_sample() -> float:
    """Seconds for a fixed mix of interpreter work and 3-element numpy
    operations, like the inside of ``EstimationPipeline.step`` (about
    1 ms).  It belongs to the benchmark, so no change to kitefusion
    moves it; only the machine does."""
    acc = 0.0
    start = time.perf_counter()
    for k in range(300):
        v = np.array((k * 0.5, 1.0, -2.0))
        w = _CAL_ROT @ v
        w[2] += 9.8
        acc += math.atan2(w[1], w[0]) + float(w @ w)
    return time.perf_counter() - start


def throughput_metrics(units: list[UnitResult], steps: StepBlocks,
                       slowdown: float = 1.0) -> dict:
    """Throughput of one cycle of the workload's parts (the verbs of a
    ``verbs`` chain; one record or pass otherwise), every part timed by
    the :func:`fast_decile` of its runs, and the step-latency percentiles
    of ``steps`` taken over its blocks by the same rule.  Sweep records
    of every speed scale share one part: the fast decile of 20 to 30
    records holds up better under load than that of the 5 to 8 records
    of each scale, while a record at scale 4.5 costs only about 15% more
    than one at 1.5."""
    steps.finish()
    ticks_per_part = {key: u.ticks / len(u.parts) for u in units for key in u.parts}
    cycle_ticks = sum(ticks_per_part.values())
    cycle_seconds = sum(fast_decile(v) for v in part_seconds(units).values())
    return {
        "ticks_per_s": metric(cycle_ticks / cycle_seconds * slowdown, "ticks/s"),
        "step_p50_us": metric(fast_decile(steps.p50) / 1e3 / slowdown, "us"),
        "step_p90_us": metric(fast_decile(steps.p90) / 1e3 / slowdown, "us"),
        "step_p99_us": metric(fast_decile(steps.p99) / 1e3 / slowdown, "us"),
    }


# ----------------------------------------------------------------------
# Runs


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict
    info: list[str]


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        size: str = "full", refs: dict | None = None) -> Outcome:
    """One benchmark run; ``root`` is the checkout (``src/`` beneath it)."""
    shape = SIZES[size][workload]
    if refs is None:
        refs = load_references(size)[workload]
    out_dir = os.path.join(root, ".bench_out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, root, size, shape, refs, work_dir,
                    out_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, root, size, shape, refs, work_dir, out_dir):
    info = []
    bench = WORKLOAD_CLASSES[workload](shape, refs, work_dir)
    items = unit_items(workload, seed, shape.pool)
    if workload == "stream":
        bench.frames(next(unit_items(workload, seed, shape.pool)))
    for config in evalio.default_configs():  # warm the gain cache before any timing
        pipelines.EstimationPipeline(config)
    ops = Ops(calibrate=not trace)
    attempted = failed = 0
    units: list[UnitResult] = []

    def run_one(item):
        nonlocal attempted, failed
        try:
            unit = bench.run_unit(item, ops)
        except Exception:
            if not failed:
                traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
            return None
        attempted += unit.attempted
        failed += unit.failed
        return unit

    if not trace:
        # Set-up and calibration samples are taken between units and calls,
        # outside the measured time, spread over the run so that a burst of
        # load cannot hit all of them.
        setup = SetupProbe(os.path.join(root, "src"), work_dir)
        repeats = SETUP_REPEATS[size]
        clock = time.perf_counter
        start = clock()
        steps = StepBlocks()
        with StepProbe() as probe:
            for item in items:
                unit = run_one(item)
                if unit is not None:
                    steps.add(probe.ns)
                    units.append(unit)
                probe.ns.clear()
                busy = clock() - start - ops.paused
                if len(setup.times) < repeats and busy >= len(setup.times) * seconds / repeats:
                    ops.paused += setup.sample()
                if busy >= seconds:
                    break
        while len(setup.times) < repeats:
            setup.sample()
        if not units:
            raise RuntimeError("no unit of work completed")
        # Whole runs on this shared machine can execute up to about 2x
        # slower than others.  The calibration loop slows by roughly the
        # same factor, so timings are scaled to the reference machine speed.
        calibration = ops.calibration
        slowdown = fast_decile(calibration) / CALIBRATION_REF_S
        metrics = {"setup_s": metric(fast_decile(setup.times) / slowdown, "s")}
        scaled = throughput_metrics(units, steps, slowdown)
        metrics["ticks_per_s"] = scaled.pop("ticks_per_s")
        raw = throughput_metrics(units, steps)
        info.append(f"machine speed: calibration first decile {fast_decile(calibration) * 1e3:.4f}"
                    f" ms over {len(calibration)} samples, slowdown {slowdown:.4f}; raw "
                    f"setup_s={fast_decile(setup.times):.4f} " + " ".join(
                        f"{k}={v['value']:.2f}" for k, v in raw.items()))
        # Step latency percentiles move with bursts of load by more than the
        # calibration corrects (spreads up to 0.35 over ten seeds), so they
        # are reported here rather than carried as metrics with a bound.
        info.append("step latency, speed-scaled, reported only: " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in scaled.items()))
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        for key in ("pos_rmse_m.r3", "gamma_rmse_rad.r3"):
            unit = "rad" if key.startswith("gamma") else "m"
            metrics[key] = metric(grouped_median(units, key), unit)
        info += _describe(workload, units, setup.times)
        return Outcome(attempted, failed, metrics, info)

    tracer = Tracer()
    untraced, traced = [], []
    untraced_steps, traced_steps = StepBlocks(), StepBlocks()
    with tracer:
        ops.tracer = tracer
        traced_setup(ops)
    for _, item in zip(range(shape.traced_units), items):
        ops.tracer = None
        with StepProbe() as probe:
            unit = run_one(item)
        mark = len(tracer.durations_of(STEP))
        with tracer:
            ops.tracer = tracer
            traced_unit = run_one(item)
        if unit is None or traced_unit is None:
            continue
        untraced_steps.add(probe.ns)
        traced_steps.add(tracer.durations_of(STEP)[mark:])
        untraced.append(unit)
        traced.append(traced_unit)
    if not traced:
        raise RuntimeError("no traced unit of work completed")
    metrics = tracer.metrics()
    before = throughput_metrics(untraced, untraced_steps)
    after = throughput_metrics(traced, traced_steps)
    for key, value in before.items():
        metrics[f"trace.{key}.delta"] = metric(after[key]["value"] - value["value"],
                                                value["unit"])
    total, covered, lowest = tracer.subtree_check(STEP)
    info += [f"traced units={len(traced)} spans={len(tracer.name_ix)}"]
    info += [f"{label}: " + " ".join(f"{k}={v['value']:.2f}" for k, v in figures.items())
             for label, figures in (("untraced", before), ("traced  ", after))]
    info.append(f"span check: step spans {total} ns, self times under them {covered} ns, "
                f"lowest self time {lowest} ns")
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.csv.gz")
    tracer.write(path)
    info.append(f"spans written to {os.path.relpath(path, root)}")
    return Outcome(attempted, failed, metrics, info)


def _describe(workload: str, units: list[UnitResult], setup: list[float]) -> list[str]:
    lines = [f"units={len(units)} setup runs={len(setup)} "
             f"setup median {statistics.median(setup):.4f} s"]
    parts = part_seconds(units)
    for key, seconds in parts.items():
        lines.append(f"part {key!r}: {len(seconds)} runs, fast decile {fast_decile(seconds):.4f} s,"
                     f" median {statistics.median(seconds):.4f} s")
    ticks = units[0].ticks
    if workload == "verbs":
        for verb, calls in (("simulate", 1), ("estimate", 3), ("evaluate", 1)):
            lines.append(f"{verb}_ticks_per_s {calls * ticks / fast_decile(parts[verb]):.1f} "
                         f"ticks/s ({calls} call(s) per chain, file I/O included)")
    if workload == "sweep":
        lines.append(f"sweep_records_per_s {1 / fast_decile(parts['record']):.4f} records/s")
    if workload != "stream":
        for key in ("pos_rmse_m.r1", "pos_rmse_m.r2"):
            lines.append(f"{key} {grouped_median(units, key):.6f} m")
    return lines


def load_references(size: str) -> dict:
    import json

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as fh:
        return json.load(fh)["sizes"][size]
