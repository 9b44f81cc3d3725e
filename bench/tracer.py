"""Span tracing of kitefusion's public functions, from outside the package.

The package binds most helpers with ``from .x import f``, so replacing
``x.f`` alone would miss callers that hold their own binding.  The tracer
therefore swaps every binding of the same function object in every
kitefusion module (and ``EstimationPipeline.step`` on its class) for a
wrapper that records a span, and puts the originals back on exit.

A span is ``(name, op, parent, start_ns, end_ns)``: ``op`` identifies the
record or verb call the benchmark was running, ``parent`` is the span that
was open when this one started.  Spans stay in memory until
:meth:`Tracer.write`.  Self time is a span's duration minus the durations
of its direct children, which lie inside it because the wrapper nests
them on a stack.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from array import array

#: Traced functions per module.  Helpers that run in well under a
#: microsecond (``wrap_angle`` and the like) are left out: the wrapper
#: would cost as much as they do.
TARGETS = {
    "frames": ("rot_g_to_l", "velocity_angle", "rot_ned_to_g", "spherical_to_cartesian"),
    "attitude": ("accel_to_inertial", "quat_to_rot", "rot_to_quat", "body_rates_between"),
    "lineangle": ("angles_to_encoder", "encoder_to_angles", "angles_to_position"),
    "estimator": ("steady_state_gain", "solve_dare", "time_update", "measurement_update"),
    "pipelines": ("EstimationPipeline.step", "geometric_correction", "gamma_unfiltered",
                  "luenberger_step"),
    "simkite": ("synthesize", "truth_at"),
    "evalio": ("read_log", "write_log", "compare_approaches"),
    "cli": ("main", "load_config", "build_estimator_config"),
}
NAMES = tuple(f"{module}.{func}" for module, funcs in TARGETS.items() for func in funcs)

#: Functions whose raised exceptions are counted.
COUNT_ERRORS = ("lineangle.encoder_to_angles", "lineangle.angles_to_encoder",
                "pipelines.geometric_correction", "pipelines.EstimationPipeline.step")
STEP = "pipelines.EstimationPipeline.step"


def _kitefusion_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kitefusion" or name.startswith("kitefusion."))]


class Tracer:
    """Records spans for the functions in :data:`TARGETS` while installed.

    Use as a context manager; set :attr:`op` before each record or verb
    call so its spans share that id.
    """

    def __init__(self):
        self.op = 0
        self.name_ix = array("i")
        self.ops = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.errors = dict.fromkeys(COUNT_ERRORS, 0)
        self.step_outputs = 0
        self.bytes = {"evalio.read_log": 0, "evalio.write_log": 0}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import kitefusion  # noqa: F401  (loads every submodule)

        modules = _kitefusion_modules()
        for ix, qualname in enumerate(NAMES):
            module_name, func = qualname.split(".", 1)
            module = sys.modules[f"kitefusion.{module_name}"]
            if "." in func:
                cls_name, method = func.split(".")
                cls = getattr(module, cls_name)
                self._swap(cls, method, self._wrap(ix, qualname, cls.__dict__[method]))
                continue
            # A function the package no longer has reports zero calls.
            original = getattr(module, func, None)
            if original is None:
                continue
            wrapper = self._wrap(ix, qualname, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _swap(self, owner, name, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, ix: int, qualname: str, fn):
        name_ix, ops, parents = self.name_ix, self.ops, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns
        count_errors = qualname in self.errors
        errors = self.errors

        def traced(*args, **kwargs):
            span = len(name_ix)
            name_ix.append(ix)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if count_errors:
                    errors[qualname] += 1
                raise
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()

        if qualname == STEP:
            def step(*args, **kwargs):
                out = traced(*args, **kwargs)
                self.step_outputs += out is not None
                return out
            return step
        if qualname == "evalio.read_log":
            def read_log(path, *args, **kwargs):
                self.bytes[qualname] += os.path.getsize(path)
                return traced(path, *args, **kwargs)
            return read_log
        if qualname == "evalio.write_log":
            def write_log(frames, path, *args, **kwargs):
                traced(frames, path, *args, **kwargs)
                self.bytes[qualname] += os.path.getsize(path)
            return write_log
        return traced

    # ------------------------------------------------------------------
    # Analysis

    def self_times(self) -> list[int]:
        """Self time of every span in ns: duration minus direct children."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[span]
        return own

    def durations_of(self, qualname: str) -> list[int]:
        ix = NAMES.index(qualname)
        return [e - s for n, s, e in zip(self.name_ix, self.starts, self.ends) if n == ix]

    def subtree_check(self, qualname: str) -> tuple[int, int, int]:
        """Sum of the durations of the spans of ``qualname``, sum of the self
        times of those spans and every span nested in them (equal to the
        first when self times are consistent), and the lowest self time of
        any span."""
        ix = NAMES.index(qualname)
        own = self.self_times()
        root_of = [-1] * len(own)
        total = covered = 0
        for span, (n, parent) in enumerate(zip(self.name_ix, self.parents)):
            if n == ix:
                root_of[span] = span
                total += self.ends[span] - self.starts[span]
            elif parent >= 0:
                root_of[span] = root_of[parent]
            if root_of[span] >= 0:
                covered += own[span]
        return total, covered, min(own, default=0)

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics over every span recorded so far."""
        n = len(NAMES)
        calls = [0] * n
        inclusive = [0] * n
        own_total = [0] * n
        own = self.self_times()
        encoder_ix = NAMES.index("lineangle.encoder_to_angles")
        inverse_ix = NAMES.index("lineangle.angles_to_encoder")
        newton_calls = 0
        for span, ix in enumerate(self.name_ix):
            calls[ix] += 1
            inclusive[ix] += self.ends[span] - self.starts[span]
            own_total[ix] += own[span]
            parent = self.parents[span]
            if ix == encoder_ix and parent >= 0 and self.name_ix[parent] == inverse_ix:
                newton_calls += 1
        out: dict[str, dict] = {}
        for ix, qualname in enumerate(NAMES):
            out[f"{qualname}.calls"] = metric(calls[ix], "count")
            out[f"{qualname}.self_s"] = metric(own_total[ix] / 1e9, "s")
            out[f"{qualname}.us_per_call"] = metric(
                inclusive[ix] / 1e3 / calls[ix] if calls[ix] else 0.0, "us")
        inversions = calls[inverse_ix]
        out["lineangle.encoder_to_angles.calls_per_inversion"] = metric(
            newton_calls / inversions if inversions else 0.0, "calls/inversion")
        for qualname, count in self.errors.items():
            out[f"{qualname}.errors"] = metric(count, "count")
        step_calls = calls[NAMES.index(STEP)]
        out[f"{STEP}.outputs_per_call"] = metric(
            self.step_outputs / step_calls if step_calls else 0.0, "outputs/call")
        for qualname, nbytes in self.bytes.items():
            busy = inclusive[NAMES.index(qualname)]
            out[f"{qualname}.mb_per_s"] = metric(nbytes / 1e6 / (busy / 1e9) if busy else 0.0,
                                                  "MB/s")
        return out

    def write(self, path) -> None:
        """Write every span as gzipped CSV."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,parent,name,start_ns,end_ns\n")
            for span, (ix, op, parent, start, end) in enumerate(
                    zip(self.name_ix, self.ops, self.parents, self.starts, self.ends)):
                fh.write(f"{span},{op},{parent},{NAMES[ix]},{start},{end}\n")


def metric(value, unit: str) -> dict:
    """A metric as the result line carries it."""
    return {"value": value, "unit": unit}
