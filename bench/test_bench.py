"""Self-test of the benchmark at its tiny size.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import STEP, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny(workload, trace=False, refs=None, seed=3):
    return workloads.run(workload, seed, 0.3, trace, ROOT, size="tiny", refs=refs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_with_no_failures(workload):
    outcome = tiny(workload)
    assert outcome.attempted >= 1
    assert outcome.failed == 0
    for metric in SPEC["end_to_end"]:
        got = outcome.metrics[metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert set(outcome.metrics) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_repeats_counts(workload):
    first, second = tiny(workload, trace=True), tiny(workload, trace=True)
    assert first.failed == 0
    assert set(first.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert first.metrics[metric["name"]]["unit"] == metric["unit"]
    counts = [name for name in first.metrics
              if name.endswith((".calls", ".calls_per_inversion", ".errors"))]
    assert {n: first.metrics[n] for n in counts} == {n: second.metrics[n] for n in counts}
    assert all(first.metrics[n]["value"] >= 0 for n in first.metrics if n.endswith(".self_s"))


def test_stream_self_times_add_up_to_step_time():
    shape = workloads.SIZES["tiny"]["stream"]
    bench = workloads.Stream(shape, workloads.load_references("tiny")["stream"], "")
    frames, _ = bench.frames(0)
    with Tracer() as tracer:
        bench.run_unit(0, workloads.Ops())
    total, covered, lowest = tracer.subtree_check(STEP)
    assert total > 0
    assert covered == total
    assert lowest >= 0
    layer = tracer.metrics()
    assert layer[f"{STEP}.calls"]["value"] == len(frames)
    assert layer["lineangle.encoder_to_angles.calls_per_inversion"]["value"] == 0.0


def test_sweep_counts_newton_work_per_inversion():
    shape = workloads.SIZES["tiny"]["sweep"]
    bench = workloads.Sweep(shape, workloads.load_references("tiny")["sweep"], "")
    with Tracer() as tracer:
        unit = bench.run_unit(3, workloads.Ops())
    assert unit.failed == 0
    ratio = tracer.metrics()["lineangle.encoder_to_angles.calls_per_inversion"]["value"]
    assert ratio > 2.0


def _perturb_sweep(refs):
    row = refs["0"]["values"][0]
    col = next(i for i, v in enumerate(row) if v is not None)
    row[col] *= 1.0 + 1e-9


def _perturb_verbs(refs):
    refs["0"]["estimate"][1]["blocks"][0][4] += 1e-6


def _perturb_stream(refs):
    refs["0"]["blocks"][0][1] *= 1.0 + 1e-9


@pytest.mark.parametrize("workload,perturb", [
    ("sweep", _perturb_sweep), ("verbs", _perturb_verbs), ("stream", _perturb_stream)])
def test_perturbed_reference_counts_as_failure(workload, perturb):
    refs = copy.deepcopy(workloads.load_references("tiny")[workload])
    perturb(refs)
    outcome = tiny(workload, refs=refs)
    assert outcome.failed >= 1


def test_fingerprint_tolerance():
    rows = [(0.02 * k, 30.0 + k, -1e-3 * k) if k % 7 else None for k in range(500)]
    ref = checks.fingerprint(rows)
    within = [None if r is None else tuple(v * (1 + 5e-13) for v in r) for r in rows]
    assert checks.matches_fingerprint(within, ref)
    beyond = list(rows)
    beyond[250] = (beyond[250][0], beyond[250][1] * (1 + 1e-8), beyond[250][2])
    assert not checks.matches_fingerprint(beyond, ref)
    drift = [None if r is None else (r[0], r[1] * (1 + 3e-12), r[2]) for r in rows]
    assert not checks.matches_fingerprint(drift, ref)
    missing = list(rows)
    missing[1] = None
    assert not checks.matches_fingerprint(missing, ref)
    nonfinite = list(rows)
    nonfinite[2] = (0.04, float("nan"), 0.0)
    assert not checks.matches_fingerprint(nonfinite, ref)
