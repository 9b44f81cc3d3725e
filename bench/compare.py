"""Collect benchmark result sets and compare them.

    python3 bench/compare.py collect runs.jsonl [--root DIR] [--seeds 1-10]
                                     [--workloads sweep,verbs] [--trace 1]
    python3 bench/compare.py spread runs.jsonl
    python3 bench/compare.py diff parent.jsonl change.jsonl

``collect`` runs the command in ``BENCHMARK.json`` once per seed and
workload (seeds outermost) in the checkout ``--root`` and appends one
JSON line per run.  ``spread`` prints, per workload and end-to-end
metric, the median and the quartile spread as a share of the median next
to the metric's bound.  ``diff`` compares two result sets per workload
and per metric against each metric's own bound; a metric whose parent
spread is wider than its bound is reported as unresolved unless every
change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _environment(root: str) -> dict:
    env = {"cpu": "unknown", "commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    if done.returncode == 0:
        env["commit"] = done.stdout.strip()
    return env


def collect(args) -> int:
    root = os.path.abspath(args.root)
    spec = load_spec(root)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    env = _environment(root)
    with open(args.out, "a") as out:
        for seed in _seeds(args.seeds):
            for workload in workloads:
                argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(spec["run_seconds"]),
                                          "--trace", str(args.trace)]
                done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                      timeout=900)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed={seed}: exit {done.returncode}\n{done.stderr}",
                          file=sys.stderr)
                    return 1
                env_line = next((ln for ln in lines if ln.startswith("env:")), "")
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "env": dict(env, run=env_line[4:].strip()),
                          "result": json.loads(lines[-1]), "lines": lines[:-1]}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed={seed} attempted={record['result']['attempted']} "
                      f"failed={record['result']['failed']}", flush=True)
    return 0


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _values(records: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]}


def spread_of(values) -> tuple[float, float]:
    """Median and quartile spread as a share of the median."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def spread(args) -> int:
    spec = load_spec(args.root)
    runs = load_runs(args.runs)
    worst = 0.0
    print(f"{'workload':8s} {'metric':22s} {'n':>3s} {'median':>14s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for workload, records in runs.items():
        failed = sum(r["result"]["failed"] for r in records)
        for metric in spec["end_to_end"]:
            values = _values(records, metric["name"])
            if not values:
                continue
            median, share = spread_of(values.values())
            bound = metric["bound"]
            verdict = "ok" if share <= bound / 3 else ("within bound" if share <= bound
                                                       else "TOO WIDE")
            if metric["name"] != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:8s} {metric['name']:22s} {len(values):3d} {median:14.6g} "
                  f"{share:8.4f} {bound:6.3f}  {verdict}")
        print(f"{workload:8s} failed operations: {failed}")
    print(f"widest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


def diff(args) -> int:
    spec = load_spec(args.root)
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(f"{'workload':8s} {'metric':22s} {'parent':>14s} {'change':>14s} {'worse by':>9s} "
          f"{'spread':>7s} {'bound':>6s} {'wins':>6s}  verdict")
    for workload in parent:
        if workload not in change:
            continue
        for metric in spec["end_to_end"]:
            before = _values(parent[workload], metric["name"])
            after = _values(change[workload], metric["name"])
            if not before or not after:
                continue
            lower = metric["better"] == "lower"
            median_b, share = spread_of(before.values())
            median_a = statistics.median(after.values())
            worse = (median_a - median_b) / abs(median_b) * (1 if lower else -1)
            paired = [s for s in before if s in after]
            wins = sum((after[s] < before[s]) if lower else (after[s] > before[s])
                       for s in paired)
            all_better = (max(after.values()) < min(before.values())) if lower else \
                (min(after.values()) > max(before.values()))
            bound = metric["bound"]
            if share > bound and not all_better:
                verdict = "unresolved (parent spread wider than bound)"
            elif worse > bound:
                verdict = "WORSE"
            elif paired and wins >= 0.9 * len(paired) and -worse > share:
                verdict = "better"
            else:
                verdict = "no change within bound"
            print(f"{workload:8s} {metric['name']:22s} {median_b:14.6g} {median_a:14.6g} "
                  f"{worse:9.4f} {share:7.4f} {bound:6.3f} {wins:>3d}/{len(paired):<2d}  "
                  f"{verdict}")
        failed_b = sum(r["result"]["failed"] for r in parent[workload])
        failed_a = sum(r["result"]["failed"] for r in change[workload])
        print(f"{workload:8s} failed operations: parent {failed_b}, change {failed_a}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--root", default=os.path.dirname(BENCH_DIR))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("spread")
    p.add_argument("runs")
    p.add_argument("--root", default=os.path.dirname(BENCH_DIR))
    p.set_defaults(func=spread)
    p = sub.add_parser("diff")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--root", default=os.path.dirname(BENCH_DIR))
    p.set_defaults(func=diff)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
