"""Run one kitefusion benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the package is imported from the
``src/`` directory next to ``bench/``.  Human-readable lines come first;
the last line of standard output is the result as one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off and scaled
to the reference machine speed (see ``bench/BASELINE.md``); with
``--trace 1`` a fixed amount of work is traced, so that call counts
repeat exactly, and the per-layer metrics are reported together with the
tracing overhead.
"""

import os

# Small matrix products must not start a BLAS thread pool on a small
# machine; this has to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verbs", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kitefusion", "__init__.py")):
        print(f"error: no kitefusion package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import numpy
    import kitefusion
    import workloads

    if os.path.dirname(os.path.abspath(kitefusion.__file__)) != os.path.join(SRC, "kitefusion"):
        print(f"error: kitefusion imported from {kitefusion.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(f"kitefusion benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={len(os.sched_getaffinity(0))} machine={platform.machine()} "
          f"kitefusion={kitefusion.__version__}")
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for line in outcome.info:
        print(line)
    for name, metric in outcome.metrics.items():
        print(f"{name:52s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"error_rate {outcome.failed}/{outcome.attempted} = "
          f"{outcome.failed / outcome.attempted:g} failed/attempted")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": outcome.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
