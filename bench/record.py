"""Record the reference outputs every benchmark run is checked against.

    python3 bench/record.py

Runs each pool record of each workload once, at both sizes, and writes
``bench/reference.json``.  Run it only on a commit whose outputs are
known good; a later run that disagrees counts the operation as failed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402


def main() -> int:
    work_dir = os.path.join(ROOT, ".bench_out", f"record-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    sizes = {}
    try:
        for size, shapes in workloads.SIZES.items():
            sizes[size] = {}
            for name, shape in shapes.items():
                bench = workloads.WORKLOAD_CLASSES[name](shape, {}, work_dir)
                sizes[size][name] = {str(item): bench.record(item)
                                     for item in range(shape.pool)}
                print(f"{size} {name}: {shape.pool} records", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "reference.json"), "w") as fh:
        json.dump({"sizes": sizes}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
