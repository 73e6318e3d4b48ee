"""kirchhoff4 benchmark: time to a checked solution, per CLI workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
The full record of the run (context, set-up probes, every op with its
oracle verdict and digests) is appended to .perfbench_out/results.jsonl;
perfbench/compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "kirchhoff4" / "__init__.py"
BLAS_THREADS = 1  # one closed-loop client on a shared machine; at or below nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE.is_file():
        print(f"error: {PACKAGE} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.OUT.mkdir(exist_ok=True)
    with open(bench.OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
