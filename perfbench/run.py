"""Run the setnn benchmark.

    python3 perfbench/run.py --workload population|outlier|set-ops|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout; it imports setnn from ``src/``
there, so nothing needs installing. Each workload runs in its own process
(``perfbench/workloads.py``) with BLAS pinned to one thread: the OpenBLAS and
OpenMP thread counts are set in that process's environment before numpy is
imported, because the trained model bytes and the backward ``a.T @ g`` time
depend on the thread count.

The last line of standard output is the JSON result of the (last) workload:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones. The exit code is 0
when every correctness check passed, 1 when one failed, and 2 when the
checkout has no setnn source tree. ``--workload all`` runs the three
workloads one after another; ``--smoke`` runs them at toy size.

WORKLOADS.md says why each workload exists and what every metric means.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("population", "outlier", "set-ops")

# A run must end within 180 s; leave room to stop the child.
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the setnn benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "setnn", "__init__.py")):
        print(f"error: no setnn source tree at {src}; run from a setnn checkout", file=sys.stderr)
        return 2

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        try:
            # run() kills and reaps the child on timeout or interrupt.
            code = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            code = 1
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
