#!/usr/bin/env python3
"""emsim end-to-end benchmark: builds the benchmark binary from this source
tree and runs one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

Run it from the root of the source tree. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`) inside the tree; span and ledger files of traced
runs go to `<build dir>/perfbench-trace/`. The binary prints the metrics and,
as its last line, the result object; its exit code is passed through.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "wide_array", "demand_writes", "markov_policy")


def build(build_dir):
    """Configures (a no-op once configured) and builds the binary; build output
    goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="print the reference records for this seed instead of measuring")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "perfbench-trace")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--refs", os.path.join(HERE, "references.txt"),
           "--out", out_dir]
    if args.record_references:
        cmd.append("--record-references")
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
