#!/usr/bin/env python3
"""Build and run the hpcpower benchmark.

    python3 perfbench/run.py --workload study|site|archive|all --seed N \
        --seconds S --trace 0|1 [--smoke] [--inject-failure]

Run from the repository root. The first run configures and builds the
hpcpower libraries and the perfbench program (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the program's JSON result. `--workload all` runs the three
workloads one after another, each printing its own result. Exits non-zero
without a result when the build or a run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "site", "archive")


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    runs = [argv]
    if "--workload" in argv:
        at = argv.index("--workload") + 1
        if at < len(argv) and argv[at] == "all":
            runs = [argv[:at] + [w] + argv[at + 1:] for w in WORKLOADS]
    prefix = [binary, "--work-dir", os.path.join(build_dir, "work")]
    for args in runs:
        sys.stdout.flush()
        code = subprocess.run(prefix + args, cwd=ROOT).returncode
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
