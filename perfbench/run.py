#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|cold|iterate|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark and the hlsopt
binary it drives with dune (build output goes to stderr), then runs the
benchmark with the given arguments.  The benchmark prints a summary and,
as its last line, one JSON object with the run's metrics.  Exits non-zero
without printing a result when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    os.chdir(ROOT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/hlsopt.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(MAIN):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([MAIN] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
