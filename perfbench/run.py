#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds perfbench/bench.exe with dune
(build output goes to stderr), then runs it with the same arguments;
its standard output, whose last line is the JSON result, passes
through unchanged.  Exits nonzero when the build fails or the
benchmark reports a failed correctness check.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("perfbench: run from the repository root (no dune-project/lib here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
