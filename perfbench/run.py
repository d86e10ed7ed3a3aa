#!/usr/bin/env python3
"""Builds and runs the wrbpg end-to-end benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The first run configures and builds the benchmark package (perfbench/
CMakeLists.txt, which compiles the library from ../src) into .bench_build/;
later runs only re-check the build. Build output goes to stderr so the
benchmark's JSON result stays the last line of stdout.

`--workload all` runs the four workloads one after another and exits
non-zero if any of them reports a wrong answer.

Other modes, passed straight to the benchmark binary:

    --generate solve-cold|solve-deadline|explore-sweep   rewrite expected/
    --stream-hash --workload W --seed N                  print the stream hash
    --list-metrics                                       print metric names
    --self-test                                          run selftest.py
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wrbpg_perfbench")
DATA = os.path.join(HERE, "expected")
WORKLOADS = ["serve-hot", "solve-cold", "solve-deadline", "explore-sweep"]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if "--self-test" in argv:
        if not build():
            return 1
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "selftest.py"), BINARY, DATA]
        ).returncode
    if not build():
        return 1
    sys.stdout.flush()
    at = argv.index("--workload") + 1 if "--workload" in argv else None
    if at is not None and argv[at:at + 1] == ["all"]:
        failed = [w for w in WORKLOADS if subprocess.run(
            [BINARY, "--data", DATA] + argv[:at] + [w] + argv[at + 1:]
        ).returncode != 0]
        print("perfbench: all workloads: " +
              ("FAILED " + " ".join(failed) if failed else "ok"))
        return 1 if failed else 0
    return subprocess.run([BINARY, "--data", DATA] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
