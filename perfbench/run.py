#!/usr/bin/env python3
"""Build the repo benchmark on demand and run one workload.

    python3 perfbench/run.py --workload chat_fp16 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from ../src plus the driver) into .bench_build/;
later calls only let CMake check that the build is current. Build output
goes to stderr, so the last line on stdout is the driver's JSON result.
The exit code is the driver's (0 = every output correct), or 3 when the
build fails. See perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "et_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources in src/ next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "et_perfbench",
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 3
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
