#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
perfbench program (perfbench/CMakeLists.txt, Release) into the directory
named by CARGO_TARGET_DIR, or .bench_build; later calls only rebuild what
changed. The program's output is passed through; its last line is the result
JSON. Exits non-zero, without a result, if the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def run(cmd):
        # Build chatter goes to stderr so stdout ends with the result line.
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode

    # Configure once; later builds re-run CMake themselves when a
    # CMakeLists.txt changed.
    configured = os.path.exists(os.path.join(build, "CMakeCache.txt"))
    if not configured and run(
            ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        print("perfbench: configure failed", file=sys.stderr)
        return 2
    if run(["cmake", "--build", build, "--target", "perfbench", "-j", jobs]) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
