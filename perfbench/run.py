#!/usr/bin/env python3
"""Build and run the procap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the library from ../src) as a Release
build under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the repository root), then runs one workload in one process.
The workload's JSON result is the last line of standard output; build
output goes to standard error.  Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))

    configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    try:
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(configure, check=True, stdout=sys.stderr, cwd=root)
        subprocess.run(["cmake", "--build", build, "-j", jobs],
                       check=True, stdout=sys.stderr, cwd=root)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    env = dict(os.environ)
    env.pop("PROCAP_SIM_ENGINE", None)  # always measure the default engine
    if argv[:1] == ["--selftest"]:
        cmd = [os.path.join(build, "perfbench_selftest")] + argv[1:]
    else:
        cmd = [os.path.join(build, "perfbench")] + argv
    try:
        return subprocess.run(cmd, env=env, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
