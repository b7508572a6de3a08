#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds
perfbench/ (the silod library, silodd and the perfbench binary) into
.bench_build/; later runs only re-check the build.  Build output goes to
stderr, so the last stdout line is the perfbench binary's JSON result.  The
exit code is that binary's: 0 when every output check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isdir("src") or not os.path.isfile("perfbench/CMakeLists.txt"):
        sys.exit("run.py: run from the repository root (src/ and perfbench/ are required)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench", "silodd"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    os.makedirs(RUN_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--silodd={os.path.join(BUILD_DIR, 'silodd')}", f"--run-dir={RUN_DIR}"]
    # Its own process group, so a timeout takes the silodd child down too.
    with subprocess.Popen(command, start_new_session=True) as bench:
        try:
            return bench.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    os.killpg(bench.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
