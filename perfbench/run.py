#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The tiresias library and the benchmark
binary are built with CMake under $CARGO_TARGET_DIR/perfbench/<key>
(CARGO_TARGET_DIR defaults to .bench_build; a relative one is taken from
the checkout root), where <key> is a hash of this source tree's path, so
checkouts sharing one CARGO_TARGET_DIR never share a build. Later runs
reuse the build. Every option is passed
on to the binary, whose last stdout line is the JSON result (see
perfbench/README.md). Build output goes to stderr.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        fail(f"no tiresias sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(ROOT, target, "perfbench", key)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    workdir = os.path.join(build_dir, "work")
    sys.stdout.flush()
    result = subprocess.run([binary, *args, "--workdir", workdir])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
