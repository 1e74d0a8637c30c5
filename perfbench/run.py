#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite --seed 0 --seconds 25 --trace 0

All arguments go to the harness (see perfbench/src/main.rs).  The harness
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build at
the repository root); build output goes to stderr, so the last line of
stdout is the harness's JSON result.  Exits non-zero, without a result,
when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run takes about 30 s at --seconds 25; anything near the 180 s limit is
# a hang.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "cma-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
