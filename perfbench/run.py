#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is the Rust package in
``perfbench/`` (its own workspace, path dependencies on ``crates/``); it
is built in release mode into ``$CARGO_TARGET_DIR`` (default
``.bench_build``). The last line of standard output is the run's JSON
result; build output goes to standard error. The exit code is the
benchmark's: nonzero when the build fails or an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print(f"run.py: build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    sys.stdout.flush()
    run = subprocess.run([binary, *sys.argv[1:], "--scratch", scratch], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
