#!/usr/bin/env python3
"""Builds and runs the BFGTS benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide_1024 --seed 1 --seconds 50 --trace 0

It builds `bfgts_serve` from the repository's workspace and the
`perfbench` package (its own workspace), both in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs `perfbench` with
the same arguments. The last line of standard output is the result
object. Any build failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "bfgts-bench", "--bin", "bfgts_serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--serve-bin", os.path.join(release, "bfgts_serve"),
        "--digests", os.path.join("perfbench", "digests"),
        "--out", os.path.join("perfbench", "out"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
