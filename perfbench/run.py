#!/usr/bin/env python3
"""Builds the qsnc CLI and the benchmark from source, then runs one pass.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default .bench_build); fixtures, result records and spans go to
<target dir>/perfbench. The benchmark binary prints the result object as
the last line of standard output; everything else goes to standard error.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        sys.stderr.write("error: run from a qsnc source checkout (no Cargo.toml/crates here)\n")
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "qsnc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("error: build failed: %s\n" % " ".join(cmd))
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "qsnc-perfbench"), *sys.argv[1:],
           "--qsnc", os.path.join(release, "qsnc"),
           "--out", os.path.join(target, "perfbench")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
