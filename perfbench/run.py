#!/usr/bin/env python3
"""Build the qbss benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml) and the `qbss` binary
in release mode into $CARGO_TARGET_DIR (default: .bench_build), then runs
the benchmark. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Traced runs write their spans to
<target>/perfbench/spans-<workload>-seed<N>.jsonl. Exits non-zero, without
a result line, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def flag(args, name):
    """Value following `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(REPO_ROOT / "Cargo.toml"), "--bin", "qbss"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    extra = ["--qbss", str(target / "release" / "qbss")]
    if flag(args, "--trace") == "1":
        spans = "spans-{}-seed{}.jsonl".format(flag(args, "--workload"), flag(args, "--seed"))
        extra += ["--spans", str(target / "perfbench" / spans)]
    bench = target / "release" / "perfbench"
    return subprocess.run([str(bench), *args, *extra], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
