#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2e_bench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). All arguments
are passed to the `e2e_bench` binary, whose last line of standard output is
the JSON result. The exit code is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 175


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2e_bench: build failed", file=sys.stderr)
        return 1
    env["E2E_BENCH_RUSTC"] = first_line(["rustc", "--version"])
    env["E2E_BENCH_COMMIT"] = first_line(["git", "-C", str(HERE), "rev-parse", "--short", "HEAD"])
    binary = target / "release" / "e2e_bench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: no result within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
