#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <learn_sky|serve_sky|learn_serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), reports and traces to `.bench_out`. The last line
of standard output is the result JSON; build output goes to standard error.
The exit code is the benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def capture(cmd):
    """First line of a command's output, or "unknown" when it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unknown"


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # Only a checkout that is itself a git repository has a commit; never
    # let git look above the checkout.
    commit = capture(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown"
    args = [
        str(target / "release" / "perfbench"),
        "--out", str(ROOT / ".bench_out"),
        "--rustc", capture(["rustc", "-V"]),
        "--commit", commit,
    ] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
