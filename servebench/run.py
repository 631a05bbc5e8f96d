#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark binary and the fleet
library it measures from the checkout's sources (Release) into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), then runs
it with the given arguments. Build output goes to standard error; the last
line of standard output is the benchmark's result object. Exits non-zero,
printing no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop it before that.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(targets=("servebench",)):
    """Configure (once) and build; returns the build directory."""
    out = build_dir()
    generated = any(os.path.exists(os.path.join(out, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        subprocess.run(["cmake", "--build", out, "--target", target,
                        "-j", jobs], stdout=sys.stderr, check=True)
    return out


def main():
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        return subprocess.run([os.path.join(out, "servebench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
