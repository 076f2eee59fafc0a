#!/usr/bin/env python3
"""Build the ESSEX benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the essex_bench
driver, Release) into .bench_build/; later calls only bring that build up
to date. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Every argument is passed on to essex_bench; traced
runs write their telemetry sessions to .bench_build/traces/.

Exits non-zero, without printing a result, when the build fails — for
example when the repository's sources are missing.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "essex_bench"


def build() -> bool:
    """Configure (once) and build essex_bench; True on success."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "essex_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 1
    sys.stdout.flush()
    args = [str(BINARY), *sys.argv[1:], "--trace-dir", str(BUILD / "traces")]
    os.execv(str(BINARY), args)  # essex_bench replaces this process


if __name__ == "__main__":
    sys.exit(main())
