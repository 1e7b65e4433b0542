#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it with the given arguments.

    python3 bench_e2e/run.py --workload greedy_resident --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e,
relative to the working directory) and is reused by later runs. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Without --workload the binary runs all four workloads (see README.md).
"""

import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: pathlib.Path) -> pathlib.Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "bench_e2e"


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: {ROOT / 'src'} is missing; bench_e2e builds the "
              "repository's libraries from source", file=sys.stderr)
        return 2
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = build_dir / "bench_e2e"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--work-dir" not in args:
        args += ["--work-dir", str(build_dir / "work")]
    return subprocess.run([str(binary), *args], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
