#!/usr/bin/env python3
"""The chronolog benchmark: builds perfbench from source, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_point|serve_scan|materialize \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
as a Release build of perfbench/CMakeLists.txt, which compiles the engine
libraries from src/. Build output goes to stderr; the last line of stdout is
the result object of BENCHMARK.json's contract. Exits non-zero, printing no
result, when the sources are missing or the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def source_id():
    """The tree actually measured: git commit when available, plus a digest
    of the sources the binary is built from (a checkout without git still
    gets a stable identity)."""
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "tree-" + digest.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            ident = "git-" + commit.stdout.strip() + "_" + ident
    except (OSError, subprocess.SubprocessError):
        pass
    return ident


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: engine sources (src/) not found next to "
              f"{BENCH_DIR.name}/", file=sys.stderr)
        return False
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_point", "serve_scan", "materialize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-oracle", type=int, choices=[0, 1],
                        default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    if not build(build_dir):
        return 2

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--corrupt-oracle", str(args.corrupt_oracle),
               "--source-id", source_id()]
    if args.trace:
        command += ["--trace-out",
                    str(build_dir / f"trace_{args.workload}.json")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if process.returncode != 0:
        sys.stderr.write(output)
        print(f"perfbench: run failed with code {process.returncode}",
              file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
