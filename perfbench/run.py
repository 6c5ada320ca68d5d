#!/usr/bin/env python3
"""Builds and runs the pftk end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload capture --seed 7 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which builds the pftk libraries from src/) into .bench_build/;
later runs only rebuild what changed. The benchmark's report goes to
stdout and its last line is the JSON result; build output goes to stderr.
The exit code is the benchmark's: 0 when every check passed.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "pftk_perfbench"
WORKLOADS = ("capture", "grid", "serve", "explore")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no pftk sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "pftk_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, timeout=840)


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")

    run = subprocess.run(
        [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", str(BUILD / "run")],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        # No result line: a failed or indeterminate run prints its report only.
        print("\n".join(line for line in lines if not line.startswith("{")))
        return run.returncode or 1
    result = json.loads(lines[-1])
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(got) != sorted(expected_metrics(args.trace)):
        print("\n".join(lines[:-1]))
        sys.exit("perfbench: metrics differ from BENCHMARK.json")
    print(run.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
