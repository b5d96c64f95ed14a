#!/usr/bin/env python3
"""failmine's benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ordered, shuffled (see NOTES.md); each times every user path.
The harness (perfbench/harness, a CMake package of its own) is built
under $CARGO_TARGET_DIR (default .bench_build) at the checkout root on
first use. Stdout carries every metric with its unit, a `provenance`
line naming the host and build, and, as its last line, the JSON result
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every output check passed. Inputs come from --seed alone.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ordered", "shuffled")
# Simulated trace size: 1.0 is the paper's 2001-day Mira trace; 0.1 is
# 669 k rows in about 60 MB of CSV (NOTES.md explains the choice).
DEFAULT_SCALE = 0.1
# What a run spends besides --seconds of timed rounds: three set-ups, the
# warm-up round, the last round's overrun and the traced run's layer
# timings, each well under a minute at the default scale.
HARNESS_ALLOWANCE_S = 120


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_harness():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no failmine sources under {ROOT / 'src'}")
    cmake_dir = build_dir() / "perfbench"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench_harness",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("building the harness failed: " + " ".join(step), 3)
    return cmake_dir


def cmake_cache(cmake_dir, key):
    for line in (cmake_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over src/ and perfbench/ files: names the code when git cannot."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_block(cmake_dir):
    mem_kb = 0
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 2**20, 1),
        "l3": l3.read_text().strip() if l3.is_file() else None,
        "cpu": platform.processor() or platform.machine(),
        "compiler": first_line([cmake_cache(cmake_dir, "CMAKE_CXX_COMPILER"), "--version"]),
        "build_type": cmake_cache(cmake_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="simulated trace size (tests use a smoke size)")
    parser.add_argument("--corrupt-row", action="store_true",
                        help="test hook: corrupt one CSV row; the run must fail")
    args = parser.parse_args()

    cmake_dir = build_harness()
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    data_dir = build_dir() / "data" / f"{tag}-{os.getpid()}"
    cmd = [str(cmake_dir / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale),
           "--data-dir", str(data_dir),
           "--trace-out", str(results / f"spans-{tag}.json")]
    if args.corrupt_row:
        cmd.append("--corrupt-row")
    timeout = args.seconds + HARNESS_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {timeout:.0f} s", 4)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        fail(f"harness exited {proc.returncode} without a result", 5)
    config = {}
    for line in lines[:-1]:
        if line.startswith("config "):
            config = json.loads(line[len("config "):])
        else:
            print(line)
    provenance = {"workload": args.workload, "trace": args.trace,
                  **host_block(cmake_dir), **config}
    (results / f"{tag}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
