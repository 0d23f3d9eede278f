#!/usr/bin/env python3
"""Build and run the SQLB repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (a standalone CMake project that compiles the library from
src/) in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs
the one workload in its own process, checks its output against
BENCHMARK.json, and forwards it: a host block, then one JSON line with
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1). The traced run also writes its spans under
<build dir>/traces/. Exits non-zero, without a result line, when the build,
the run or an output check fails. See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers, the benchmark's child processes) and returns None."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, stdout


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "sqlb" / "service.h").is_file():
        fail(f"no SQLB sources under {ROOT / 'src'}: run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "Makefile").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        done = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                         stderr=sys.stderr, env=env)
        if done is None:
            fail(f"build timed out: {' '.join(cmd)}")
        if done[0] != 0:
            fail(f"build failed: {' '.join(cmd)}")
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        fail(f"last output line is not JSON ({err}): {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if result["correct"] is not True:
        fail("an output check failed")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number: {result[key]!r}")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value: {value!r}")
        if metric.get("unit") != want[name]:
            fail(f"metric {name} unit {metric.get('unit')!r}, "
                 f"BENCHMARK.json says {want[name]!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-rate", "des-wide", "des-chaos"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    done = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                     stderr=sys.stderr, text=True, cwd=ROOT)
    if done is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    returncode, stdout = done
    lines = stdout.rstrip("\n").splitlines()
    if returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail(f"{args.workload} exited with code {returncode}")
    validate(lines[-1], args.trace == "1")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
