#!/usr/bin/env python3
"""Relink benchmark: build the driver, run one workload, report metrics.

Run from the root of the repository:

    python3 relinkbench/run.py --workload cold-search --seed 1 --seconds 20 --trace 0

The driver is built from source on first use (relinkbench/CMakeLists.txt
compiles the library under src/) into $CARGO_TARGET_DIR/relinkbench, or
.bench_build/relinkbench when that variable is unset.  Its table of
metrics goes to standard output; the last line is one JSON object with
the metrics BENCHMARK.json declares for the mode: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Steadiness mode runs one workload k times, seeds seed .. seed+k-1, and
prints each declared metric's median, quartiles and spread against its
bound:

    python3 relinkbench/run.py --steady 10 --workload warm-bigtable

Exit codes: 0 success, 1 a failed build, run or output check, 2 usage.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
# A run's own limit is 180 s; stop a hung driver before that.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"relinkbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def parse_args(spec):
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run one workload of the relink benchmark.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run K seeds and print each metric's spread")
    args = parser.parse_args()  # exits 2 with a usage message on error
    if not 1 <= args.seconds <= 3600 or args.steady < 0:
        parser.error("--seconds must be in [1, 3600], --steady >= 0")
    # Any integer is accepted as a seed, taken modulo 2^64.
    args.seed %= 1 << 64
    return args


def build():
    """Configure once, then bring the driver up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (Path.cwd() / target / "relinkbench").resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compilers write temporaries to TMPDIR; keep them inside the build.
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--parallel", "4"])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir / "relinkbench", build_dir / "work"


def run_once(exe, workdir, spec, workload, seed, seconds, trace, echo):
    """Run the driver once; returns (exit code, contract result or None)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"relinkbench: {workload} seed {seed} timed out",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("relinkbench: the driver printed no result", file=sys.stderr)
        return proc.returncode or 1, None

    declared = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    metrics = {}
    for m in declared:
        got = full["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            print(f"relinkbench: metric {m['name']} missing or not in "
                  f"{m['unit']}", file=sys.stderr)
            return 1, None
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    return proc.returncode, result


def steady(exe, workdir, spec, args):
    """Run args.steady seeds and print each metric's spread vs its bound."""
    declared = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    values = {m["name"]: [] for m in declared}
    worst = 0
    for k in range(args.steady):
        seed = (args.seed + k) % (1 << 64)
        code, result = run_once(exe, workdir, spec, args.workload, seed,
                                args.seconds, args.trace, echo=False)
        worst = max(worst, code if result else 1)
        if result is None:
            continue
        print(f"seed {seed}: " + "  ".join(
            f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
            flush=True)
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
    print(f"\n{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in declared:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "WIDER THAN BOUND"
        print(f"{m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    return worst


def main():
    spec = load_spec()
    args = parse_args(spec)
    exe, workdir = build()
    if args.steady:
        sys.exit(steady(exe, workdir, spec, args))
    code, result = run_once(exe, workdir, spec, args.workload, args.seed,
                            args.seconds, args.trace, echo=True)
    if result is None:
        sys.exit(code or 1)
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
