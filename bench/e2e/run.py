#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 bench/e2e/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-dir DIR]
                             [--paradigm elastic|static] [--smoke]

It configures bench/e2e into build-e2e/ (Release), builds e2e_bench, and
runs each selected workload in its own process, so peak RSS is per
workload. It prints every metric as `workload metric value unit`, writes one
results file per workload under build-e2e/results/, and prints as its last
line a JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric that does not apply to a
workload (a simulator counter on a native workload, say) reads 0.

Exit status: 0 when every correctness check passed, 1 when one failed (the
JSON line is still printed), 2 when the benchmark could not run.
"""
import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
WORKLOADS = ["steady", "skew-shift", "wide-state", "sim-dynamics"]
RUN_TIMEOUT_S = 170
METRIC_LINE = re.compile(r"^(\S+) (\S+) ([-+0-9.eE]+) (\S+)$")
CHECK_LINE = re.compile(
    r"^(\S+) check correct=([01]) attempted=(\d+) failed=(\d+)$")


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"engine sources not found under {ROOT / 'src'}")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", "4",
                        "--target", "e2e_bench"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")


def run_workload(name, args, trace_dir):
    cmd = [str(BUILD / "e2e_bench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0",
           "--paradigm", args.paradigm]
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{name}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        die(f"{name} exited with status {proc.returncode}")
    metrics, check = {}, None
    for line in proc.stdout.splitlines():
        m = METRIC_LINE.match(line)
        if m and m.group(1) == name:
            metrics[m.group(2)] = (float(m.group(3)), m.group(4))
        c = CHECK_LINE.match(line)
        if c and c.group(1) == name:
            check = (c.group(2) == "1", int(c.group(3)), int(c.group(4)))
    if check is None:
        die(f"{name} printed no check line")
    return metrics, check


def select(name, metrics, wanted, trace):
    """Picks BENCHMARK.json's metrics out of what the workload reported."""
    out, ok = {}, True
    for spec in wanted:
        metric, unit = spec["name"], spec["unit"]
        if metric in metrics:
            value, got_unit = metrics[metric]
            if got_unit != unit:
                print(f"run.py: {name} {metric} in {got_unit}, expected {unit}",
                      file=sys.stderr)
                ok = False
            out[metric] = {"value": value, "unit": unit}
        elif trace:
            out[metric] = {"value": 0.0, "unit": unit}  # Not applicable here.
        else:
            print(f"run.py: {name} did not report {metric}", file=sys.stderr)
            ok = False
    return out, ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--trace-dir", default=str(BUILD / "trace"))
    p.add_argument("--paradigm", choices=["elastic", "static"],
                   default="elastic")
    p.add_argument("--smoke", action="store_true",
                   help="wiring check: 1 s per workload with tracing on")
    args = p.parse_args()
    if args.smoke:
        args.seconds, args.trace = 1.0, 1

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    build()

    names = [args.workload] if args.workload else WORKLOADS
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        metrics, (correct, attempted, failed) = run_workload(
            name, args, pathlib.Path(args.trace_dir))
        chosen, ok = select(name, metrics, wanted, args.trace)
        result = {"correct": correct and ok and failed == 0,
                  "attempted": attempted, "failed": failed,
                  "metrics": chosen}
        record = dict(result, workload=name, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      paradigm=args.paradigm)
        path = results_dir / (f"{name}-seed{args.seed}-trace{args.trace}"
                              f"-{args.paradigm}.json")
        path.write_text(json.dumps(record, indent=1) + "\n")
        results.append((name, result))

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
