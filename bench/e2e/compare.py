#!/usr/bin/env python3
"""Compares sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A [A ...] [--vs B [B ...]]

Each A or B is a results file written by run.py (build-e2e/results/*.json)
or a directory of them. For every workload and metric it prints the number
of runs, the median, the quartiles, the spread (interquartile distance over
the median, with statistics.quantiles(n=4)) and the max/min ratio of each
side. It flags:

  SPREAD  an end-to-end metric whose spread exceeds its bound in
          BENCHMARK.json (except setup_s: a set-up takes a millisecond or
          less, so only its median is held to the bound);
  WORSE   (with --vs) a metric whose B median is worse than its A median by
          more than its bound.

Use it for the same-commit agreement check (two sets of runs of one
commit) and for parent-versus-change pairs. Exits 1 when anything is
flagged.
"""
import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load(paths):
    """{(workload, trace, paradigm): {metric: [values]}}"""
    groups = {}
    files = []
    for p in map(pathlib.Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    for f in files:
        r = json.loads(f.read_text())
        key = (r["workload"], r["trace"], r["paradigm"])
        for name, m in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return groups


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    lo = min(values)
    ratio = max(values) / lo if lo > 0 else float("inf")
    return med, q1, q3, spread, ratio


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("a", nargs="+")
    p.add_argument("--vs", nargs="+", default=[])
    p.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = p.parse_args()

    bench = json.loads(pathlib.Path(args.bench).read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a = load(args.a)
    b = load(args.vs) if args.vs else {}

    flagged = 0
    for key in sorted(a):
        workload, trace, paradigm = key
        print(f"\n== {workload} (trace {trace}, {paradigm})")
        print(f"{'metric':26} {'side':4} {'n':>3} {'median':>13} {'q1':>13} "
              f"{'q3':>13} {'spread':>7} {'max/min':>7}  flags")
        for name in sorted(a[key]):
            spec = specs.get(name, {})
            bound = spec.get("bound")
            sides = [("A", a[key][name])]
            if key in b and name in b[key]:
                sides.append(("B", b[key][name]))
            meds = {}
            for side, values in sides:
                med, q1, q3, spread, ratio = stats(values)
                meds[side] = med
                flags = []
                if bound is not None and spread > bound and name != "setup_s":
                    flags.append(f"SPREAD>{bound}")
                if side == "B" and bound is not None and meds["A"]:
                    delta = (med - meds["A"]) / meds["A"]
                    worse = delta if spec.get("better") == "lower" else -delta
                    flags.append(f"delta {delta:+.1%}")
                    if worse > bound:
                        flags.append(f"WORSE>{bound}")
                flagged += any(f.startswith(("SPREAD", "WORSE")) for f in flags)
                print(f"{name:26} {side:4} {len(values):3} {med:13.6g} "
                      f"{q1:13.6g} {q3:13.6g} {spread:7.3f} {ratio:7.3f}  "
                      f"{' '.join(flags)}")
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
