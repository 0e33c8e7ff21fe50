#!/usr/bin/env python3
"""Fails unless elasticity recovers a shifted skew that static routing cannot.

Reads the traced seed-1 skew-shift results of both paradigms, as written
under build-e2e/results/ by

  python3 bench/e2e/run.py --workload skew-shift --trace 1 --seconds 4
  python3 bench/e2e/run.py --workload skew-shift --paradigm static \
      --trace 1 --seconds 4

and checks the paper's central claim on the hardware at hand:

  * static  rebalance_ms == 500: the hot keys' shards jump every 500 ms and
    a static partition never recovers within a shift;
  * elastic rebalance_ms <  100: shard moves spread the hot set well within
    a shift.

Both results must also be correct (no lost, duplicated or reordered tuple).

Usage: scripts/check_static_vs_elastic.py [results_dir]
"""
import json
import pathlib
import sys

SHIFT_MS = 500.0
ELASTIC_BOUND_MS = 100.0


def load(results_dir: pathlib.Path, paradigm: str) -> dict:
    path = results_dir / f"skew-shift-seed1-trace1-{paradigm}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        sys.exit(f"check_static_vs_elastic: cannot read {path}: {e}")


def rebalance_ms(record: dict, paradigm: str) -> float:
    try:
        return float(record["metrics"]["rebalance_ms"]["value"])
    except (KeyError, TypeError, ValueError):
        sys.exit(f"check_static_vs_elastic: {paradigm} result has no "
                 "rebalance_ms")


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    results_dir = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
                   else root / "build-e2e" / "results")
    failures = []
    values = {}
    for paradigm in ("static", "elastic"):
        record = load(results_dir, paradigm)
        if not record.get("correct"):
            failures.append(f"{paradigm} run is not correct")
        values[paradigm] = rebalance_ms(record, paradigm)
    print(f"skew-shift rebalance_ms: static {values['static']:g}, "
          f"elastic {values['elastic']:g}")
    if values["static"] != SHIFT_MS:
        failures.append(f"static rebalance_ms {values['static']:g} != "
                        f"{SHIFT_MS:g}")
    if not values["elastic"] < ELASTIC_BOUND_MS:
        failures.append(f"elastic rebalance_ms {values['elastic']:g} >= "
                        f"{ELASTIC_BOUND_MS:g}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
