"""Benchmark of the shortest/fixed converter and its serving daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk-flat --seed 1 \
        --seconds 20 --trace 0

Workloads: ``bulk-flat``, ``bulk-zipf`` (see README.md).
Every output is checked against the oracles in ``oracles.py``.  Lines
before the last say what each phase attempted and failed and, untraced,
the end-to-end figures before host adjustment (``yardstick.py``); the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1`` (whose spans go to ``perfbench/traces/``).
Exits 1 when an output was wrong, 2 when the program's sources are
missing and 3 when the run cannot stand as a measurement (the traced
run's load generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("bulk-flat", "bulk-zipf")


def _units(traced: bool) -> dict:
    """Metric name -> unit of the run's kind, from BENCHMARK.json at the
    checkout root."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the converter's sources are not at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import oracles
    import workloads

    missed = oracles.self_test()
    if missed:
        print("perfbench: oracle self-test missed planted wrong answers: "
              + "; ".join(missed), file=sys.stderr)
        return 1
    traced = bool(args.trace)
    try:
        result = workloads.run_bulk(args.workload[len("bulk-"):], SRC,
                                    args.seed, args.seconds, traced)
    except workloads.RunInvalid as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if result.tracer is not None:
        out = os.path.join(HERE, "traces")
        os.makedirs(out, exist_ok=True)
        result.tracer.write(os.path.join(
            out, f"{args.workload}-seed{args.seed}.jsonl"))

    attempted = failed = 0
    for name, (a, f, why) in result.phases.items():
        print(f"phase {name}: attempted {a} failed {f}"
              + (f" (first: {why})" if why else ""))
        attempted += a
        failed += f
    if result.unadjusted:
        print("before host adjustment: " + ", ".join(
            f"{k}={v:.6g}" for k, v in result.unadjusted.items()))
    metrics = result.metrics
    units = _units(traced)
    if set(metrics) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
