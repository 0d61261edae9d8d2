"""The repo benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn_recover --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
the program running unchanged; ``--trace 1`` gives the per-layer metrics
from a traced run.  Every run checks the decision digest and resource
conservation (:mod:`perfbench.checks`).  Human-readable notes and the
run's provenance come first; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  A run
that raises or fails a check is counted in ``failed``; when no run
completed, ``metrics`` is empty and ``correct`` is false.

Exits with status 2, printing no result, when the program's sources are
not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the metric set this mode must print."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure
    from perfbench.provenance import provenance
    from perfbench.workloads import NAMES, spec_for

    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; pick one of {NAMES}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    spec = spec_for(args.workload, args.seed)
    reference = measure.reference_digest(args.workload, args.seed)
    try:
        if args.trace:
            result = measure.traced(spec, reference)
        else:
            result = measure.end_to_end(spec, args.seconds, reference)
    except Exception:
        result = measure.Result({}, 1, 1, ["run raised:\n" + traceback.format_exc()])
    if result.metrics and set(result.metrics) != set(units):
        missing = sorted(set(units) - set(result.metrics))
        extra = sorted(set(result.metrics) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in result.notes:
        print(note)
    for name, unit in units.items():
        if name in result.metrics:
            print(f"  {name:<32} {result.metrics[name]:>16.6g} {unit}")
    print("provenance " + json.dumps(provenance(ROOT, args.seed, spec.system.scoring_kernel), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name in result.metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
