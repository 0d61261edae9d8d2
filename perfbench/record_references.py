"""Record the reference decision digests the benchmark checks runs against.

    python3 perfbench/record_references.py --workload churn_recover --seeds 0-19

Runs each (workload, seed) once, refuses to record a run that fails the
conservation check, and merges the digests into
``perfbench/reference_digests.json``.  Re-record only when a change is
meant to alter decisions, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.experiments.runner import build_simulator

    from perfbench.measure import REFERENCE_FILE, simulate
    from perfbench.workloads import spec_for

    references = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    for seed in args.seeds:
        spec = spec_for(args.workload, seed)
        outcome = simulate(spec, build_simulator(spec), time_find=False)
        if outcome.problems:
            print(f"seed {seed}: not recorded: {outcome.problems}", file=sys.stderr)
            return 1
        references.setdefault(args.workload, {})[str(seed)] = outcome.digest
        print(f"{args.workload} seed {seed}: {outcome.digest}", flush=True)
        REFERENCE_FILE.write_text(
            json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
