"""Write digests.json: the sha256 of each workload's result bytes per seed.

    python3 perfbench/pin_digests.py [workload ...]

It pins seeds 0 to PINNED_SEEDS - 1 of every workload named (default: all).
The result bytes are the sweep CSV with timing off, the search budget, and
the (check, passed) list of the battery.  The battery fixes its own seeds, so
it gets one digest for every seed ("*").  Re-pin only when a change is meant
to alter seeded results; a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, RUN_LIMIT_S, run_unit
from workloads import WORKLOADS

PINNED_SEEDS = 32


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", help="workloads to re-pin (default: all)")
    args = ap.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workloads or WORKLOADS:
        spec = WORKLOADS[name]
        seeds = ["*"] if spec["kind"] == "battery" else [str(s) for s in range(PINNED_SEEDS)]
        table[name] = {}
        for s in seeds:
            unit = run_unit(name, 0 if s == "*" else int(s), False, False, RUN_LIMIT_S)
            table[name][s] = unit["digest"]
            print(name, s, unit["result"].splitlines()[-1], flush=True)
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
