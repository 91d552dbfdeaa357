"""Rewrite golden.json from the library in this checkout.

    python3 perfbench/golden.py [workload ...]

Runs one untraced repetition of each workload on the default seed and stores
the final values of every run and point, and the CSV hash.  Run it only when
a change deliberately alters the numerics, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import check
import run
import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    golden = check.load_golden()
    for name in names:
        w = workloads.WORKLOADS[name]
        if not run.prepare(w):
            return 1
        result = run.run_child(
            ["--workload", name, "--seed", str(workloads.DEFAULT_SEED), "--rep", "0"], 600
        )
        if not result["finals"]:
            print(f"{name}: no output: {result.get('errors')}", file=sys.stderr)
            return 1
        golden["workloads"][name] = {
            "seed": workloads.DEFAULT_SEED,
            "csv_sha256": result["csv_sha256"],
            "finals": result["finals"],
        }
        print(f"{name}: {len(result['finals'])} final rows", flush=True)
    with open(check.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
