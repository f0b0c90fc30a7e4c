"""Record the p != 2 golden eigenvalues into perfbench/golden.json.

    python3 perfbench/record_golden.py

Runs each workload once, at full and at smoke size, and stores every p != 2
eigenvalue the run computes under its problem label. The stored file was
recorded from the commit that introduced the benchmark; re-recording it
after a change would hide the change, so do it only when the discrete
problems themselves (meshes or workloads) are redefined, and say so.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run


def main():
    golden = {}
    for config_dir in (run.BENCH / "configs", run.BENCH / "configs" / "smoke"):
        for workload in run.WORKLOADS:
            s = run.run_sample(workload, 0, 1, False, False, config_dir, perf_counter())
            if "crash" in s:
                raise SystemExit(f"{workload}: {s['crash']}")
            for rec in s["solves"]:
                if rec["p"] != 2.0 and "error" not in rec:
                    golden[f"{rec['problem']} p={rec['p']:g}"] = rec["lam"]
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} golden values to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
