"""Smoke test of the benchmark itself, at tiny sizes (a few seconds per workload).

    python3 bench/smoke.py

Runs every workload untraced and traced with ``--scale tiny`` and checks that
the last output line and the result file parse, that every metric named in
BENCHMARK.json appears with its unit, and that attempted >= 1.  It is a plain
script rather than a pytest module so that the tier-1 suite does not run it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import report  # noqa: E402
import workloads  # noqa: E402


def main():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != workloads.WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            try:
                result, _ = report.run(workload, 7, 1, trace, "tiny")
            except SystemExit as exc:
                problems.append(f"{where}: {exc}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append(f"{where}: attempted {result['attempted']!r}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: missing {metric['name']}")
                elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{where}: {metric['name']} = {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"{where}: ok ({len(result['metrics'])} metrics)")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
