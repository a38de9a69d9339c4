"""Run every workload, untraced and traced, and print all metrics by name and unit.

    python3 bench/report.py --seed 1 --seconds 25

Each run is ``run.py`` in its own process, one after another.  The table
lists the end-to-end metrics of the untraced run, then the per-layer metrics
of the traced run, then fail_frac and the failing requests of each workload.
Exits 1 when a run fails or reports an unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run(workload, seed, seconds, trace, scale):
    """(last-line result, result file) of one ``run.py`` run; exits on failure."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", scale],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    ok = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload}: {workloads.WHY[workload]}")
        for trace in (0, 1):
            result, record = run(workload, args.seed, args.seconds, trace, args.scale)
            kind = "per-layer (traced)" if trace else "end-to-end"
            samples = record["samples"]
            print(f"  {kind}: {len(samples['pass_s'])} passes"
                  + (f" + {len(samples['traced_pass_s'])} traced" if trace else
                     f"; median pass {samples['wall_raw_s']:.4g} s before rescaling; tail: "
                     f"{samples['pass_rescaled_tail'] or 'needs 11 passes'}"))
            for name, metric in result["metrics"].items():
                print(f"    {name:44s} {metric['value']:>14.6g} {metric['unit']}")
            ok &= result["correct"]
        print(f"  fail_frac {result['failed']}/{result['attempted']} = "
              f"{record['fail_frac']:.4g}; unexpected failures: "
              f"{', '.join(record['unexpected_failures']) or 'none'}")
        for request in record["failing_requests"]:
            print(f"    failing ({', '.join(request['failures'])}): {' '.join(request['argv'])}")
        if record["absent_spans"]:
            print(f"  absent: {', '.join(record['absent_spans'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
