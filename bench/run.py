"""jcpairs benchmark: one seeded workload, end-to-end or traced per layer.

    python3 bench/run.py --workload grid_closed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads are defined in ``workloads.py``; the program receives
only the generated argv lists.  The run:

1. times fresh interpreters that ``import jcpairs.cli`` and exit, half
   before and half after the workload;
2. runs the workload in one child process (``worker.py``) with one BLAS
   thread, repeating passes over the request list for ``--seconds``;
3. checks every output against the paper's relations (``checks.py``) and
   counts failed requests;
4. writes a result file with provenance and all samples to ``bench/out/``
   and prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median over passes of the pass's wall time, each request's
  time rescaled to a reference host speed measured by a fixed kernel timed
  around it (``hostspeed.py``); the raw median is in the result file;
* ``setup_s``: median time of a fresh interpreter until ``import jcpairs.cli``
  returns, each sample rescaled like the requests by kernel rounds timed
  just before and after it.  On a 2-core shared Xeon this halved the spread
  of 12-sample medians taken over nine minutes (quartile distance over
  median 0.18 raw, 0.09 rescaled); the raw samples are in the result file;
* ``peak_rss_mb``: high-water resident memory of the workload process.  ``--trace 1`` reports the per-layer metrics of
``tracer.py`` and ``fail_frac`` instead.

``attempted`` is the number of requests in the workload and ``failed`` the
number whose executions exited non-zero or failed a check in any pass.  ``correct`` is false when any failure is outside the seed's three
known defects (``checks.KNOWN_DEFECTS``); the known ones still count in
``failed`` and are listed in the result file and on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _setup_times(n, env):
    """Seconds of ``n`` fresh interpreters importing jcpairs.cli, and the
    kernel rounds run before each one and after the last (``hostspeed``)."""
    times, rounds = [], [hostspeed.calibrate()]
    for _ in range(n):
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import jcpairs.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
        rounds.append(hostspeed.calibrate())
    return times, rounds


def _git():
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=30).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def provenance(args, requests, env):
    return {
        "git": _git(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas(), "threads": {name: env[name] for name in THREAD_VARS}},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "argv": [r["argv"] for r in requests],
    }


def tail(samples):
    """The highest sample with at least ten samples above it, with its percentile."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1), "value": sorted(samples)[n - 11],
            "samples": n}


def check_executions(requests, run, tmpdir):
    """Check each distinct output once and count failed requests.

    A request counts once however many passes ran it, and fails if any of
    its executions failed, so ``attempted`` and ``failed`` depend only on
    the request list, not on how many passes fit in the run.
    """
    failed = 0
    unexpected, failing, outputs = set(), [], []
    for i, (request, executions) in enumerate(zip(requests, run["executions"])):
        verdicts = {}
        for code, stderr, digest in executions:
            key = (code, stderr, digest)
            if key not in verdicts:
                name = run["kept"].get(f"{i}:{digest}")
                text = (tmpdir / name).read_text(encoding="utf-8") if name else ""
                verdicts[key] = checks.check(request, code, stderr, text)
        codes = sorted({c for v in verdicts.values() for c in v})
        if codes:
            failed += 1
            unexpected.update(c for c in codes if c not in checks.KNOWN_DEFECTS)
        outputs.append({"argv": request["argv"],
                        "exit_codes": sorted({k[0] for k in verdicts}),
                        "sha256": sorted({k[2] for k in verdicts}, key=str),
                        "failures": codes})
        if codes:
            failing.append(outputs[-1])
    return {"attempted": len(requests), "failed": failed, "unexpected": sorted(unexpected),
            "failing": failing, "outputs": outputs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every grid (smoke test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jcpairs" / "cli.py").is_file():
        print(f"error: no jcpairs source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    requests = workloads.requests_for(args.workload, args.seed, args.scale)
    env = _env()
    out = BENCH / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "tmpdir": str(out / f"tmp-{os.getpid()}"),
            "spans_path": str(out / f"{stem}-spans.npz")}
    out.mkdir(exist_ok=True)

    setup, setup_rounds = _setup_times(SETUP_SAMPLES // 2, env)
    tmpdir = Path(spec["tmpdir"])
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome = check_executions(requests, run, tmpdir)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    late, late_rounds = _setup_times(SETUP_SAMPLES - SETUP_SAMPLES // 2, env)
    setup_rescaled = (hostspeed.rescale_pass(setup, setup_rounds)
                      + hostspeed.rescale_pass(late, late_rounds))
    setup += late

    passes = run["pass_s"]
    rescaled = [hostspeed.rescale_pass(t, k) for t, k in zip(run["request_s"], run["kernel_s"])]
    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        metrics = run["per_layer"]
        metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(sum(p) for p in rescaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_rescaled), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not outcome["unexpected"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "provenance": provenance(args, requests, env),
        "fail_frac": failed / attempted,
        "unexpected_failures": outcome["unexpected"],
        "failing_requests": outcome["failing"],
        "outputs": outcome["outputs"],
        "samples": {
            "pass_s": passes,
            "pass_rescaled_s": [sum(p) for p in rescaled],
            "pass_rescaled_tail": tail([sum(p) for p in rescaled]),
            "wall_raw_s": statistics.median(passes),
            "request_s": run["request_s"],
            "kernel_s": run["kernel_s"],
            "traced_pass_s": run["traced_pass_s"],
            "setup_s": setup,
            "setup_rescaled_s": setup_rescaled,
        },
        "absent_spans": run["absent"],
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    failing = outcome["failing"]
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} passes = {len(passes)} (+{len(run['traced_pass_s'])} traced), "
          f"requests per pass = {len(requests)}, fail_frac = {record['fail_frac']:.4g}")
    for r in failing:
        print(f"{args.workload} failing: {' '.join(r['failures'])}: {' '.join(r['argv'])}")
    if run["absent"]:
        print(f"{args.workload} absent spans: {', '.join(run['absent'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
