"""Runs one workload in its own process and prints its measurements as JSON.

Reads a JSON spec on stdin (workload, seed, seconds, trace, scale, tmpdir,
spans_path), calls ``jcpairs.cli.main`` with each generated argv, and
repeats passes over the request list until ``seconds`` of passes have run.
Output files go to ``tmpdir``; each is hashed, and one copy of every
distinct output is kept there for the parent to check and delete.

With trace off every pass is timed as is.  With trace on, untraced and
traced passes alternate; the traced ones give the per-layer numbers, the
ratio of the two medians gives ``trace.overhead``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import tracer as tracing
import workloads

MIN_PASSES = 3


class Runner:
    """Runs requests, keeping one copy of each distinct output for the checks."""

    def __init__(self, cli, requests, tmpdir):
        self.cli = cli
        self.requests = requests
        self.tmpdir = tmpdir
        self.executions = [[] for _ in requests]  # per request: [exit code, stderr, sha256]
        self.kept = {}  # "i:sha256" -> file name under tmpdir

    def request(self, i):
        path = self.tmpdir / f"request{i}.out"
        path.unlink(missing_ok=True)
        argv = self.requests[i]["argv"] + ["--output", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, err.getvalue(), elapsed

    def run_pass(self):
        """One pass over the requests.

        Returns the seconds of each request and the seconds of the kernel
        rounds run before each request and after the last one.
        """
        results, rounds = [], [hostspeed.calibrate()]
        for i in range(len(self.requests)):
            results.append(self.request(i))
            rounds.append(hostspeed.calibrate())
        for i, (code, stderr, _) in enumerate(results):
            self._record(i, code, stderr)
        return [elapsed for _, _, elapsed in results], rounds

    def _record(self, i, code, stderr):
        path = self.tmpdir / f"request{i}.out"
        digest = None
        if path.exists():
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            key = f"{i}:{digest}"
            if key in self.kept:
                path.unlink()
            else:
                self.kept[key] = f"request{i}-{digest[:16]}.out"
                path.replace(self.tmpdir / self.kept[key])
        self.executions[i].append([code, stderr, digest])


def _layers(passes, requests, overhead):
    """Per-layer metrics per pass, from each traced pass's (calls, total, self, evals)."""
    calls, total, own, evals = passes[0]
    for other in passes[1:]:
        if not (np.array_equal(other[0], calls) and other[3] == evals):
            raise RuntimeError("per-layer counts differ between traced passes")
    n = len(passes)
    total = sum(p[1] for p in passes) / n
    own = sum(p[2] for p in passes) / n
    idx = {name: i for i, name in enumerate(tracing.SPAN_NAMES)}
    points = sum(r["points"] for r in requests)
    cells = sum(r["cells"] for r in requests)

    def count(name):
        return int(calls[idx[name]])

    def us_per_call(name):
        c = count(name)
        return float(total[idx[name]] / c * 1e6) if c else 0.0

    def timed(name):
        metrics[f"{name}.calls"] = (count(name), "count")
        metrics[f"{name}.us_per_call"] = (us_per_call(name), "us")

    metrics = {"cli.self_s": (float(own[idx["cli.main"]]), "s")}
    timed("closedform.resonance_values")
    for name in ("evolve_analytic", "propagator_evolve", "propagator_build"):
        timed(f"dynamics.{name}")
    evolves = count("dynamics.evolve_analytic") + count("dynamics.propagator_evolve")
    metrics["dynamics.evolves_per_point"] = (evolves / points, "ratio")
    for name in ("jcmodel.total_hamiltonian", "jcmodel.dressed_data"):
        metrics[f"{name}.calls"] = (count(name), "count")
    timed("linalg.partial_trace")
    timed("linalg.sqrt_psd")
    timed("entanglement.wootters_concurrence")
    metrics["entanglement.wootters_concurrence.self_s"] = (
        float(own[idx["entanglement.wootters_concurrence"]]), "s")
    metrics["entanglement.all_pairwise.calls"] = (count("entanglement.all_pairwise"), "count")
    metrics["entanglement.wootters_per_cell"] = (
        count("entanglement.wootters_concurrence") / cells, "ratio")
    scans = count("esd.zero_intervals")
    metrics["esd.zero_intervals.calls"] = (scans, "count")
    metrics["esd.curve_evals"] = (evals, "count")
    metrics["esd.evals_per_scan"] = (evals / scans if scans else 0.0, "ratio")
    metrics["esd.sweep.calls"] = (count("esd.sweep"), "count")
    metrics["esd.sweep.self_s"] = (float(own[idx["esd.sweep"]]), "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def _save_spans(path, spans):
    arr = np.array(sorted(spans), dtype=float).reshape(-1, 5)
    np.savez_compressed(path, index=arr[:, 0].astype(np.int64), name=arr[:, 1].astype(np.int16),
                        start=arr[:, 2], end=arr[:, 3], parent=arr[:, 4].astype(np.int64),
                        names=np.array(tracing.SPAN_NAMES))


def main():
    spec = json.loads(sys.stdin.read())
    import jcpairs.cli as cli

    requests = workloads.requests_for(spec["workload"], spec["seed"], spec["scale"])
    tmpdir = Path(spec["tmpdir"])
    tmpdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, requests, tmpdir)
    tracer = tracing.Tracer() if spec["trace"] else None
    runner.request(0)  # warm-up: lazy imports and first-call set-up
    untraced, traced, request_s, kernel_s, layer_passes = [], [], [], [], []
    started = time.perf_counter()
    while True:
        measured = time.perf_counter() - started
        passes = untraced + traced
        if len(passes) >= MIN_PASSES and (traced or not tracer) and \
                measured + statistics.median(passes) > spec["seconds"]:
            break
        if tracer and len(traced) < len(untraced):
            tracer.reset()
            tracer.install()
            try:
                times, _ = runner.run_pass()
            finally:
                tracer.uninstall()
            traced.append(sum(times))
            layer_passes.append((*tracing.aggregate(tracer.spans), tracer.curve_evals))
            if len(traced) == 1:
                _save_spans(spec["spans_path"], tracer.spans)
        else:
            times, rounds = runner.run_pass()
            untraced.append(sum(times))
            request_s.append(times)
            kernel_s.append(rounds)

    result = {
        "pass_s": untraced,
        "request_s": request_s,
        "kernel_s": kernel_s,
        "traced_pass_s": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "executions": runner.executions,
        "kept": runner.kept,
        "absent": tracer.absent if tracer else [],
    }
    if tracer:
        overhead = statistics.median(traced) / statistics.median(untraced)
        layers = _layers(layer_passes, requests, overhead)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
