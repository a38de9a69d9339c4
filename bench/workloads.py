"""Seeded request lists for the four benchmark workloads.

A workload is a list of CLI requests.  Each request is a dict with the
``argv`` handed to ``jcpairs.cli.main`` (the worker appends ``--output``),
the parameters the output checks need, and two sizes used to normalize the
per-layer counts:

* ``points``: distinct (alpha, t, engine) points the request asks for; for
  ``esd`` these are the scan's sample times.
* ``cells``: concurrence values the request reports (rows times pairs); for
  ``esd`` the sample times times the six scanned pairs.

The same seed always gives the same requests.  ``scale="tiny"`` shrinks every
grid so the smoke test finishes in seconds; the numbers drawn from the seed
are the same at both scales.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("grid_closed", "grid_engines", "esd_scan", "series_fock")

WHY = {
    "grid_closed": "closed-form 100x200 (alpha, t) tables: CSV formatting and resonance_values "
                   "dominate, no engine work; the control for engine and Wootters changes",
    "grid_engines": "sweep --engine both, resonant and detuned: evolve, reduce and Wootters for "
                    "every cell on both engines, each point re-evolved once per pair",
    "esd_scan": "esd scans over alpha in (0, pi), half detuned: sampling and bisection in "
                "esd.zero_intervals dominate, output is small; shows the boundary defects",
    "series_fock": "evolve --engine both, n_max 1-4 and t in 1e8-1e9: the only user of "
                   "all_pairwise and of the numeric engine above n_max = 1",
}

_PAIRS = 6


def _f(x):
    return repr(float(x))


def _site(rng, detuned, max_detuning=1.0):
    """(omega0, omega, g); when detuned, |omega - omega0| / G in [1/4, max_detuning]."""
    omega0 = rng.uniform(3.0, 7.0)
    g = rng.uniform(0.5, 1.5)
    if not detuned:
        return omega0, omega0, g
    delta = rng.uniform(0.25, max_detuning) * 2.0 * g * rng.choice((-1.0, 1.0))
    return omega0, omega0 + delta, g


def _site_argv(omega0, omega, g):
    return ["--omega0", _f(omega0), "--omega", _f(omega), "--g", _f(g)]


def grid_closed(rng, tiny):
    alphas, steps = (4, 9) if tiny else (100, 199)
    requests = []
    for family in ("phi", "psi"):
        omega0, omega, g = _site(rng, detuned=False)
        alpha_min = rng.uniform(0.0, 0.2)
        alpha_max = rng.uniform(0.5 * math.pi, math.pi - 0.2)
        t_max = rng.uniform(1.5, 2.5) * 2.0 * math.pi / (2.0 * g)
        argv = ["sweep", "--engine", "closed", "--family", family, *_site_argv(omega0, omega, g),
                "--alpha-min", _f(alpha_min), "--alpha-max", _f(alpha_max),
                "--alpha-points", str(alphas), "--t-max", _f(t_max), "--steps", str(steps)]
        n = alphas * (steps + 1)
        requests.append({"argv": argv, "command": "sweep", "family": family,
                         "rows": n * _PAIRS, "points": n, "cells": n * _PAIRS})
    return requests


def grid_engines(rng, tiny):
    alphas, steps = (2, 4) if tiny else (3, 200)
    sites = [_site(rng, detuned=False), _site(rng, detuned=True)]
    requests = []
    for omega0, omega, g in sites:
        for family in ("phi", "psi"):
            alpha_min = rng.uniform(0.05, 0.3)
            alpha_max = rng.uniform(0.5 * math.pi, math.pi - 0.05)
            argv = ["sweep", "--engine", "both", "--family", family, *_site_argv(omega0, omega, g),
                    "--alpha-min", _f(alpha_min), "--alpha-max", _f(alpha_max),
                    "--alpha-points", str(alphas), "--steps", str(steps)]
            n = alphas * (steps + 1)
            requests.append({"argv": argv, "command": "sweep", "family": family,
                             "rows": n * _PAIRS, "points": 2 * n, "cells": n * _PAIRS})
    return requests


def esd_scan(rng, tiny):
    # Angles form a randomly shifted lattice over (0, pi): alpha_k = (k + u) pi / n.
    # Every seed then puts the same number of requests on each side of the
    # window condition |tan alpha| < G^2/delta^2 (windows below pi/4, none
    # between pi/4 and 3 pi/4, mirrored windows above), which keeps the
    # scan's cost nearly independent of the seed.  Even k are resonant, odd k
    # detuned.  The time window is one period of the dressed splitting delta.
    steps = 32 if tiny else 64
    requests = []
    for family, n in (("phi", 8), ("psi", 2)):
        shift = rng.uniform(0.1, 0.45)
        for k in range(n):
            omega0, omega, g = _site(rng, detuned=k % 2 == 1, max_detuning=0.5)
            alpha = (k + shift) * math.pi / n
            t_max = 2.0 * math.pi / math.hypot(omega - omega0, 2.0 * g)
            argv = ["esd", "--engine", "analytic", "--family", family, "--alpha", _f(alpha),
                    *_site_argv(omega0, omega, g), "--t-max", _f(t_max), "--steps", str(steps)]
            requests.append({"argv": argv, "command": "esd", "family": family, "alpha": alpha,
                             "omega0": omega0, "omega": omega, "g": g, "t_max": t_max,
                             "steps": steps, "points": steps + 1, "cells": (steps + 1) * _PAIRS})
    return requests


def series_fock(rng, tiny):
    # Every seed runs each truncation n_max = 1..4 once (in a seeded order),
    # over one Rabi period at the CLI's default step count, so the pass cost
    # does not depend on which n_max the seed draws.  The two long-time
    # requests take t-max from [1e8, 10^8.5] and [10^8.5, 1e9], psi family,
    # with |sin 2 alpha| >= 0.56.  There the engines disagree by at least
    # 7e-9 (7x the default tolerance) on seeds 1-600, so every seed shows the
    # long-time defect on both requests.  Below 1e8, or for phi
    # (whose concurrences can sit at zero on all eight sample times), whether
    # the disagreement crosses the tolerance depends on the seed.
    requests = []
    for n_max in rng.sample((1, 2, 3, 4), 4):
        omega0, omega, g = _site(rng, detuned=rng.random() < 0.5)
        argv = ["evolve", "--engine", "both", "--family", rng.choice(("phi", "psi")),
                "--alpha", _f(rng.uniform(0.05, math.pi - 0.05)),
                *_site_argv(omega0, omega, g), "--n-max", str(n_max),
                "--t-max", _f(2.0 * math.pi / (2.0 * g))]
        steps = 512  # the CLI default for a one-period window
        if tiny:
            argv += ["--steps", "16"]
            steps = 16
        requests.append({"argv": argv, "command": "evolve", "rows": steps + 1,
                         "points": 2 * (steps + 1), "cells": (steps + 1) * _PAIRS})
    for lo, hi in ((8.0, 8.5), (8.5, 9.0)):
        omega0, omega, g = _site(rng, detuned=False)
        t_max = 10.0 ** rng.uniform(lo, hi)
        alpha = rng.uniform(0.3, 1.2)
        alpha = rng.choice((alpha, math.pi - alpha))
        argv = ["evolve", "--engine", "both", "--family", "psi", "--alpha", _f(alpha),
                *_site_argv(omega0, omega, g), "--t-max", _f(t_max), "--steps", "8"]
        requests.append({"argv": argv, "command": "evolve", "t_max": t_max, "rows": 9,
                         "points": 18, "cells": 9 * _PAIRS})
    return requests


_BUILDERS = {
    "grid_closed": grid_closed,
    "grid_engines": grid_engines,
    "esd_scan": esd_scan,
    "series_fock": series_fock,
}


def requests_for(workload, seed, scale="full"):
    """The workload's request list for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, scale == "tiny")
