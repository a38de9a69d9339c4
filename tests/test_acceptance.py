"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria 01-03 and 07-09 assert the named checks of ``jcpairs.checks``, the
suite ``jcpairs verify`` runs; the others compute what that suite lacks.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from conftest import closed_sampler
from jcpairs import (
    PAIR_LABELS,
    GridEngine,
    JCParams,
    boundary_AB,
    zero_intervals,
)
from jcpairs.checks import random_x_states, run_checks
from jcpairs.entanglement import pair_values

PARAMS = JCParams(omega0=5.0, omega=5.0, g=1.0)
RABI = PARAMS.rabi(1)
ALPHA_GRID = np.linspace(0.0, np.pi / 2, 21)
GT_GRID = np.linspace(0.0, 4 * np.pi, 41)


def report(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def checks():
    """The invariant suite that ``jcpairs verify`` runs: name -> (passed, "name: detail")."""
    return {name: (ok, f"{name}: {detail}") for name, ok, detail in run_checks(PARAMS, 1e-9)}


def test_criterion_01_engine_agreement(checks):
    report(1, *checks["engine_agreement"])


def test_criterion_02_closed_form_agreement(checks):
    report(2, *checks["closed_form_agreement"])


def test_criterion_03_psi_conservation(checks):
    report(3, *checks["psi_conservation"])


def test_criterion_04_psi_cross_pair_bound(checks):
    bound_ok, bound_detail = checks["c_Ab_bound"]
    values = GridEngine("analytic", "psi", PARAMS).values(ALPHA_GRID, GT_GRID / RABI, ("Ab",))
    c_ab = values.concurrence[..., 0]
    peak = float(c_ab.max())
    ia, it = np.unravel_index(int(c_ab.argmax()), c_ab.shape)
    at_expected = math.isclose(ALPHA_GRID[ia], np.pi / 4, abs_tol=1e-12) and math.isclose(
        GT_GRID[it] % np.pi, np.pi / 2, abs_tol=1e-9
    )
    ok = bound_ok and abs(peak - 0.5) <= 1e-9 and at_expected
    report(4, ok,
           f"{bound_detail}; analytic grid max = {peak:.12f} at alpha = {ALPHA_GRID[ia]:.6f}, "
           f"Gt = {GT_GRID[it]:.6f} (expected 0.5 at pi/4, pi/2 mod pi)")


def test_criterion_05_phi_esd_geometry():
    period = 2 * np.pi / RABI
    worst_gap = 0.0
    for alpha in (np.pi / 16, np.pi / 8, 3 * np.pi / 16, 0.2 * np.pi, 0.24 * np.pi):
        sample = closed_sampler("phi", alpha, RABI)
        (intervals,) = zero_intervals(sample, 0.0, period, samples=2049)
        deaths = [iv for iv in intervals if iv.kind == "sudden_death"]
        assert len(deaths) == 1, f"alpha={alpha}: expected one death window, got {intervals}"
        lo, hi = boundary_AB("phi", alpha, PARAMS)
        worst_gap = max(worst_gap, abs(deaths[0].t_lo * RABI - lo), abs(deaths[0].t_hi * RABI - hi))
    touch_ok = True
    for alpha in (np.pi / 4, np.pi / 3):
        sample = closed_sampler("phi", alpha, RABI)
        (intervals,) = zero_intervals(sample, 0.0, 2 * period, samples=2049)
        centers = [0.5 * (iv.t_lo + iv.t_hi) * RABI for iv in intervals]
        touch_ok = touch_ok and all(iv.kind == "touch" for iv in intervals)
        touch_ok = touch_ok and all(
            min(abs(c - k * np.pi) for k in (1, 3)) < 1e-2 for c in centers
        )
    ok = worst_gap <= 1e-6 and touch_ok
    report(5, ok,
           f"phi ESD geometry: max endpoint gap vs 2 asin sqrt(tan a) = {worst_gap:.3e} "
           f"(tol 1e-06); touch-only above pi/4: {touch_ok}")


def test_criterion_06_psi_no_sudden_death():
    period = 2 * np.pi / RABI
    offenders = []
    for alpha in ALPHA_GRID:
        per_pair = zero_intervals(
            closed_sampler("psi", alpha, RABI, PAIR_LABELS), 0.0, 2 * period, samples=513
        )
        for pair, intervals in zip(PAIR_LABELS, per_pair):
            for iv in intervals:
                if iv.kind == "sudden_death":
                    offenders.append((alpha, pair, iv))
                if iv.kind == "degenerate":
                    # only the exact product states may flatline
                    assert min(abs(alpha), abs(alpha - np.pi / 2)) < 1e-12, (alpha, pair)
    report(6, not offenders,
           f"psi family: {len(offenders)} positive-width zero intervals across the grid "
           f"(expected 0)")


def test_criterion_07_shift_and_pair_symmetries(checks):
    report(7, *checks["shift_symmetry"])


def test_criterion_08_x_form_universality(checks):
    x_ok, x_detail = checks["x_form"]
    # the suite compares both routes' entry-read C with the general Wootters
    # route on the same reductions; this adds a finer grid and more X states
    fast_gap = 0.0
    for kind in ("phi", "psi"):
        engine = GridEngine("numeric", kind, PARAMS)
        values = engine.values(ALPHA_GRID, GT_GRID / RABI)
        general = engine.values(ALPHA_GRID, GT_GRID / RABI, general=True).concurrence
        fast_gap = max(fast_gap, float(np.max(np.abs(values.concurrence - general))))
    states, rows = random_x_states(np.random.default_rng(42), 1000)
    fast_gap = max(fast_gap, float(np.max(np.abs(pair_values(states, ["AB"], live=rows)[0]
                                                  - pair_values(states, ["AB"], live=rows, general=True)[0]))))
    report(8, x_ok and fast_gap <= 1e-10,
           f"{x_detail}; numeric grid and 1000 random X states: max |C_fast - C_general| = {fast_gap:.3e} "
           f"(tol 1e-10)")


def test_criterion_09_q_identity(checks):
    report(9, *checks["q_identity"])


def test_criterion_10_detuned_ingredients():
    # the closed form off resonance, whose ingredients are |f|^2 and |h|^2 per
    # site, against C and Q of the numeric route
    alphas = np.array([np.pi / 5, 1.1])
    worst = 0.0
    for ratio in (0.5, 1.0, 2.0):
        params = JCParams(omega0=10.0, omega=10.0 + ratio * 2.0, g=1.0)
        ts = np.linspace(0.0, 2 * (2 * np.pi / params.splitting), 50)
        for kind in ("phi", "psi"):
            closed = GridEngine("closed", kind, params).values(alphas, ts)
            numeric = GridEngine("numeric", kind, params).values(alphas, ts)
            worst = max(worst, float(np.max(np.abs(closed.concurrence - numeric.concurrence))),
                        float(np.max(np.abs(closed.q - numeric.q))))
    report(10, worst <= 1e-9,
           f"detuned closed form vs numeric route: max |C, Q gap| of all six pairs over "
           f"Delta/G in {{0.5, 1, 2}} = {worst:.3e} (tol 1e-09)")
