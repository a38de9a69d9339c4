"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Criteria 01-03 and 07-09 assert the named checks of ``jcpairs.checks``, the
suite ``jcpairs verify`` runs; the others compute what that suite lacks.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from conftest import closed_sampler, random_x_state
from jcpairs import (
    PAIR_LABELS,
    GridEngine,
    HamiltonianPropagator,
    InitialFamily,
    JCParams,
    dressed_data,
    esd_boundary_phi_AB,
    phi_offres_ingredients,
    prepare_initial,
    psi_offres_ingredients,
    total_hamiltonian,
    wootters_concurrence,
    xstate_concurrence,
    zero_intervals,
)
from jcpairs.checks import run_checks
from jcpairs.dynamics import initial_amplitudes
from jcpairs.entanglement import concurrence_stack, off_x_defect
from jcpairs.linalg import pair_density, partial_trace

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
        lo, hi = esd_boundary_phi_AB(alpha)
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
    # the suite reads the analytic route's reductions; the numeric route's carry
    # round-off in their zero entries, which the general route must not amplify
    propagator = HamiltonianPropagator(total_hamiltonian(PARAMS, PARAMS, n_max=1))
    x_defect = 0.0
    fast_gap = 0.0
    for kind in ("phi", "psi"):
        psi = propagator.evolve_grid(initial_amplitudes(kind, ALPHA_GRID), GT_GRID / RABI)
        rho = np.stack([pair_density(psi, (label[0], label[1])) for label in PAIR_LABELS])
        x_defect = max(x_defect, float(off_x_defect(rho).max()))
        # x_tol < 0 sends every cell through the general Wootters route
        general = concurrence_stack(rho, x_tol=-1.0)[0]
        fast_gap = max(fast_gap, float(np.max(np.abs(concurrence_stack(rho)[0] - general))))
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rho = random_x_state(rng)
        fast_gap = max(
            fast_gap, abs(xstate_concurrence(rho).value - wootters_concurrence(rho).value)
        )
    report(8, x_ok and x_defect <= 1e-10 and fast_gap <= 1e-10,
           f"{x_detail}; numeric reductions and 1000 random X states: max off-X entry = "
           f"{x_defect:.3e}, max |C_fast - C_general| = {fast_gap:.3e} (tol 1e-10)")


def test_criterion_09_q_identity(checks):
    report(9, *checks["q_identity"])


def test_criterion_10_detuned_ingredients():
    worst = 0.0
    for ratio in (0.5, 1.0, 2.0):
        params = JCParams(omega0=10.0, omega=10.0 + ratio * 2.0, g=1.0)
        d = dressed_data(params, 1)
        propagator = HamiltonianPropagator(total_hamiltonian(params, params, n_max=1))
        for kind, ingredients in (("phi", phi_offres_ingredients), ("psi", psi_offres_ingredients)):
            for alpha in (np.pi / 5, 1.1):
                psi0 = prepare_initial(InitialFamily(kind, alpha))
                for t in np.linspace(0.0, 2 * (2 * np.pi / d.splitting), 50):
                    state = propagator.evolve(psi0, t)
                    for pair, keep in (("AB", ("A", "B")), ("Ab", ("A", "b"))):
                        rho = partial_trace(state, keep)
                        ing = ingredients(alpha, d, t, pair)
                        worst = max(
                            worst,
                            abs(abs(rho[ing.coherence_cell]) - ing.z_abs),
                            abs(rho[ing.b_cell].real - ing.b),
                            abs(rho[ing.c_cell].real - ing.c),
                        )
    report(10, worst <= 1e-9,
           f"detuned validation: max |entry - formula| over Delta/G in {{0.5, 1, 2}} "
           f"= {worst:.3e} (tol 1e-09)")
