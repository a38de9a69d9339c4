"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from conftest import closed_sampler, random_x_state
from jcpairs import (
    PAIR_LABELS,
    HamiltonianPropagator,
    InitialFamily,
    JCParams,
    dressed_data,
    esd_boundary_phi_AB,
    evolve_analytic,
    phi_offres_ingredients,
    prepare_initial,
    psi_offres_ingredients,
    q_identity_lhs,
    resonance_values,
    total_hamiltonian,
    wootters_concurrence,
    xstate_concurrence,
    zero_intervals,
)
from jcpairs.entanglement import off_x_defect
from jcpairs.linalg import partial_trace

PARAMS = JCParams(omega0=5.0, omega=5.0, g=1.0)
RABI = PARAMS.rabi(1)
ALPHA_GRID = np.linspace(0.0, np.pi / 2, 21)
GT_GRID = np.linspace(0.0, 4 * np.pi, 41)
FAMILIES = ("phi", "psi")


def report(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def tables():
    """Engine and closed-form concurrences over the acceptance grid.

    Returns per family: C[engine][pair][ia, it] plus the worst X defect and
    fast-path/general gap encountered across every reduction.
    """
    data = {}
    propagator = HamiltonianPropagator(total_hamiltonian(PARAMS, PARAMS, n_max=1))
    for kind in FAMILIES:
        conc = {
            eng: {label: np.empty((ALPHA_GRID.size, GT_GRID.size)) for label in PAIR_LABELS}
            for eng in ("closed", "analytic", "numeric")
        }
        max_x_defect = 0.0
        max_fastpath_gap = 0.0
        for ia, alpha in enumerate(ALPHA_GRID):
            family = InitialFamily(kind, alpha)
            psi0 = prepare_initial(family)
            for it, gt in enumerate(GT_GRID):
                t = gt / RABI
                closed = resonance_values(kind, alpha, RABI, t)
                state_a = evolve_analytic(family, PARAMS, t)
                state_n = propagator.evolve(psi0, t)
                for label in PAIR_LABELS:
                    keep = (label[0], label[1])
                    rho_a = partial_trace(state_a, keep)
                    rho_n = partial_trace(state_n, keep)
                    res_a = wootters_concurrence(rho_a)
                    res_n = wootters_concurrence(rho_n)
                    conc["closed"][label][ia, it] = closed.concurrence[label]
                    conc["analytic"][label][ia, it] = res_a.value
                    conc["numeric"][label][ia, it] = res_n.value
                    for rho, res in ((rho_a, res_a), (rho_n, res_n)):
                        max_x_defect = max(max_x_defect, off_x_defect(rho))
                        max_fastpath_gap = max(
                            max_fastpath_gap, abs(xstate_concurrence(rho).value - res.value)
                        )
        data[kind] = {
            "conc": conc,
            "x_defect": max_x_defect,
            "fastpath_gap": max_fastpath_gap,
        }
    return data


def test_criterion_01_engine_agreement(tables):
    worst = max(
        float(np.max(np.abs(d["conc"]["analytic"][label] - d["conc"]["numeric"][label])))
        for d in tables.values()
        for label in PAIR_LABELS
    )
    report(1, worst <= 1e-9,
           f"engine agreement: max |C_analytic - C_numeric| = {worst:.3e} (tol 1e-09)")


def test_criterion_02_closed_form_agreement(tables):
    worst = 0.0
    for d in tables.values():
        for label in PAIR_LABELS:
            closed = d["conc"]["closed"][label]
            worst = max(
                worst,
                float(np.max(np.abs(closed - d["conc"]["analytic"][label]))),
                float(np.max(np.abs(closed - d["conc"]["numeric"][label]))),
            )
    report(2, worst <= 1e-9,
           f"closed-form agreement: max |C_closed - C_engine| = {worst:.3e} (tol 1e-09)")


def test_criterion_03_psi_conservation(tables):
    target = np.abs(np.sin(2 * ALPHA_GRID))[:, None]
    worst = 0.0
    for engine in ("closed", "analytic", "numeric"):
        total = tables["psi"]["conc"][engine]["AB"] + tables["psi"]["conc"][engine]["ab"]
        worst = max(worst, float(np.max(np.abs(total - target))))
    report(3, worst <= 1e-12,
           f"psi conservation: max |C_AB + C_ab - |sin 2a|| = {worst:.3e} (tol 1e-12)")


def test_criterion_04_psi_cross_pair_bound(tables):
    c_ab = tables["psi"]["conc"]["analytic"]["Ab"]
    peak = float(c_ab.max())
    ia, it = np.unravel_index(int(c_ab.argmax()), c_ab.shape)
    at_expected = math.isclose(ALPHA_GRID[ia], np.pi / 4, abs_tol=1e-12) and math.isclose(
        GT_GRID[it] % np.pi, np.pi / 2, abs_tol=1e-9
    )
    ok = abs(peak - 0.5) <= 1e-9 and at_expected
    report(4, ok,
           f"psi C_Ab bound: grid max = {peak:.12f} at alpha = {ALPHA_GRID[ia]:.6f}, "
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


def test_criterion_07_shift_and_pair_symmetries(tables):
    # Gt grid step is pi/10, so t + pi/G is 10 cells over
    shift_gap = 0.0
    sym_gap = 0.0
    local_gap = 0.0
    for kind in FAMILIES:
        conc = tables[kind]["conc"]["analytic"]
        shift_gap = max(
            shift_gap, float(np.max(np.abs(conc["ab"][:, 10:] - conc["AB"][:, :-10])))
        )
        sym_gap = max(sym_gap, float(np.max(np.abs(conc["Ba"] - conc["Ab"]))))
    local_gap = float(
        np.max(np.abs(tables["phi"]["conc"]["analytic"]["Aa"]
                      - tables["phi"]["conc"]["analytic"]["Bb"]))
    )
    ok = shift_gap <= 1e-10 and sym_gap <= 1e-12 and local_gap <= 1e-12
    report(7, ok,
           f"shift symmetry: max |C_ab(t + pi/G) - C_AB(t)| = {shift_gap:.3e} (tol 1e-10); "
           f"|C_Ba - C_Ab| = {sym_gap:.3e}, phi |C_Aa - C_Bb| = {local_gap:.3e} (tol 1e-12)")


def test_criterion_08_x_form_universality(tables):
    x_defect = max(d["x_defect"] for d in tables.values())
    fast_gap = max(d["fastpath_gap"] for d in tables.values())
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rho = random_x_state(rng)
        fast_gap = max(
            fast_gap, abs(xstate_concurrence(rho).value - wootters_concurrence(rho).value)
        )
    ok = x_defect <= 1e-10 and fast_gap <= 1e-10
    report(8, ok,
           f"X-form universality: max off-X entry = {x_defect:.3e}, "
           f"max |C_fast - C_general| = {fast_gap:.3e} (tol 1e-10, incl. 1000 random X states)")


def test_criterion_09_q_identity():
    # the Q combination is constant in t and equals |sin 2 alpha| / 2
    ts = np.linspace(0.0, 2 * np.pi / RABI, 100)
    max_std = 0.0
    max_gap = 0.0
    for kind in FAMILIES:
        for alpha in np.linspace(0.0, np.pi / 2, 10):
            vals = np.array([q_identity_lhs(kind, alpha, RABI, t) for t in ts])
            max_std = max(max_std, float(vals.std()))
            max_gap = max(max_gap, abs(float(vals.mean()) - 0.5 * abs(math.sin(2 * alpha))))
    ok = max_std <= 1e-12 and max_gap <= 1e-12
    report(9, ok,
           f"Q identity: max std over t = {max_std:.3e}, "
           f"max |mean - |sin 2a|/2| = {max_gap:.3e} (tol 1e-12)")


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
