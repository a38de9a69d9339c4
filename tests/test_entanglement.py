import math

import numpy as np
import pytest

from conftest import random_x_state
from jcpairs import (
    PAIR_LABELS,
    InitialFamily,
    all_pairwise,
    evolve_analytic,
    phi_resonance,
    prepare_initial,
    wootters_concurrence,
    xstate_concurrence,
)
from jcpairs.entanglement import off_x_defect


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def test_bell_state_concurrence_is_one():
    res = wootters_concurrence(bell_phi_plus())
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.zeta_eigenvalues, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_product_states_have_zero_concurrence():
    rng = np.random.default_rng(21)
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
        rho = np.outer(psi, psi.conj())
        assert wootters_concurrence(rho).value <= 1e-12


def test_x_matrix_example_value():
    rho = np.diag([0.3, 0.2, 0.2, 0.3]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.25
    expected = 2 * (0.25 - math.sqrt(0.2 * 0.2))
    assert wootters_concurrence(rho).value == pytest.approx(expected, abs=1e-12)
    fast = xstate_concurrence(rho)
    assert fast.value == pytest.approx(expected, abs=1e-14)
    assert fast.q_corner == pytest.approx(expected / 2, abs=1e-14)


def test_xstate_pure_corner_coherence():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.3
    res = xstate_concurrence(rho)
    assert res.value == pytest.approx(0.6, abs=1e-14)
    assert res.q == pytest.approx(0.3, abs=1e-14)


def test_phi_bell_quarter_rabi_q_value(res_params):
    # alpha = pi/4, Gt = pi/2: Q^AB = (1/2)(1/2)(1 - 1/2) = 0.125, C^AB = 0.25
    t = (np.pi / 2) / res_params.rabi(1)
    res = all_pairwise(evolve_analytic(InitialFamily("phi", np.pi / 4), res_params, t))["AB"]
    assert res.q_corner == pytest.approx(0.125, abs=1e-12)
    assert res.value == pytest.approx(0.25, abs=1e-12)


def test_random_x_states_fast_path_matches_general():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rho = random_x_state(rng)
        fast = xstate_concurrence(rho)
        general = wootters_concurrence(rho)
        assert fast.value == pytest.approx(general.value, abs=1e-10)


def test_xstate_rejects_off_pattern_entry():
    rho = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
    rho[0, 1] = rho[1, 0] = 1e-3
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        xstate_concurrence(rho)


def test_invalid_density_matrices_are_named():
    good = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    with pytest.raises(ValueError, match="trace"):
        wootters_concurrence(2 * good)
    bad_h = good.copy()
    bad_h[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermiticity"):
        wootters_concurrence(bad_h)
    with pytest.raises(ValueError, match="PSD"):
        wootters_concurrence(np.diag([0.6, 0.6, 0.0, -0.2]).astype(complex))


def test_all_pairwise_initial_phi():
    for alpha in (0.0, 0.3, np.pi / 4, 1.2):
        res = all_pairwise(prepare_initial(InitialFamily("phi", alpha)))
        assert res["AB"].value == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-12)
        for label in ("ab", "Aa", "Bb", "Ab", "Ba"):
            assert res[label].value <= 1e-12


def test_all_pairwise_phi_half_period(res_params):
    # after half a Rabi period the atom-atom entanglement sits on the cavities
    alpha = 0.5
    rabi = res_params.rabi(1)
    t = np.pi / rabi
    res = all_pairwise(evolve_analytic(InitialFamily("phi", alpha), res_params, t))
    assert res["ab"].value == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-12)
    closed = phi_resonance(alpha, rabi, t)
    assert res["AB"].value == pytest.approx(closed.concurrence["AB"], abs=1e-12)


def test_all_pairwise_psi_quarter_period(res_params):
    t = (np.pi / 2) / res_params.rabi(1)
    res = all_pairwise(evolve_analytic(InitialFamily("psi", np.pi / 4), res_params, t))
    assert res["Aa"].value == pytest.approx(0.5, abs=1e-12)
    assert res["Bb"].value == pytest.approx(0.5, abs=1e-12)


def test_pair_symmetries(res_params):
    for kind in ("phi", "psi"):
        for alpha in (0.2, 0.9):
            fam = InitialFamily(kind, alpha)
            for t in np.linspace(0.0, 3.0, 7):
                res = all_pairwise(evolve_analytic(fam, res_params, t))
                assert res["Ba"].value == pytest.approx(res["Ab"].value, abs=1e-12)
                if kind == "phi":
                    assert res["Aa"].value == pytest.approx(res["Bb"].value, abs=1e-12)


def test_reductions_stay_x_form(res_params, det_params):
    from jcpairs.linalg import partial_trace

    for params in (res_params, det_params):
        for kind in ("phi", "psi"):
            fam = InitialFamily(kind, 0.7)
            for t in np.linspace(0.0, 4.0, 9):
                state = evolve_analytic(fam, params, t)
                for label in PAIR_LABELS:
                    rho = partial_trace(state, (label[0], label[1]))
                    assert off_x_defect(rho) <= 1e-10


def test_results_are_consistent(res_params):
    # C reproduces the sorted sqrt-eigenvalue formula; range respected
    fam = InitialFamily("phi", 0.45)
    for t in np.linspace(0.0, 3.0, 7):
        for label, res in all_pairwise(evolve_analytic(fam, res_params, t)).items():
            roots = np.sqrt(np.clip(res.zeta_eigenvalues, 0.0, None))
            assert res.value == pytest.approx(
                max(0.0, roots[0] - roots[1] - roots[2] - roots[3]), abs=1e-10
            )
            assert np.all(np.diff(res.zeta_eigenvalues) <= 1e-15)
            assert -1e-12 <= res.value <= 1 + 1e-12
            assert res.q_corner is not None  # every reduction here is X-form
