import math

import numpy as np
import pytest

from jcpairs import (
    HamiltonianPropagator,
    InitialFamily,
    all_pairwise,
    evolve_analytic,
    prepare_initial,
    total_excitation_numbers,
    total_hamiltonian,
)


def test_family_validation():
    with pytest.raises(ValueError, match="kind"):
        InitialFamily("chi", 0.3)
    with pytest.raises(ValueError, match="finite"):
        InitialFamily("phi", float("nan"))


def test_prepare_phi_alpha_zero():
    state = prepare_initial(InitialFamily("phi", 0.0))
    expected = np.zeros(16)
    expected[0] = 1.0  # |e,0,e,0>
    assert np.allclose(state.amplitudes, expected, atol=0)
    assert state.time == 0.0


def test_prepare_phi_bell():
    state = prepare_initial(InitialFamily("phi", np.pi / 4))
    assert state.norm() == pytest.approx(1.0, abs=1e-15)
    assert all_pairwise(state)["AB"].value == pytest.approx(1.0, abs=1e-12)


def test_prepare_psi_amplitudes():
    state = prepare_initial(InitialFamily("psi", np.pi / 3))
    psi = state.tensor()
    assert psi[0, 0, 1, 0] == pytest.approx(0.5)
    assert psi[1, 0, 0, 0] == pytest.approx(math.sin(np.pi / 3))
    assert state.norm() == pytest.approx(1.0, abs=1e-15)


def test_evolve_analytic_t0_equals_initial(res_params):
    fam = InitialFamily("psi", 0.8)
    assert np.allclose(
        evolve_analytic(fam, res_params, 0.0).amplitudes,
        prepare_initial(fam).amplitudes,
        atol=1e-15,
    )


def test_evolve_analytic_half_rabi_swap(res_params):
    # at t = pi/G the site excitation moves from the atom to its cavity
    alpha = 0.6
    t = np.pi / res_params.rabi(1)
    psi = evolve_analytic(InitialFamily("phi", alpha), res_params, t).tensor()
    assert abs(psi[1, 1, 1, 1]) == pytest.approx(math.cos(alpha), abs=1e-12)
    assert abs(psi[0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(psi[1, 0, 1, 0]) == pytest.approx(math.sin(alpha), abs=1e-12)


def test_engines_agree_on_amplitudes(det_params):
    propagator = HamiltonianPropagator(total_hamiltonian(det_params, det_params, 1))
    for kind in ("phi", "psi"):
        for alpha in (0.0, 0.4, 1.2):
            fam = InitialFamily(kind, alpha)
            psi0 = prepare_initial(fam)
            for t in (0.3, 1.7, 6.1):
                ana = evolve_analytic(fam, det_params, t)
                num = propagator.evolve(psi0, t)
                assert 1.0 - abs(np.vdot(ana.amplitudes, num.amplitudes)) <= 1e-12
                # align the global phase on the largest amplitude, then compare
                i = int(np.argmax(np.abs(ana.amplitudes)))
                phase = num.amplitudes[i] / ana.amplitudes[i]
                phase /= abs(phase)
                assert np.max(np.abs(ana.amplitudes * phase - num.amplitudes)) <= 1e-10


def test_evolve_numeric_identity_and_composition(res_params):
    propagator = HamiltonianPropagator(total_hamiltonian(res_params, res_params, 1))
    state = prepare_initial(InitialFamily("phi", 0.7))
    assert np.allclose(propagator.evolve(state, 0.0).amplitudes, state.amplitudes, atol=1e-14)
    one_shot = propagator.evolve(state, 1.3 + 0.9)
    two_step = propagator.evolve(propagator.evolve(state, 1.3), 0.9)
    assert np.max(np.abs(one_shot.amplitudes - two_step.amplitudes)) <= 1e-11
    assert one_shot.time == pytest.approx(2.2)


def test_norm_preserved_both_engines(det_params):
    h = total_hamiltonian(det_params, det_params, 1)
    prop = HamiltonianPropagator(h)
    fam = InitialFamily("psi", 0.5)
    psi0 = prepare_initial(fam)
    for t in np.linspace(0.0, 12.0, 25):
        assert evolve_analytic(fam, det_params, t).norm() == pytest.approx(1.0, abs=1e-12)
        assert prop.evolve(psi0, t).norm() == pytest.approx(1.0, abs=1e-12)


def test_evolve_numeric_rejects_dimension_mismatch(res_params):
    h = total_hamiltonian(res_params, res_params, 2)
    state = prepare_initial(InitialFamily("phi", 0.5), n_max=1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        HamiltonianPropagator(h).evolve(state, 1.0)


def test_excitation_sectors_preserved(det_params):
    # phi lives in total-excitation sectors {0, 2}; psi in sector {1}
    h = total_hamiltonian(det_params, det_params, 2)
    exc = total_excitation_numbers(2)
    allowed = {"phi": (0, 2), "psi": (1,)}
    for kind in ("phi", "psi"):
        psi0 = prepare_initial(InitialFamily(kind, 0.9), n_max=2)
        state = HamiltonianPropagator(h).evolve(psi0, 3.7)
        outside = ~np.isin(exc, allowed[kind])
        assert float(np.sum(np.abs(state.amplitudes[outside]) ** 2)) <= 1e-12


def test_cross_engine_concurrences(res_params):
    fam = InitialFamily("phi", np.pi / 4)
    h = total_hamiltonian(res_params, res_params, 1)
    t = np.pi / res_params.rabi(1)
    res_a = all_pairwise(evolve_analytic(fam, res_params, t))
    res_n = all_pairwise(HamiltonianPropagator(h).evolve(prepare_initial(fam), t))
    for label, result in res_a.items():
        assert result.value == pytest.approx(res_n[label].value, abs=1e-10)


def test_resonance_period(res_params):
    period = 2 * np.pi / res_params.rabi(1)
    for kind in ("phi", "psi"):
        fam = InitialFamily(kind, 0.55)
        for t in np.linspace(0.0, period, 9):
            now = all_pairwise(evolve_analytic(fam, res_params, t))
            later = all_pairwise(evolve_analytic(fam, res_params, t + period))
            for label in now:
                assert now[label].value == pytest.approx(later[label].value, abs=1e-10)


def test_atom_cavity_shift_symmetry(res_params):
    # the cavity pair repeats the atom pair half a Rabi period later
    shift = np.pi / res_params.rabi(1)
    for kind in ("phi", "psi"):
        fam = InitialFamily(kind, 0.4)
        for t in np.linspace(0.0, 2.5, 11):
            c_ab_later = all_pairwise(evolve_analytic(fam, res_params, t + shift))["ab"].value
            c_atoms_now = all_pairwise(evolve_analytic(fam, res_params, t))["AB"].value
            assert c_ab_later == pytest.approx(c_atoms_now, abs=1e-10)
