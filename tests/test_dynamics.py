import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import jcpairs.dynamics as dynamics
import reference
from conftest import excitation_numbers, lattice_states, route_stack
from jcpairs import GridEngine, JCParams
from jcpairs.dynamics import FAMILY_KINDS, HamiltonianPropagator, amplitudes, live_rows
from jcpairs.entanglement import pair_values
from jcpairs.jcmodel import site_hamiltonian
from reference import initial_amplitudes


EPS = np.finfo(float).eps


ROUTES = ("analytic", "numeric")


def norms(stack):
    """Norm of every cell of a cells-last amplitude stack (rows, *cells)."""
    return np.sqrt(np.sum(np.abs(stack) ** 2, axis=0))


def test_family_validation(res_params):
    for engine in ("closed", "analytic", "numeric"):
        with pytest.raises(ValueError, match="kind"):
            GridEngine(engine, "chi", res_params)


def test_prepare_phi_alpha_zero():
    psi = initial_amplitudes("phi", 0.0)
    expected = np.zeros(16)
    expected[0] = 1.0  # |e,0,e,0>
    assert np.array_equal(psi.reshape(-1), expected)


def test_prepare_phi_bell():
    live = live_rows("phi")
    psi = initial_amplitudes("phi", [np.pi / 4]).reshape(16, 1)[list(live)]
    assert norms(psi)[0] == pytest.approx(1.0, abs=1e-15)
    conc, _ = pair_values(psi, ["AB"], live=live)
    assert conc[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_prepare_psi_amplitudes():
    psi = initial_amplitudes("psi", np.pi / 3)
    assert psi[0, 0, 1, 0] == pytest.approx(0.5)
    assert psi[1, 0, 0, 0] == pytest.approx(math.sin(np.pi / 3))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)


def test_evolve_analytic_t0_equals_initial(res_params):
    assert np.allclose(lattice_states("psi", route_stack("analytic", "psi", [0.8], [0.0], res_params))[..., 0],
                       initial_amplitudes("psi", [0.8]), atol=1e-15)


def test_evolve_analytic_half_rabi_swap(res_params):
    # at t = pi/G the site excitation moves from the atom to its cavity
    alpha = 0.6
    t = np.pi / res_params.rabi(1)
    psi = lattice_states("phi", route_stack("analytic", "phi", [alpha], [t], res_params))[..., 0, 0]
    assert abs(psi[1, 1, 1, 1]) == pytest.approx(math.cos(alpha), abs=1e-12)
    assert abs(psi[0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(psi[1, 0, 1, 0]) == pytest.approx(math.sin(alpha), abs=1e-12)


def test_engines_agree_on_amplitudes(det_params):
    propagator = HamiltonianPropagator(det_params)
    alphas, ts = [0.0, 0.4, 1.2], [0.3, 1.7, 6.1]
    for kind in ("phi", "psi"):
        ana = route_stack("analytic", kind, alphas, ts, det_params).reshape(len(live_rows(kind)), -1)
        num = amplitudes(kind, alphas, ts, propagator.site_factors).reshape(len(live_rows(kind)), -1)
        for a, n in zip(ana.T, num.T):
            assert 1.0 - abs(np.vdot(a, n)) <= 1e-12
            # align the global phase on the largest amplitude, then compare
            i = int(np.argmax(np.abs(a)))
            phase = n[i] / a[i]
            phase /= abs(phase)
            assert np.max(np.abs(a * phase - n)) <= 1e-10


def in_fock_space(psi, n_max):
    """One-photon amplitude tensors (2, 2, 2, 2, ...) embedded in the site Fock ladder of ``n_max`` photons."""
    out = np.zeros((2, n_max + 1, 2, n_max + 1) + psi.shape[4:], dtype=complex)
    out[:, :2, :, :2] = psi
    return out


def test_evolve_grid_matches_the_reference_propagator(res_params, det_params):
    # each route's stack, scattered into all 16 lattice rows, against
    # exp(-i H_site t) (x) exp(-i H_site t) by reference.evolve on each basis
    # state of the site's Fock ladder: an amplitude on a row the stack does
    # not hold would show here.  The full-lattice oracle's own phase drift,
    # eps ||H|| per unit time, reaches 1.4e-13 by t = 20 (see
    # test_detuned_sites_match_the_lattice_oracle for that oracle)
    ts = np.linspace(0.0, 20.0, 9)
    for params, n_max in itertools.product((res_params, det_params), (1, 3)):
        h_site = reference.site_hamiltonian(params, n_max)
        u = [np.array([reference.evolve(h_site, column, t) for column in np.eye(h_site.shape[0])]).T for t in ts]
        for route, kind in itertools.product(ROUTES, FAMILY_KINDS):
            psi0 = initial_amplitudes(kind, [0.3, 2.1])
            grid = in_fock_space(lattice_states(kind, route_stack(route, kind, [0.3, 2.1], ts, params)), n_max)
            for it, ia in itertools.product(range(len(ts)), range(2)):
                expected = np.kron(u[it], u[it]) @ in_fock_space(psi0[..., ia], n_max).reshape(-1)
                assert np.max(np.abs(grid[..., ia, it].reshape(-1) - expected)) <= 1e-13


@st.composite
def detuned_sites(draw):
    """A site with omega0 in [6.5, 9], g in [0.25, 1.5] and a nonzero detuning in [-2G, 2G]."""
    omega0, g = draw(st.floats(6.5, 9.0)), draw(st.floats(0.25, 1.5))
    detuning = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from((-1.0, 1.0))) * 2.0 * g
    return JCParams(omega0=omega0, omega=omega0 + detuning, g=g)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(route=st.sampled_from(ROUTES), kind=st.sampled_from(FAMILY_KINDS), site=detuned_sites(),
       n_max=st.integers(1, 4), alpha_list=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       n_t=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=6),
       fraction=st.floats(0.0, 1.0), data=st.data())
def test_detuned_sites_match_the_lattice_oracle(route, kind, site, n_max, alpha_list, n_t, cuts, fraction, data):
    # two copies of a detuned site against the full-lattice eigh oracle on
    # the Fock ladder of n_max photons per site at the first, a drawn and the
    # last time, the route's stack scattered into all 16 lattice rows (the
    # oracle's phases drift by about eps ||H|| per unit time, so the budget
    # grows with t); any split of the times, one-cell calls included, gives
    # the bits of one call
    h_site = reference.site_hamiltonian(site, n_max)
    ts = np.linspace(0.0, fraction * 50.0 / site.rabi(1), n_t)
    psi0 = initial_amplitudes(kind, alpha_list)
    whole = route_stack(route, kind, alpha_list, ts, site).copy()
    states = lattice_states(kind, whole)
    h = reference.total_hamiltonian(site, site, n_max)
    norms = 2.0 * np.linalg.norm(h_site, 2)
    ia, it = data.draw(st.integers(0, len(alpha_list) - 1)), data.draw(st.integers(0, n_t - 1))
    for t_index in sorted({0, it, n_t - 1}):
        t = ts[t_index]
        budget = 1e-13 + 4.0 * EPS * norms * t
        for a_index in range(len(alpha_list)):
            expected = reference.evolve(h, in_fock_space(psi0[..., a_index], n_max).reshape(-1), t)
            got = in_fock_space(states[..., a_index, t_index], n_max).reshape(-1)
            assert np.max(np.abs(got - expected)) <= budget
    parts = [route_stack(route, kind, alpha_list, part, site).copy()
             for part in np.split(ts, sorted({c for c in cuts if c < n_t}))]
    assert np.array_equal(_bits(np.concatenate(parts, axis=-1)), _bits(whole))
    cell = route_stack(route, kind, alpha_list[ia:ia + 1], ts[it:it + 1], site)
    assert np.array_equal(_bits(cell[..., 0, 0]), _bits(whole[..., ia, it]))


def test_evolve_numeric_identity_and_composition(res_params):
    # the state at t = 0 is the initial one; at 1.3 + 0.9 it is the lattice
    # oracle's evolution by 0.9 of the state at 1.3
    def state(t):
        return lattice_states("phi", route_stack("numeric", "phi", [0.7], [t], res_params))[..., 0, 0]

    assert np.allclose(state(0.0), initial_amplitudes("phi", 0.7), atol=1e-14)
    two_step = reference.evolve(reference.total_hamiltonian(res_params, res_params), state(1.3).reshape(-1), 0.9)
    assert np.max(np.abs(state(1.3 + 0.9).reshape(-1) - two_step)) <= 1e-11


def test_norm_preserved_both_engines(det_params):
    ts = np.linspace(0.0, 12.0, 25)
    for route in ROUTES:
        assert np.max(np.abs(norms(route_stack(route, "psi", [0.5], ts, det_params)) - 1.0)) <= 1e-12


def test_excitation_sectors_preserved(det_params):
    # phi lives in total-excitation sectors {0, 2}; psi in sector {1}: the
    # rows its stack holds lie there, and the lattice oracle's state puts
    # nothing on a row the stack does not hold
    exc = excitation_numbers(1)
    allowed = {"phi": (0, 2), "psi": (1,)}
    h = reference.total_hamiltonian(det_params, det_params)
    for kind in FAMILY_KINDS:
        live = list(live_rows(kind))
        assert np.isin(exc[live], allowed[kind]).all()
        exact = reference.evolve(h, initial_amplitudes(kind, 0.9).reshape(-1), 3.7)
        assert np.max(np.abs(np.delete(exact, live))) <= 1e-14


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_the_spectrum_is_exactly_block_diagonal_by_manifold(n_max, res_params, det_params):
    # V on the one-photon levels (e,0), (e,1), (g,0), (g,1): the blocks
    # {(g,0)} and {(e,0), (g,1)}, exact zeros elsewhere, and V V^dag the
    # identity on the populated levels.  Those blocks of the Fock ladder of
    # n_max photons have the same entries, so eigh gives their (w, V) the
    # propagator's bits at every n_max.
    blocks = np.zeros((4, 4), dtype=bool)
    blocks[2, 2] = True
    blocks[np.ix_([0, 3], [0, 3])] = True
    for params in (res_params, det_params):
        propagator = HamiltonianPropagator(params)
        assert not propagator._v[~blocks].any() and propagator._w[1] == 0.0
        assert np.allclose(propagator._v @ propagator._v.conj().T, np.diag([1.0, 0.0, 1.0, 1.0]), atol=1e-15)
        ladder = reference.site_hamiltonian(params, n_max)
        for levels, rows in (([2], [n_max + 1]), ([0, 3], [0, n_max + 2])):  # (g,0); (e,0), (g,1)
            w, v = np.linalg.eigh(ladder[np.ix_(rows, rows)])
            assert np.array_equal(w, propagator._w[levels])
            assert np.array_equal(v, propagator._v[np.ix_(levels, levels)])


@pytest.mark.parametrize("levels", [(1, 2), (0, 1)], ids=["counter-rotating", "e0-e1"])
def test_a_site_coupling_a_populated_block_out_is_refused(levels, monkeypatch, det_params):
    # the counter-rotating g (|e,1><g,0| + h.c.) and g (|e,0><e,1| + h.c.)
    # each couple a populated block to (e,1), which the route would not see
    def coupled(params):
        h = site_hamiltonian(params)
        h[levels] = h[levels[::-1]] = params.g
        return h

    monkeypatch.setattr(dynamics, "site_hamiltonian", coupled)
    with pytest.raises(ValueError, match=re.escape(f"the site Hamiltonian at {det_params!r}: ")):
        GridEngine("numeric", "phi", det_params)


def test_cross_engine_concurrences(res_params):
    t = np.pi / res_params.rabi(1)
    res_a, res_n = (GridEngine(engine, "phi", res_params).values([np.pi / 4], [t]).concurrence
                    for engine in ("analytic", "numeric"))
    assert np.max(np.abs(res_a - res_n)) <= 1e-10


def test_resonance_period(res_params):
    period = 2 * np.pi / res_params.rabi(1)
    ts = np.linspace(0.0, period, 9)
    for kind in ("phi", "psi"):
        engine = GridEngine("analytic", kind, res_params)
        now, later = (engine.values([0.55], grid).concurrence for grid in (ts, ts + period))
        assert np.max(np.abs(now - later)) <= 1e-10


def test_atom_cavity_shift_symmetry(res_params):
    # the cavity pair repeats the atom pair half a Rabi period later
    shift = np.pi / res_params.rabi(1)
    ts = np.linspace(0.0, 2.5, 11)
    for kind in ("phi", "psi"):
        engine = GridEngine("analytic", kind, res_params)
        c_ab_later = engine.values([0.4], ts + shift, ["ab"]).concurrence
        c_atoms_now = engine.values([0.4], ts, ["AB"]).concurrence
        assert np.max(np.abs(c_ab_later - c_atoms_now)) <= 1e-10
