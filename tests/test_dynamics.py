import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import excitation_numbers
from jcpairs import GridEngine, JCParams, site_hamiltonian
from jcpairs.dynamics import HamiltonianPropagator, analytic_amplitudes, initial_amplitudes
from jcpairs.entanglement import pair_values


EPS = np.finfo(float).eps


def norms(psi):
    """Norm of every cell of a cells-last amplitude stack."""
    return np.sqrt(np.sum(np.abs(psi) ** 2, axis=(0, 1, 2, 3)))


def test_family_validation(res_params):
    with pytest.raises(ValueError, match="kind"):
        GridEngine("analytic", "chi", res_params)
    for engine in ("closed", "analytic", "numeric"):
        with pytest.raises(ValueError, match=r"^n_max must be >= 1, got 0$"):
            GridEngine(engine, "phi", res_params, n_max=0)


def test_prepare_phi_alpha_zero():
    psi = initial_amplitudes("phi", 0.0)
    expected = np.zeros(16)
    expected[0] = 1.0  # |e,0,e,0>
    assert np.array_equal(psi.reshape(-1), expected)


def test_prepare_phi_bell():
    psi = initial_amplitudes("phi", [np.pi / 4])
    assert norms(psi)[0] == pytest.approx(1.0, abs=1e-15)
    conc, _ = pair_values(psi, ["AB"])
    assert conc[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_prepare_psi_amplitudes():
    psi = initial_amplitudes("psi", np.pi / 3)
    assert psi[0, 0, 1, 0] == pytest.approx(0.5)
    assert psi[1, 0, 0, 0] == pytest.approx(math.sin(np.pi / 3))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)


def test_evolve_analytic_t0_equals_initial(res_params):
    assert np.allclose(analytic_amplitudes("psi", [0.8], [0.0], res_params)[..., 0],
                       initial_amplitudes("psi", [0.8]), atol=1e-15)


def test_evolve_analytic_half_rabi_swap(res_params):
    # at t = pi/G the site excitation moves from the atom to its cavity
    alpha = 0.6
    t = np.pi / res_params.rabi(1)
    psi = analytic_amplitudes("phi", [alpha], [t], res_params)[..., 0, 0]
    assert abs(psi[1, 1, 1, 1]) == pytest.approx(math.cos(alpha), abs=1e-12)
    assert abs(psi[0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(psi[1, 0, 1, 0]) == pytest.approx(math.sin(alpha), abs=1e-12)


def site_propagator(params, n_max=1):
    """The numeric route's propagator of the lattice of two ``params`` sites."""
    return HamiltonianPropagator(site_hamiltonian(params, n_max))


def test_engines_agree_on_amplitudes(det_params):
    propagator = site_propagator(det_params)
    alphas, ts = [0.0, 0.4, 1.2], [0.3, 1.7, 6.1]
    for kind in ("phi", "psi"):
        ana = analytic_amplitudes(kind, alphas, ts, det_params).reshape(16, -1)
        num = propagator.evolve_grid(initial_amplitudes(kind, alphas), ts).reshape(16, -1)
        for a, n in zip(ana.T, num.T):
            assert 1.0 - abs(np.vdot(a, n)) <= 1e-12
            # align the global phase on the largest amplitude, then compare
            i = int(np.argmax(np.abs(a)))
            phase = n[i] / a[i]
            phase /= abs(phase)
            assert np.max(np.abs(a * phase - n)) <= 1e-10


def test_evolve_grid_matches_the_reference_propagator(det_params):
    # against exp(-i H_site t) (x) exp(-i H_site t) by reference.evolve on each
    # site's basis states: the full-lattice oracle's own phase drift,
    # eps ||H|| per unit time, reaches 1.4e-13 by t = 20 (see
    # test_detuned_sites_match_the_lattice_oracle for that oracle)
    for n_max in (1, 3):
        h_site = site_hamiltonian(det_params, n_max)
        eye = np.eye(h_site.shape[0])
        ts = np.linspace(0.0, 20.0, 9)
        for kind in ("phi", "psi"):
            psi0 = initial_amplitudes(kind, [0.3, 2.1], n_max)
            grid = site_propagator(det_params, n_max).evolve_grid(psi0, ts)
            for it, t in enumerate(ts):
                u = np.array([reference.evolve(h_site, column, t) for column in eye]).T
                for ia in range(2):
                    expected = np.kron(u, u) @ psi0[..., ia].reshape(-1)
                    assert np.max(np.abs(grid[..., ia, it].reshape(-1) - expected)) <= 1e-13


@st.composite
def detuned_sites(draw):
    """A site with omega0 in [6.5, 9], g in [0.25, 1.5] and a nonzero detuning in [-2G, 2G]."""
    omega0, g = draw(st.floats(6.5, 9.0)), draw(st.floats(0.25, 1.5))
    detuning = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from((-1.0, 1.0))) * 2.0 * g
    return JCParams(omega0=omega0, omega=omega0 + detuning, g=g)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(kind=st.sampled_from(("phi", "psi")), site=detuned_sites(),
       n_max=st.integers(1, 4), alpha_list=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       n_t=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=6),
       fraction=st.floats(0.0, 1.0), data=st.data())
def test_detuned_sites_match_the_lattice_oracle(kind, site, n_max, alpha_list, n_t, cuts, fraction, data):
    # two copies of a detuned site against the full-lattice eigh oracle at
    # the first, a drawn and the last time (its phases drift by about
    # eps ||H|| per unit time, so the budget grows with t); any split of the
    # times, one-cell calls included, gives the bits of one call
    h_site = site_hamiltonian(site, n_max)
    propagator = HamiltonianPropagator(h_site)
    ts = np.linspace(0.0, fraction * 50.0 / site.rabi(1), n_t)
    psi0 = initial_amplitudes(kind, alpha_list, n_max)
    whole = propagator.evolve_grid(psi0, ts).copy()
    h = reference.total_hamiltonian(site, site, n_max)
    norms = 2.0 * np.linalg.norm(h_site, 2)
    ia, it = data.draw(st.integers(0, len(alpha_list) - 1)), data.draw(st.integers(0, n_t - 1))
    for t_index in sorted({0, it, n_t - 1}):
        t = ts[t_index]
        budget = 1e-13 + 4.0 * EPS * norms * t
        for a_index in range(len(alpha_list)):
            expected = reference.evolve(h, psi0[..., a_index].reshape(-1), t)
            assert np.max(np.abs(whole[..., a_index, t_index].reshape(-1) - expected)) <= budget
    parts = [propagator.evolve_grid(psi0, part).copy()
             for part in np.split(ts, sorted({c for c in cuts if c < n_t}))]
    assert np.array_equal(_bits(np.concatenate(parts, axis=-1)), _bits(whole))
    cell = propagator.evolve_grid(psi0[..., ia:ia + 1], ts[it:it + 1])
    assert np.array_equal(_bits(cell[..., 0, 0]), _bits(whole[..., ia, it]))


def test_propagator_rejects_a_non_hermitian_site(res_params):
    skewed = site_hamiltonian(res_params, 1)
    skewed[0, 1] += 1e-9
    with pytest.raises(ValueError, match="site Hamiltonian is not Hermitian: asymmetry 1.000e-09"):
        HamiltonianPropagator(skewed)


def test_evolve_numeric_identity_and_composition(res_params):
    propagator = site_propagator(res_params)
    psi0 = initial_amplitudes("phi", [0.7])
    assert np.allclose(propagator.evolve_grid(psi0, [0.0])[..., 0], psi0, atol=1e-14)
    one_shot = propagator.evolve_grid(psi0, [1.3 + 0.9])
    two_step = propagator.evolve_grid(propagator.evolve_grid(psi0, [1.3])[..., 0], [0.9])
    assert np.max(np.abs(one_shot - two_step)) <= 1e-11


def test_norm_preserved_both_engines(det_params):
    prop = site_propagator(det_params)
    ts = np.linspace(0.0, 12.0, 25)
    assert np.max(np.abs(norms(analytic_amplitudes("psi", [0.5], ts, det_params)) - 1.0)) <= 1e-12
    assert np.max(np.abs(norms(prop.evolve_grid(initial_amplitudes("psi", [0.5]), ts)) - 1.0)) <= 1e-12


def test_evolve_numeric_rejects_dimension_mismatch(res_params):
    with pytest.raises(ValueError, match="dimension mismatch"):
        site_propagator(res_params, 2).evolve_grid(initial_amplitudes("phi", [0.5], n_max=1), [1.0])


def test_excitation_sectors_preserved(det_params):
    # phi lives in total-excitation sectors {0, 2}; psi in sector {1}
    exc = excitation_numbers(2)
    allowed = {"phi": (0, 2), "psi": (1,)}
    for kind in ("phi", "psi"):
        psi = site_propagator(det_params, 2).evolve_grid(initial_amplitudes(kind, [0.9], n_max=2), [3.7])
        outside = ~np.isin(exc, allowed[kind])
        assert float(np.sum(np.abs(psi.reshape(-1)[outside]) ** 2)) <= 1e-12


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
