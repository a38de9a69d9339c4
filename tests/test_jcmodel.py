import math

import numpy as np
import pytest

import reference
from conftest import excitation_numbers
from jcpairs import JCParams
from jcpairs.dynamics import _site_rates
from jcpairs.jcmodel import site_hamiltonian
from reference import total_hamiltonian


def test_params_validation():
    with pytest.raises(ValueError):
        JCParams(omega0=5.0, omega=5.0, g=0.0)
    with pytest.raises(ValueError):
        JCParams(omega0=-1.0, omega=5.0, g=1.0)
    assert JCParams(omega0=5.0, omega=6.0, g=0.5).detuning == pytest.approx(1.0)


@pytest.mark.parametrize("omega, g", [(5.0, 1e308), (1.7e308, 8e307)])
def test_params_reject_an_overflowing_splitting(omega, g):
    # 2g = inf in the first, hypot(Delta, 2g) = inf in the second
    with pytest.raises(ValueError, match=r"splitting hypot\(omega - omega0, 2g\) overflows"):
        JCParams(omega0=5.0, omega=omega, g=g)
    assert math.isfinite(JCParams(omega0=5.0, omega=1e308, g=1.0).rabi(1))


@pytest.mark.parametrize("field", ["omega0", "omega", "g"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(field, value):
    values = {"omega0": 5.0, "omega": 5.0, "g": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        JCParams(**values)


def assert_site_rates_match_eigh(params):
    # the three phase rates and the dressed weights of the analytic route
    # against eigh of the (|e,0>, |g,1>) block: the upper level pairs with
    # (sin, cos) of the half mixing angle for this detuning-sign convention
    (up, down, ground), (sin2, cos2, sin_cos) = _site_rates(params)
    h = site_hamiltonian(params)
    w, v = np.linalg.eigh(h[np.ix_([0, 3], [0, 3])])
    upper, lower = np.abs(v[:, 1]), np.abs(v[:, 0])
    assert np.allclose([sin2, cos2, sin_cos], [upper[0] ** 2, upper[1] ** 2, upper[0] * upper[1]],
                       rtol=0, atol=1e-12)
    assert np.allclose(lower, upper[::-1], rtol=0, atol=1e-12)
    assert np.allclose([1j * up, 1j * down, 1j * ground], [w[1], w[0], h[2, 2]], rtol=0, atol=1e-12)


def test_dressed_resonance():
    p = JCParams(omega0=5.0, omega=5.0, g=1.0)
    assert p.splitting == math.hypot(0.0, 2.0) == 2.0
    assert np.allclose(_site_rates(p)[1], 0.5, rtol=0, atol=1e-15)
    assert_site_rates_match_eigh(p)


def test_dressed_detuned(det_params):
    assert det_params.detuning == pytest.approx(1.0)
    assert det_params.rabi(1) == pytest.approx(1.0)
    assert det_params.splitting == math.hypot(det_params.detuning, det_params.rabi(1))
    assert det_params.splitting == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # cos(theta) = Delta / splitting
    sin2, cos2, _ = _site_rates(det_params)[1]
    assert cos2 - sin2 == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert math.sqrt(cos2) == pytest.approx(0.923880, abs=1e-6)
    assert math.sqrt(sin2) == pytest.approx(0.382683, abs=1e-6)
    assert_site_rates_match_eigh(det_params)


def test_dressed_rabi_scaling():
    assert JCParams(omega0=3.0, omega=4.0, g=0.7).rabi(4) == pytest.approx(4 * 0.7)


def test_dressed_invariants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = JCParams(omega0=rng.uniform(1, 10), omega=rng.uniform(1, 10), g=rng.uniform(0.1, 2))
        # positive finite floats are equal only with the same bits
        assert p.splitting == math.hypot(p.detuning, p.rabi(1))
        assert p.splitting > 0  # g > 0 forces a gap
        sin2, cos2, _ = _site_rates(p)[1]
        assert sin2 + cos2 == pytest.approx(1.0, abs=1e-14)
        assert_site_rates_match_eigh(p)


def test_dressed_vs_block_diagonalization(det_params):
    p = det_params
    block = np.array([[p.omega0 / 2, p.g], [p.g, p.omega - p.omega0 / 2]])
    w = np.linalg.eigvalsh(block)
    assert w[1] - w[0] == pytest.approx(p.splitting, abs=1e-12)


def test_site_hamiltonian_resonance_splitting():
    p = JCParams(omega0=5.0, omega=5.0, g=1.0)
    h = site_hamiltonian(p)
    block = h[np.ix_([0, 3], [0, 3])]  # (|e,0>, |g,1>)
    w = np.linalg.eigvalsh(block)
    assert w[1] - w[0] == pytest.approx(2 * p.g, abs=1e-12)


def test_site_hamiltonian_ground_state():
    p = JCParams(omega0=5.0, omega=6.0, g=0.5)
    h = site_hamiltonian(p)
    g0 = np.zeros(4)
    g0[2] = 1.0  # |g,0>
    assert h[2, 2] == pytest.approx(-p.omega0 / 2)
    assert np.allclose(h @ g0, -p.omega0 / 2 * g0, atol=0)


def test_site_hamiltonian_eigenvectors_match_mixing(det_params):
    # the n=1 eigenvectors carry the half-angle components of the analytic
    # route at either sign of the detuning
    for params in (det_params, JCParams(omega0=6.0, omega=5.0, g=0.5)):
        assert_site_rates_match_eigh(params)


def test_site_hamiltonian_conserves_excitation():
    # on the Fock ladder of the lattice oracle, and on the one-photon levels
    p = JCParams(omega0=5.0, omega=6.0, g=0.5)
    for h, n_ph in ((reference.site_hamiltonian(p, 3), 4), (site_hamiltonian(p), 2)):
        exc = np.array([(1 - atom) + k for atom in range(2) for k in range(n_ph)])
        n_op = np.diag(exc.astype(float))
        assert np.max(np.abs(h @ n_op - n_op @ h)) <= 1e-12


def test_total_hamiltonian_structure(res_params, det_params):
    # the lattice oracle builds its sites on its own: the one-photon site is
    # its Fock ladder's levels (e,0), (e,1), (g,0), (g,1), with the same bits
    for n_max in (1, 2, 4):
        levels = [0, 1, n_max + 1, n_max + 2]
        for params in (res_params, det_params):
            ladder = reference.site_hamiltonian(params, n_max)
            assert np.array_equal(ladder[np.ix_(levels, levels)], site_hamiltonian(params))
    h = total_hamiltonian(res_params, det_params, n_max=1)
    assert h.shape == (16, 16)
    h_a = site_hamiltonian(res_params)
    h_b = site_hamiltonian(det_params)
    left = np.kron(h_a, np.eye(4))
    right = np.kron(np.eye(4), h_b)
    assert np.max(np.abs(left @ right - right @ left)) <= 1e-12
    # spectrum is all pairwise sums of the site spectra
    w = np.sort(np.linalg.eigvalsh(h))
    sums = np.sort(np.add.outer(np.linalg.eigvalsh(h_a), np.linalg.eigvalsh(h_b)).reshape(-1))
    assert np.allclose(w, sums, atol=1e-10)


def test_total_hamiltonian_conserves_excitation(det_params):
    h = total_hamiltonian(det_params, det_params, n_max=2)
    n_op = np.diag(excitation_numbers(2).astype(float))
    assert np.max(np.abs(h @ n_op - n_op @ h)) <= 1e-12
