import math

import numpy as np
import pytest

from conftest import excitation_numbers
from jcpairs import JCParams
from jcpairs.jcmodel import dressed_data, site_hamiltonian, total_hamiltonian


def test_params_validation():
    with pytest.raises(ValueError):
        JCParams(omega0=5.0, omega=5.0, g=0.0)
    with pytest.raises(ValueError):
        JCParams(omega0=-1.0, omega=5.0, g=1.0)
    assert JCParams(omega0=5.0, omega=6.0, g=0.5).detuning == pytest.approx(1.0)


@pytest.mark.parametrize("field", ["omega0", "omega", "g"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(field, value):
    values = {"omega0": 5.0, "omega": 5.0, "g": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        JCParams(**values)


def test_dressed_resonance():
    d = dressed_data(JCParams(omega0=5.0, omega=5.0, g=1.0), 1)
    assert d.rabi == pytest.approx(2.0)
    assert d.cos_half == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert d.sin_half == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert d.splitting == pytest.approx(2.0)


def test_dressed_detuned(det_params):
    d = dressed_data(det_params, 1)
    assert det_params.detuning == pytest.approx(1.0)
    assert d.rabi == pytest.approx(1.0)
    assert d.splitting == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # cos(theta) = Delta / splitting
    assert d.cos_half**2 - d.sin_half**2 == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert d.cos_half == pytest.approx(0.923880, abs=1e-6)
    assert d.sin_half == pytest.approx(0.382683, abs=1e-6)


def test_dressed_rabi_scaling():
    d = dressed_data(JCParams(omega0=3.0, omega=4.0, g=0.7), 4)
    assert d.rabi == pytest.approx(4 * 0.7)


def test_dressed_rejects_ground_manifold():
    with pytest.raises(ValueError, match="ground"):
        dressed_data(JCParams(omega0=5.0, omega=5.0, g=1.0), 0)


def test_dressed_invariants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = JCParams(omega0=rng.uniform(1, 10), omega=rng.uniform(1, 10), g=rng.uniform(0.1, 2))
        n = int(rng.integers(1, 5))
        d = dressed_data(p, n)
        assert d.cos_half**2 + d.sin_half**2 == pytest.approx(1.0, abs=1e-14)
        assert d.splitting == pytest.approx(np.hypot(p.detuning, d.rabi), abs=1e-12)
        assert d.splitting > 0  # g > 0 forces a gap


def test_dressed_vs_block_diagonalization(det_params):
    d = dressed_data(det_params, 1)
    p = det_params
    block = np.array([[p.omega0 / 2, p.g], [p.g, p.omega - p.omega0 / 2]])
    w = np.linalg.eigvalsh(block)
    assert w[1] - w[0] == pytest.approx(d.splitting, abs=1e-12)


def test_site_hamiltonian_resonance_splitting():
    p = JCParams(omega0=5.0, omega=5.0, g=1.0)
    h = site_hamiltonian(p, n_max=1)
    block = h[np.ix_([0, 3], [0, 3])]  # (|e,0>, |g,1>)
    w = np.linalg.eigvalsh(block)
    assert w[1] - w[0] == pytest.approx(2 * p.g, abs=1e-12)


def test_site_hamiltonian_ground_state():
    p = JCParams(omega0=5.0, omega=6.0, g=0.5)
    h = site_hamiltonian(p, n_max=1)
    g0 = np.zeros(4)
    g0[2] = 1.0  # |g,0>
    assert h[2, 2] == pytest.approx(-p.omega0 / 2)
    assert np.allclose(h @ g0, -p.omega0 / 2 * g0, atol=0)


def test_site_hamiltonian_eigenvectors_match_mixing(det_params):
    # the n=1 eigenvectors carry components {cos_half, sin_half}; the upper
    # level pairs with (sin_half, cos_half) for this detuning-sign convention
    d = dressed_data(det_params, 1)
    h = site_hamiltonian(det_params, n_max=1)
    block = h[np.ix_([0, 3], [0, 3])]
    w, v = np.linalg.eigh(block)
    upper, lower = np.abs(v[:, 1]), np.abs(v[:, 0])
    assert np.allclose(upper, [d.sin_half, d.cos_half], atol=1e-12)
    assert np.allclose(lower, [d.cos_half, d.sin_half], atol=1e-12)


def test_site_hamiltonian_conserves_excitation():
    p = JCParams(omega0=5.0, omega=6.0, g=0.5)
    h = site_hamiltonian(p, n_max=3)
    n_ph = 4
    exc = np.array([(1 - atom) + k for atom in range(2) for k in range(n_ph)])
    n_op = np.diag(exc.astype(float))
    assert np.max(np.abs(h @ n_op - n_op @ h)) <= 1e-12


def test_total_hamiltonian_structure(res_params, det_params):
    h = total_hamiltonian(res_params, det_params, n_max=1)
    assert h.shape == (16, 16)
    h_a = site_hamiltonian(res_params, 1)
    h_b = site_hamiltonian(det_params, 1)
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
