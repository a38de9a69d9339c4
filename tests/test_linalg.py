import numpy as np
import pytest

from jcpairs import InitialFamily, evolve_analytic, prepare_initial, wootters_concurrence
from jcpairs.dynamics import FourPartiteState
from jcpairs.linalg import SIGMA_Y, kron, partial_trace, sqrt_psd


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_sigma_y_pair():
    syy = kron(SIGMA_Y, SIGMA_Y)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    assert np.allclose(syy, expected, atol=0)


def test_kron_matches_index_formula():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = kron(a, b)
    # naive elementwise oracle
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert got[2 * i1 + i2, 2 * j1 + j2] == pytest.approx(
                        a[i1, j1] * b[i2, j2], abs=1e-15
                    )


def test_kron_associative_and_bilinear():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
        assert np.allclose(kron(a + b, c), kron(a, c) + kron(b, c), atol=1e-12)
        assert np.allclose(kron(a, b + c), kron(a, b) + kron(a, c), atol=1e-12)


def test_sqrt_psd_reconstruction_and_trace():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = x @ x.conj().T
        r = sqrt_psd(m)
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12
        assert np.allclose(r @ r, m, atol=1e-10)
        assert (r @ r).trace().real == pytest.approx(m.trace().real, abs=1e-10)
        # the root's eigenvalues are the roots of the matrix's, in the same order
        assert np.allclose(np.linalg.eigvalsh(r) ** 2, np.linalg.eigvalsh(m), atol=1e-10)


def test_sqrt_psd_rejects_asymmetry():
    m = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="asymmetry"):
        sqrt_psd(m)


def test_sqrt_psd_identity_and_diagonal():
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)


def test_sqrt_psd_multiply_back():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = x.conj().T @ x
        r = sqrt_psd(m)
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(r)) >= -1e-12
        assert np.max(np.abs(r @ r - m)) <= 1e-9


def test_sqrt_psd_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="PSD"):
        sqrt_psd(np.diag([1.0, -1e-6]))


def test_partial_trace_product_state():
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    psi[0, 0, 1, 0] = 1.0  # |e>_A |0>_a |g>_B |0>_b
    state = FourPartiteState(dims=psi.shape, amplitudes=psi.reshape(-1))
    rho = partial_trace(state, ("A", "B"))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |e g><e g|
    assert np.allclose(rho, expected, atol=1e-14)


def test_partial_trace_initial_local_pair():
    state = prepare_initial(InitialFamily("phi", np.pi / 4))
    rho = partial_trace(state, ("A", "a"))
    # atom maximally mixed, cavity in vacuum: diag over (e0, g0)
    assert np.allclose(rho, np.diag([0.0, 0.5, 0.0, 0.5]), atol=1e-14)
    assert wootters_concurrence(rho).value == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_matches_projection_sum(res_params):
    # independent oracle: sum the projected cavity slices by hand
    state = evolve_analytic(InitialFamily("phi", 0.6), res_params, 0.7)
    psi = state.amplitudes.reshape(state.dims)
    oracle = np.zeros((4, 4), dtype=complex)
    for ka in range(2):
        for kb in range(2):
            v = psi[:, ka, :, kb].reshape(4)
            oracle += np.outer(v, v.conj())
    assert np.allclose(partial_trace(state, ("A", "B")), oracle, atol=1e-13)
    # the doubly-excited cavity slice is empty only for the psi family
    psi_state = evolve_analytic(InitialFamily("psi", 0.6), res_params, 0.7)
    assert np.max(np.abs(psi_state.amplitudes.reshape(psi_state.dims)[:, 1, :, 1])) <= 1e-14
    assert np.max(np.abs(psi[:, 1, :, 1])) > 1e-3


def test_partial_trace_reductions_are_density_matrices(res_params):
    for kind in ("phi", "psi"):
        for t in (0.0, 0.9, 2.3):
            state = evolve_analytic(InitialFamily(kind, 0.5), res_params, t)
            for keep in (("A", "B"), ("a", "b"), ("A", "a"), ("B", "b"), ("A", "b"), ("B", "a")):
                rho = partial_trace(state, keep)
                assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
                assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_partial_trace_keep_order():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    state = FourPartiteState(dims=(2, 2, 2, 2), amplitudes=amps)
    rho_ab = partial_trace(state, ("A", "B"))
    rho_ba = partial_trace(state, ("B", "A"))
    swapped = rho_ab.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(rho_ba, swapped, atol=1e-14)


def test_partial_trace_cavity_leakage_rejected():
    psi = np.zeros((2, 3, 2, 3), dtype=complex)
    psi[1, 2, 1, 0] = 1.0  # two photons in cavity a
    state = FourPartiteState(dims=psi.shape, amplitudes=psi.reshape(-1))
    with pytest.raises(ValueError, match="above one photon"):
        partial_trace(state, ("A", "a"))
    # tracing the leaking cavity out is fine
    rho = partial_trace(state, ("A", "B"))
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_labels():
    state = prepare_initial(InitialFamily("phi", 0.3))
    with pytest.raises(ValueError, match="distinct"):
        partial_trace(state, ("A", "A"))
    with pytest.raises(ValueError, match="unknown"):
        partial_trace(state, ("A", "x"))
