import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import concurrence, entry_matrices, pair_matrices
from jcpairs import JCParams
from jcpairs.dynamics import FAMILY_KINDS, HamiltonianPropagator, analytic_amplitudes, initial_amplitudes
from jcpairs.entanglement import _SIGMA_YY
from jcpairs.jcmodel import site_hamiltonian
from jcpairs.linalg import SUBSYSTEMS, pair_entries
from reference import total_hamiltonian

# every ordered pair of distinct subsystems
KEEPS = [(x, y) for x in SUBSYSTEMS for y in SUBSYSTEMS if x != y]


def reduce_one(psi, keep, **kwargs):
    """The 4x4 density of one pair of one amplitude tensor (d_A, d_a, d_B, d_b)."""
    return pair_matrices(psi[..., None], [keep], **kwargs)[0, 0]


def test_kron_matches_index_formula(res_params, det_params):
    # the lattice Hamiltonian on factors (Aa, Bb): H[(i1,i2),(j1,j2)] = H_Aa[i1,j1] d(i2,j2) + d(i1,j1) H_Bb[i2,j2]
    h_aa, h_bb = site_hamiltonian(res_params, 1), site_hamiltonian(det_params, 1)
    h = total_hamiltonian(res_params, det_params, n_max=1)
    for i1, i2, j1, j2 in np.ndindex(4, 4, 4, 4):
        expected = h_aa[i1, j1] * (i2 == j2) + (i1 == j1) * h_bb[i2, j2]
        assert h[4 * i1 + i2, 4 * j1 + j2] == pytest.approx(expected, abs=1e-15)


def test_kron_sigma_y_pair():
    # the spin flip of the general Wootters route
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    assert np.array_equal(_SIGMA_YY, expected)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert np.array_equal(np.kron(sigma_y, sigma_y), expected)


def test_partial_trace_product_state():
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    psi[0, 0, 1, 0] = 1.0  # |e>_A |0>_a |g>_B |0>_b
    rho = reduce_one(psi, ("A", "B"))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |e g><e g|
    assert np.allclose(rho, expected, atol=1e-14)


def test_partial_trace_initial_local_pair():
    psi = initial_amplitudes("phi", np.pi / 4)
    rho = reduce_one(psi, ("A", "a"))
    # atom maximally mixed, cavity in vacuum: diag over (e0, g0)
    assert np.allclose(rho, np.diag([0.0, 0.5, 0.0, 0.5]), atol=1e-14)
    assert concurrence(rho)[0] == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_matches_projection_sum(res_params):
    # independent oracle: sum the projected cavity slices by hand
    psi = analytic_amplitudes("phi", [0.6], [0.7], res_params)[..., 0, 0]
    oracle = np.zeros((4, 4), dtype=complex)
    for ka in range(2):
        for kb in range(2):
            v = psi[:, ka, :, kb].reshape(4)
            oracle += np.outer(v, v.conj())
    assert np.allclose(reduce_one(psi, ("A", "B")), oracle, atol=1e-13)
    # the doubly-excited cavity slice is empty only for the psi family
    psi_family = analytic_amplitudes("psi", [0.6], [0.7], res_params)[..., 0, 0]
    assert np.max(np.abs(psi_family[:, 1, :, 1])) <= 1e-14
    assert np.max(np.abs(psi[:, 1, :, 1])) > 1e-3


def test_partial_trace_reductions_are_density_matrices(res_params):
    for kind in ("phi", "psi"):
        rho = pair_matrices(analytic_amplitudes(kind, [0.5], [0.0, 0.9, 2.3], res_params),
                            ("AB", "ab", "Aa", "Bb", "Ab", "Ba"))
        assert np.max(np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0)) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def test_partial_trace_keep_order():
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi = (amps / np.linalg.norm(amps)).reshape(2, 2, 2, 2)
    rho_ab = reduce_one(psi, ("A", "B"))
    rho_ba = reduce_one(psi, ("B", "A"))
    swapped = rho_ab.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    assert np.allclose(rho_ba, swapped, atol=1e-14)


def test_partial_trace_cavity_leakage_rejected():
    psi = np.zeros((2, 3, 2, 3), dtype=complex)
    psi[1, 2, 1, 0] = 1.0  # two photons in cavity a
    with pytest.raises(ValueError, match="above one photon"):
        reduce_one(psi, ("A", "a"))
    # tracing the leaking cavity out is fine
    rho = reduce_one(psi, ("A", "B"))
    assert rho.trace().real == pytest.approx(1.0, abs=1e-12)


@functools.lru_cache(maxsize=None)
def _propagator(n_max):
    return HamiltonianPropagator(JCParams(omega0=5.0, omega=5.6, g=0.8), n_max)


def _amplitude_stack(route, kind, n_max, alphas, ts):
    """(2, n_max+1, 2, n_max+1, n_alpha, n_t) amplitudes of one evolution route.

    The analytic route's n_max = 1 tensors are embedded in the larger Fock
    space with empty higher levels.
    """
    if route == "numeric":
        return _propagator(n_max).evolve_grid(initial_amplitudes(kind, alphas, n_max), ts)
    params = JCParams(omega0=5.0, omega=5.6, g=0.8)
    psi = np.zeros((2, n_max + 1, 2, n_max + 1, len(alphas), len(ts)), dtype=complex)
    psi[:, :2, :, :2] = analytic_amplitudes(kind, alphas, ts, params)
    return psi


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(
    route=st.sampled_from(["analytic", "numeric"]),
    kind=st.sampled_from(FAMILY_KINDS),
    n_max=st.integers(1, 4),
    keeps=st.lists(st.sampled_from(KEEPS), min_size=1, max_size=len(KEEPS), unique=True),
    alphas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    ts=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
)
def test_all_pair_reduction_matches_one_pair_reductions(route, kind, n_max, keeps, alphas, ts):
    psi = _amplitude_stack(route, kind, n_max, alphas, ts)
    entries = pair_entries(psi, keeps)
    assert entries.shape == (len(keeps), 10, len(alphas), len(ts))
    for slot, keep in enumerate(keeps):
        # the same bits as reducing the pair alone, whatever else is reduced with it
        assert np.array_equal(_bits(entries[slot]), _bits(pair_entries(psi, [keep])[0]))
        assert np.max(np.abs(entry_matrices(entries[slot]) - reference.pair_density(psi, keep))) <= 1e-15
    # labels may also be given as two-letter strings
    assert np.array_equal(_bits(pair_entries(psi, ["".join(k) for k in keeps])), _bits(entries))


def test_leakage_error_names_the_first_leaking_cavity_and_its_largest_population():
    # two cells at n_max = 2: cavity a holds 0.3 and then 0.45 above one photon, cavity b 0.2
    psi = np.zeros((2, 2, 3, 2, 3), dtype=complex)
    psi[0, 0, 0, 1, 0], psi[0, 1, 2, 0, 0] = np.sqrt(0.7), np.sqrt(0.3)
    psi[1, 0, 0, 1, 0], psi[1, 1, 2, 0, 0] = np.sqrt(0.35), np.sqrt(0.45)
    psi[1, 1, 1, 0, 2] = np.sqrt(0.2)
    cells_last = np.moveaxis(psi, 0, -1)
    leak_a = float(np.max(np.sum(np.abs(psi[:, :, 2:]) ** 2, axis=(1, 2, 3, 4))))
    leak_b = float(np.max(np.sum(np.abs(psi[..., 2:]) ** 2, axis=(1, 2, 3, 4))))
    message = ("cavity {} holds probability {:.3e} above one photon at cell (1,) (tolerance 1.000e-10); "
               "cannot reduce to a qubit")
    # the cavities are checked in the order their labels first appear in the pairs
    for keeps, label, leak in (
        (["ab"], "a", leak_a),
        (["Ab", "ab"], "b", leak_b),
        (["AB", "Ba", "Bb"], "a", leak_a),
        (["bB", "Aa"], "b", leak_b),
    ):
        with pytest.raises(ValueError) as err:
            pair_entries(cells_last, keeps)
        assert str(err.value) == message.format(label, leak)
    for keep, label, leak in ((("A", "a"), "a", leak_a), (("b", "B"), "b", leak_b)):
        with pytest.raises(ValueError) as err:
            pair_entries(cells_last, [keep])
        assert str(err.value) == message.format(label, leak)
    # the worst cell is named: cavity a leaks in both cells, most in the second
    assert message.format("a", leak_a).startswith("cavity a holds probability 4.500e-01 above one photon at cell (1,)")
    # cells on two axes: the worst is named by its index along each
    grid = np.zeros(cells_last.shape[:4] + (2, 3), dtype=complex)
    grid[..., 1, 2] = cells_last[..., 1]
    with pytest.raises(ValueError, match=r"above one photon at cell \(1, 2\) "):
        pair_entries(grid, ["ab"])
    # tracing both cavities out needs no projection
    assert pair_entries(cells_last, ["AB"]).shape == (1, 10, 2)
