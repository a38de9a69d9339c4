import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from conftest import concurrence, entry_matrices, lattice_states, pair_matrices, route_stack
from jcpairs import JCParams
from jcpairs.dynamics import FAMILY_KINDS, live_rows
from jcpairs.entanglement import _SIGMA_YY, PAIR_LABELS
from jcpairs.jcmodel import site_hamiltonian
from jcpairs.linalg import ALL_ROWS, SUBSYSTEMS, _reduction_plan, pair_entries
from reference import initial_amplitudes, total_hamiltonian

# every ordered pair of distinct subsystems
KEEPS = [(x, y) for x in SUBSYSTEMS for y in SUBSYSTEMS if x != y]


def reduce_one(psi, keep, **kwargs):
    """The 4x4 density of one pair of one amplitude tensor (d_A, d_a, d_B, d_b)."""
    return pair_matrices(psi.reshape(16, 1), [keep], **kwargs)[0, 0]


def test_kron_matches_index_formula(res_params, det_params):
    # the lattice Hamiltonian on factors (Aa, Bb): H[(i1,i2),(j1,j2)] = H_Aa[i1,j1] d(i2,j2) + d(i1,j1) H_Bb[i2,j2]
    h_aa, h_bb = site_hamiltonian(res_params), site_hamiltonian(det_params)
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
    psi = lattice_states("phi", route_stack("analytic", "phi", [0.6], [0.7], res_params))[..., 0, 0]
    oracle = np.zeros((4, 4), dtype=complex)
    for ka in range(2):
        for kb in range(2):
            v = psi[:, ka, :, kb].reshape(4)
            oracle += np.outer(v, v.conj())
    assert np.allclose(reduce_one(psi, ("A", "B")), oracle, atol=1e-13)
    # the doubly-excited cavity slice is empty only for the psi family
    psi_family = lattice_states("psi", route_stack("analytic", "psi", [0.6], [0.7], res_params))[..., 0, 0]
    assert np.max(np.abs(psi_family[:, 1, :, 1])) <= 1e-14
    assert np.max(np.abs(psi[:, 1, :, 1])) > 1e-3


def test_partial_trace_reductions_are_density_matrices(res_params):
    for kind in ("phi", "psi"):
        rho = pair_matrices(route_stack("analytic", kind, [0.5], [0.0, 0.9, 2.3], res_params),
                            ("AB", "ab", "Aa", "Bb", "Ab", "Ba"), live=live_rows(kind))
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


_SITE = JCParams(omega0=5.0, omega=5.6, g=0.8)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@given(
    route=st.sampled_from(["analytic", "numeric"]),
    kind=st.sampled_from(FAMILY_KINDS),
    keeps=st.lists(st.sampled_from(KEEPS), min_size=1, max_size=len(KEEPS), unique=True),
    alphas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    ts=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
)
def test_all_pair_reduction_matches_one_pair_reductions(route, kind, keeps, alphas, ts):
    psi, live = route_stack(route, kind, alphas, ts, _SITE), live_rows(kind)
    states = lattice_states(kind, psi)
    entries = pair_entries(psi, keeps, live=live).copy()
    assert entries.shape == (len(keeps), 6, len(alphas), len(ts))
    for slot, keep in enumerate(keeps):
        # the same bits as reducing the pair alone, whatever else is reduced with it
        assert np.array_equal(_bits(entries[slot]), _bits(pair_entries(psi, [keep], live=live)[0]))
        # the X entries, and the zeros of the entries off the X pattern, which are not formed
        assert np.max(np.abs(entry_matrices(entries[slot]) - reference.pair_density(states, keep))) <= 1e-15
    # the products of the live rows alone give the values of every product
    # of the whole lattice states: a skipped product is an exact zero (only
    # the sign of a zero may differ)
    full = pair_entries(states.reshape((16,) + states.shape[4:]), keeps)
    for ours, theirs in ((entries.real, full.real), (entries.imag, full.imag)):
        assert np.array_equal(ours, theirs)
        assert np.array_equal(_bits(ours[ours != 0]), _bits(theirs[theirs != 0]))
    # labels may also be given as two-letter strings
    assert np.array_equal(_bits(pair_entries(psi, ["".join(k) for k in keeps], live=live)), _bits(entries))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_the_reduction_multiplies_only_rows_of_the_support(kind):
    # a stack holds only the family's live rows: 38 (phi) or 30 (psi)
    # products of the 144 of a full reduction's X entries, no entry off the
    # X pattern has one, and each reads the stack row of its lattice row
    live = live_rows(kind)
    tables, left, right, _, place, off_x = _reduction_plan(PAIR_LABELS, live)
    assert left.size == right.size == {"phi": 38, "psi": 30}[kind]
    assert set(left) | set(right) == set(range(len(live))) and off_x is None
    assert _reduction_plan(PAIR_LABELS, ALL_ROWS)[1].size == 6 * 6 * 4
    rng = np.random.default_rng(len(live))
    stack = rng.standard_normal((len(live), 3)) + 1j * rng.standard_normal((len(live), 3))
    full = np.zeros((16, 3), dtype=complex)
    full[list(live)] = stack
    assert np.array_equal(pair_entries(stack, PAIR_LABELS, live=live), pair_entries(full, PAIR_LABELS))
