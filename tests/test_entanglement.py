import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from conftest import concurrence, entry_values, lattice_states, pair_matrices, route_stack, upper_entries
from jcpairs import PAIR_LABELS, GridEngine
from jcpairs.checks import random_x_states
from jcpairs.dynamics import live_rows
from jcpairs.entanglement import pair_values
from jcpairs.linalg import ALL_ROWS


def bell_phi_plus():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def both_routes(rho):
    """C of every cell by the X entries and by the general Wootters route."""
    return entry_values(rho)[0], concurrence(rho)[0]


def test_bell_state_concurrence_is_one():
    for conc in both_routes(bell_phi_plus()):
        assert conc == pytest.approx(1.0, abs=1e-12)
    assert reference.wootters(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)


def test_product_states_have_zero_concurrence():
    rng = np.random.default_rng(21)
    states = []
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
        states.append(np.outer(psi, psi.conj()))
    conc, q = concurrence(np.array(states))  # random product states are not X-shaped: the general route
    assert np.all(np.isnan(q))
    assert np.max(conc) <= 1e-12


def test_x_matrix_example_value():
    rho = np.diag([0.3, 0.2, 0.2, 0.3]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.25
    expected = 2 * (0.25 - math.sqrt(0.2 * 0.2))
    fast, general = both_routes(rho)
    assert general == pytest.approx(expected, abs=1e-12)
    assert fast == pytest.approx(expected, abs=1e-14)
    assert entry_values(rho)[1] == pytest.approx(expected / 2, abs=1e-14)


def test_xstate_pure_corner_coherence():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.3
    conc, q = entry_values(rho)
    assert conc == pytest.approx(0.6, abs=1e-14)
    assert q == pytest.approx(0.3, abs=1e-14)


def test_phi_bell_quarter_rabi_q_value(res_params):
    # alpha = pi/4, Gt = pi/2: Q^AB = (1/2)(1/2)(1 - 1/2) = 0.125, C^AB = 0.25
    t = (np.pi / 2) / res_params.rabi(1)
    values = GridEngine("analytic", "phi", res_params).values([np.pi / 4], [t], ["AB"])
    assert values.q[0, 0, 0] == pytest.approx(0.125, abs=1e-12)
    assert values.concurrence[0, 0, 0] == pytest.approx(0.25, abs=1e-12)


def test_random_x_states_fast_path_matches_general():
    states, rows = random_x_states(np.random.default_rng(42), 1000)
    fast, q = pair_values(states, ["AB"], live=rows)
    general, general_q = pair_values(states, ["AB"], live=rows, general=True)
    assert not np.isnan(q).any() and np.isnan(general_q).all()
    assert np.max(np.abs(fast - general)) <= 1e-10
    full = np.zeros((16, 1000), dtype=complex)
    full[list(rows)] = states
    rhos = reference.pair_density(full.reshape(2, 2, 2, 2, -1), "AB")
    assert np.max(np.abs(fast[:, 0] - [reference.wootters(rho) for rho in rhos])) <= 1e-10


def test_invalid_density_matrices_are_named():
    good = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    with pytest.raises(ValueError, match="trace"):
        entry_values(2 * good)
    with pytest.raises(ValueError, match="PSD"):
        entry_values(np.diag([0.6, 0.6, 0.0, -0.2]).astype(complex))


def test_x_read_of_a_full_stack_is_refused_naming_the_pair():
    # every pair of a full 16-row stack has products off the X pattern: the
    # first requested pair is named, before any cell is read (a NaN cell
    # would fail the trace check)
    stack = np.full((16, 3), np.nan, dtype=complex)
    for pairs in (["AB"], ["Ab", "AB"], [("a", "B")]):
        with pytest.raises(ValueError, match=f"^the X reader refuses pair {''.join(pairs[0])}: "):
            pair_values(stack, pairs, live=ALL_ROWS)
    # the family's live rows have none, whatever the requested pairs
    for kind in ("phi", "psi"):
        live = live_rows(kind)
        pair_values(np.full((len(live), 1), len(live) ** -0.5), PAIR_LABELS, live=live)


def test_all_pairwise_initial_phi():
    alphas = np.array([0.0, 0.3, np.pi / 4, 1.2])
    live = live_rows("phi")
    initial = reference.initial_amplitudes("phi", alphas).reshape(16, -1)[list(live)]
    conc, _ = pair_values(initial, PAIR_LABELS, live=live)
    assert np.max(np.abs(conc[:, 0] - np.abs(np.sin(2 * alphas)))) <= 1e-12
    assert np.max(conc[:, 1:]) <= 1e-12


def test_all_pairwise_phi_half_period(res_params):
    # after half a Rabi period the atom-atom entanglement sits on the cavities
    alpha = 0.5
    rabi = res_params.rabi(1)
    t = np.pi / rabi
    conc = GridEngine("analytic", "phi", res_params).values([alpha], [t]).concurrence[0, 0]
    assert conc[PAIR_LABELS.index("ab")] == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-12)
    closed, _ = reference.phi_resonance(alpha, rabi, t)
    assert conc[PAIR_LABELS.index("AB")] == pytest.approx(closed["AB"], abs=1e-12)


def test_all_pairwise_psi_quarter_period(res_params):
    t = (np.pi / 2) / res_params.rabi(1)
    values = GridEngine("analytic", "psi", res_params).values([np.pi / 4], [t], ["Aa", "Bb"])
    assert values.concurrence[0, 0] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_pair_symmetries(res_params):
    for kind in ("phi", "psi"):
        values = GridEngine("analytic", kind, res_params).values([0.2, 0.9], np.linspace(0.0, 3.0, 7))
        c = dict(zip(PAIR_LABELS, np.moveaxis(values.concurrence, -1, 0)))
        assert np.max(np.abs(c["Ba"] - c["Ab"])) <= 1e-12
        if kind == "phi":
            assert np.max(np.abs(c["Aa"] - c["Bb"])) <= 1e-12


def test_reductions_stay_x_form(res_params, det_params):
    # the reader forms no entry off the X pattern: the independent einsum
    # reduction of the whole lattice states has every one exactly zero
    off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
    for params in (res_params, det_params):
        for kind in ("phi", "psi"):
            psi = lattice_states(kind, route_stack("analytic", kind, [0.7], np.linspace(0.0, 4.0, 9), params))
            for pair in PAIR_LABELS:
                rho = reference.pair_density(psi, pair)
                assert np.max(np.abs(rho)) > 0.1 and not rho[..., off_x].any()


def test_results_are_consistent(res_params):
    # the entry-read C is the textbook Wootters C of the same reduction; range respected
    psi, live = route_stack("analytic", "phi", [0.45], np.linspace(0.0, 3.0, 7), res_params), live_rows("phi")
    rho = pair_matrices(psi, PAIR_LABELS, live=live)
    conc, q = pair_values(psi, PAIR_LABELS, live=live)
    assert not np.isnan(q).any()  # every reduction here is X-form
    assert np.all((-1e-12 <= conc) & (conc <= 1 + 1e-12))
    # the textbook route takes square roots of eigenvalues that round-off
    # leaves near zero, so it sits up to about 1e-8 off at rank-deficient cells
    for cell in np.ndindex(conc.shape):
        assert conc[cell] == pytest.approx(reference.wootters(rho[cell]), abs=1e-7)


def _nudge(x, ulps):
    """x moved by ``ulps`` units in the last place (toward +inf when positive)."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.copysign(math.inf, ulps))
    return float(x)


diagonals = st.sampled_from((-1.5e-8, -1e-8, -2e-9, -1e-9, -5e-10, 0.0)) | st.floats(-3e-9, 0.5)


@given(
    block=st.sampled_from((0, 1)),
    a=diagonals,
    d=diagonals,
    lowest=st.sampled_from((-1e-8, -5e-9, -4e-9, 0.0)) | st.floats(-2e-8, 1e-9),
    ulps=st.integers(-6, 6),
    trace=st.sampled_from((0.0, 1e-8, -1e-8, 5e-9)),
    trace_ulps=st.integers(-6, 6),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@example(block=0, a=0.3, d=0.2, lowest=-1e-8, ulps=0, trace=0.0, trace_ulps=0, phase=0.0)
@example(block=1, a=0.25, d=0.25, lowest=-4e-9, ulps=0, trace=1e-8, trace_ulps=1, phase=1.0)
@example(block=0, a=-1e-8, d=0.5, lowest=-1e-8, ulps=-1, trace=0.0, trace_ulps=0, phase=0.0)
def test_x_reader_rejects_at_the_tolerances_as_the_oracle(block, a, d, lowest, ulps, trace, trace_ulps, phase):
    # One X block has diagonal (a, d) and a coherence that puts its lower
    # eigenvalue at `lowest`, moved by a few ulp; the other block takes the
    # rest of a trace of 1 + `trace`, moved by a few ulp.  The reader must
    # accept or reject the cell as the oracle does, with its error text.
    modulus = math.sqrt(max(0.0, (0.5 * (a + d) - lowest) ** 2 - (0.5 * (a - d)) ** 2))
    coherence = _nudge(modulus, ulps) * complex(math.cos(phase), math.sin(phase))
    rest = _nudge(1.0 + trace - a - d, trace_ulps)
    rows = ((0, 3), (1, 2))[block]
    others = ((0, 3), (1, 2))[1 - block]
    rho = np.zeros((4, 4), dtype=complex)
    rho[rows, rows] = a, d
    rho[others, others] = 0.5 * rest
    rho[rows[0], rows[1]], rho[rows[1], rows[0]] = coherence, coherence.conjugate()
    expected = reference.x_rejection(upper_entries(rho))
    if expected is None:
        entry_values(rho)
    else:
        with pytest.raises(ValueError) as error:
            entry_values(rho)
        assert str(error.value) == expected
