import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import jcpairs.engine as engine_module
import reference
from conftest import (concurrence, entry_matrices, entry_values, pair_matrices, upper_entries,
                      x_densities)
from jcpairs import PAIR_LABELS, GridEngine, JCParams, site_hamiltonian
from jcpairs.cli import main
from jcpairs.dynamics import FAMILY_KINDS, HamiltonianPropagator, analytic_amplitudes, initial_amplitudes
from jcpairs.engine import ENGINES
from jcpairs.entanglement import _x_entries, _x_lowest
from reference import resonance_values, total_hamiltonian

EPS = np.finfo(float).eps
# Neither of the grid's Wootters routes takes a square root of an
# eigenvalue: the X route reads C from the entries and the general route
# from the singular values of the amplitude factor's M^T (sigma_y x sigma_y) M,
# both exact to rounding.  The textbook reference (``reference.wootters``)
# takes the roots of the eigenvalues of rho rho~, resolved to about 16 eps,
# which round-off can leave near zero, so its C moves by up to four times
# sqrt(16 eps).
WOOTTERS_BUDGET = 1e-11 + 4.0 * math.sqrt(16.0 * EPS)

kinds = st.sampled_from(FAMILY_KINDS)
alphas = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)


@st.composite
def sites(draw, resonant=False):
    """A site with g in [0.25, 1.5] and detuning in [-2G, 2G] (0 when resonant)."""
    g = draw(st.floats(0.25, 1.5))
    detuning = 0.0 if resonant else draw(st.floats(-2.0, 2.0)) * 2.0 * g
    return JCParams(omega0=7.0, omega=7.0 + detuning, g=g)


def time_grid(params, fraction):
    """Three times in [0, 50/G]: zero, half of the drawn time, the drawn time."""
    t = fraction * 50.0 / params.rabi(1)
    return np.array([0.0, 0.5 * t, t])


def scalar_results(engine, kind, alpha, params, ts, n_max):
    """Per-cell reference on the route's own amplitudes: (Q, C) of each pair, by einsum and textbook formulas.

    Q is None where the reduction is not X-shaped.
    """
    if engine == "numeric":
        site = site_hamiltonian(params, n_max)
        psi = HamiltonianPropagator(site).evolve_grid(initial_amplitudes(kind, [alpha], n_max), ts)
    else:
        psi = analytic_amplitudes(kind, [alpha], ts, params)
    out = []
    for it in range(len(ts)):
        cell = psi[..., 0, it]
        rhos = [reference.pair_density(cell, pair) for pair in PAIR_LABELS]
        out.append([(reference.x_state_q(rho) if reference.off_x(rho) <= 1e-10 else None,
                     reference.wootters(rho)) for rho in rhos])
    return out


@given(kind=kinds, alpha=alphas, params=st.one_of(sites(resonant=True), sites()),
       fraction=st.floats(0.0, 1.0), n_max=st.integers(1, 4),
       engine=st.sampled_from(("analytic", "numeric")))
# the C_Ab reduction here has eigenvalues 4.4e-16 and 1.1e-15, which a
# square root of rho through eigh would zero, moving C by 3.65e-8
@example(kind="phi", alpha=1.0, params=JCParams(7.0, 7.0, 1.0), fraction=1e-5, n_max=1,
         engine="analytic")
def test_grid_matches_scalar_path(kind, alpha, params, fraction, n_max, engine):
    ts = time_grid(params, fraction)
    grid = GridEngine(engine, kind, params, n_max=n_max)
    values = grid.values([alpha], ts)
    # x_tol < 0 sends every cell through the general Wootters route, which
    # gives no Q: a NaN on every cell shows that values passed it on
    general = grid.values([alpha], ts, x_tol=-1.0)
    assert np.isnan(general.q).all()
    assert np.max(np.abs(general.concurrence - values.concurrence)) <= 1e-14
    for it, results in enumerate(scalar_results(engine, kind, alpha, params, ts, n_max)):
        for ip, (ref_q, ref_c) in enumerate(results):
            q, conc = values.q[0, it, ip], values.concurrence[0, it, ip]
            if ref_q is None:
                assert math.isnan(q)
                assert abs(conc - ref_c) <= 1e-11
            else:
                # the entry-exact reference: Q from the entries and 2 max(0, Q)
                assert abs(q - ref_q) <= 1e-14
                assert abs(conc - 2.0 * max(0.0, ref_q)) <= 1e-11
            assert abs(conc - ref_c) <= WOOTTERS_BUDGET
            assert abs(general.concurrence[0, it, ip] - ref_c) <= WOOTTERS_BUDGET


def test_grid_c_is_exact_at_a_rank_deficient_reduction():
    # Two phi cells whose C_Ab reductions are rank-deficient: a detuned one
    # with two eigenvalues near 3e-13, and a resonant one with eigenvalues
    # 4.4e-16 and 1.1e-15, which a square root of rho through eigh would
    # zero, moving C by 3.65e-8.  The X route reads C from the entries and
    # the general route from the amplitude factor; neither takes their
    # square roots.  The reference is the Wootters formula on the same
    # reduced matrix in 50-digit arithmetic (mpmath).
    for params, alpha, t, reference_c in (
        (JCParams(omega0=6.050820918763499, omega=7.457674732047595, g=1.2264766325065353),
         0.7273963381550884, 2.2212815206411056, 0.00083408526349841758),
        (JCParams(omega0=7.0, omega=7.0, g=1.0), 1.0, 2.5e-4, 2.27287856414897548e-4),
    ):
        values = GridEngine("analytic", "phi", params).values([alpha], [t], ("Ab",))
        assert abs(values.concurrence[0, 0, 0] - reference_c) <= 1e-15
        # x_tol < 0 sends every cell through the general route
        general = GridEngine("analytic", "phi", params).values([alpha], [t], ("Ab",), x_tol=-1.0)
        assert abs(general.concurrence.item() - reference_c) <= 1e-15


@given(kind=kinds, alpha=alphas, params=sites(resonant=True), fraction=st.floats(0.0, 1.0))
def test_analytic_grid_matches_closed_form(kind, alpha, params, fraction):
    ts = time_grid(params, fraction)
    values = GridEngine("analytic", kind, params).values([alpha], ts)
    for it, t in enumerate(ts):
        closed = resonance_values(kind, alpha, params.rabi(1), t)
        for ip, pair in enumerate(PAIR_LABELS):
            assert abs(values.concurrence[0, it, ip] - closed.concurrence[pair]) <= 1e-14


@given(kind=kinds, alpha=alphas, params=sites(resonant=True), fraction=st.floats(0.0, 1.0),
       n_max=st.integers(1, 4))
def test_numeric_grid_matches_closed_form_within_phase_budget(kind, alpha, params, fraction, n_max):
    # eigh resolves each eigenvalue to about eps ||H||, so the evolved phases,
    # and C = 2 max(0, Q) with Q quadratic in the amplitudes, drift by that
    # much per unit time
    h = total_hamiltonian(params, params, n_max)
    ts = time_grid(params, fraction)
    values = GridEngine("numeric", kind, params, n_max=n_max).values([alpha], ts)
    for it, t in enumerate(ts):
        budget = 1e-14 + 4.0 * EPS * np.linalg.norm(h, 2) * t
        closed = resonance_values(kind, alpha, params.rabi(1), t)
        for ip, pair in enumerate(PAIR_LABELS):
            assert abs(values.concurrence[0, it, ip] - closed.concurrence[pair]) <= budget


@given(kind=kinds, alpha=alphas, params=sites(), fraction=st.floats(0.0, 1.0))
def test_closed_grid_matches_both_evolution_routes_at_any_detuning(kind, alpha, params, fraction):
    # Q and C of all six pairs; the numeric route also drifts by its eigh
    # phase error, as in the resonant property above
    h = total_hamiltonian(params, params, 1)
    ts = time_grid(params, fraction)
    closed = GridEngine("closed", kind, params).values([alpha], ts)
    analytic = GridEngine("analytic", kind, params).values([alpha], ts)
    numeric = GridEngine("numeric", kind, params).values([alpha], ts)
    phase_budget = 1e-13 + 4.0 * EPS * np.linalg.norm(h, 2) * ts
    for route, bound in ((analytic, np.full(ts.shape, 1e-13)), (numeric, phase_budget)):
        for ours, theirs in ((closed.concurrence, route.concurrence), (closed.q, route.q)):
            assert np.all(np.abs(ours - theirs)[0] <= bound[:, None])


@given(rows=st.integers(1, 4), cols=st.integers(1, 5), pairs=st.integers(1, 6), data=st.data())
def test_stack_names_the_non_psd_cell(rows, cols, pairs, data):
    # the engine passes (alpha, t, pair) stacks; the rejected cell is named (ia, it, ip)
    bad = tuple(data.draw(st.integers(0, n - 1)) for n in (rows, cols, pairs))
    rng = np.random.default_rng(rows * 100 + cols * 10 + pairs)
    stack = x_densities(rng, rows * cols * pairs).reshape(rows, cols, pairs, 4, 4)
    stack[bad] = np.diag([0.6, 0.6, 0.0, -0.2])
    with pytest.raises(ValueError, match=rf"not PSD.* at cell \({bad[0]}, {bad[1]}, {bad[2]}\)"):
        entry_values(stack)


def test_x_block_lowest_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(11)
    stack = x_densities(rng, 300)
    # coherences past sqrt(ad) give the stack non-PSD cells as well
    stack[::3, 0, 3] *= 3.0
    stack[::3, 3, 0] *= 3.0
    lowest = _x_lowest(_x_entries(upper_entries(stack)))
    assert (lowest < -1e-8).any()
    assert np.max(np.abs(lowest - np.linalg.eigvalsh(stack)[:, 0])) <= 1e-15


def test_stack_rejects_a_non_psd_x_cell():
    # a density from amplitudes is M M^dag, PSD by construction; entries
    # given directly are checked
    stack = x_densities(np.random.default_rng(5), 6)
    bad = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    bad[0, 3] = bad[3, 0] = 0.6  # |z| > sqrt(ad): lowest eigenvalue 0.5 - 0.6
    stack[4] = bad
    with pytest.raises(ValueError, match=r"not PSD, lowest eigenvalue -1\.000e-01 at cell \(4,\)"):
        entry_values(stack)


@pytest.mark.parametrize("engine, n_max", [("analytic", 1), ("numeric", 1), ("numeric", 3)])
def test_exactly_hermitian_stack_comes_back_with_the_same_bits(engine, n_max, det_params):
    alpha_grid, t_grid = np.linspace(0.1, 3.0, 4), np.linspace(0.0, 9.0, 11)
    if engine == "analytic":
        psi = analytic_amplitudes("psi", alpha_grid, t_grid, det_params)
    else:
        site = site_hamiltonian(det_params, n_max)
        psi = HamiltonianPropagator(site).evolve_grid(initial_amplitudes("psi", alpha_grid, n_max), t_grid)
    stack = pair_matrices(psi, PAIR_LABELS)
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))  # Hermitian by construction
    # the 10 upper entries give back the whole matrix, bit for bit
    assert np.array_equal(entry_matrices(upper_entries(stack)).view(np.uint64), stack.view(np.uint64))
    # symmetrizing gives the same values (only the sign of a zero imaginary
    # part can differ): the reducer's Hermitian matrices need no symmetrizing
    again = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    assert np.array_equal(again, stack)


@given(size=st.integers(1, 12), data=st.data())
def test_off_x_cell_takes_the_general_route(size, data):
    general = data.draw(st.integers(0, size - 1))
    rng = np.random.default_rng(size)
    stack = x_densities(rng, size)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    stack[general] = 0.9 * np.outer(psi, psi.conj()) + 0.025 * np.eye(4)
    conc, q = concurrence(stack)
    single_c, single_q = concurrence(stack[general])
    assert single_c.shape == single_q.shape == ()
    assert single_c == conc[general] and math.isnan(single_q)
    for i, rho in enumerate(stack):
        assert conc[i] == pytest.approx(reference.wootters(rho), abs=1e-10)
        if i == general:
            assert reference.off_x(rho) > 1e-10 and math.isnan(q[i])
        else:
            assert q[i] == pytest.approx(reference.x_state_q(rho), abs=1e-15)
            assert conc[i] == 2.0 * max(0.0, q[i])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_numeric_grid_matches_across_n_max(kind, n_max, res_params, det_params):
    # Two Rabi periods.  The gap is the eigh phase drift of both runs,
    # eps (||H_n|| + ||H_1||) per unit time in Q, twice that in C.
    alpha_grid = np.linspace(-3.0, 3.0, 13)
    for params in (res_params, det_params):
        t_grid = np.linspace(0.0, 4.0 * np.pi / params.rabi(1), 65)
        norms = sum(np.linalg.norm(total_hamiltonian(params, params, n), 2) for n in (1, n_max))
        budget = 1e-14 + EPS * norms * t_grid
        base = GridEngine("numeric", kind, params, n_max=1).values(alpha_grid, t_grid)
        other = GridEngine("numeric", kind, params, n_max=n_max).values(alpha_grid, t_grid)
        assert np.all(np.abs(other.q - base.q) <= budget[:, None])
        assert np.all(np.abs(other.concurrence - base.concurrence) <= 2.0 * budget[:, None])


def test_sweep_passes_n_max_to_the_numeric_engine(tmp_path, monkeypatch):
    seen = []
    real = engine_module.site_hamiltonian

    def recording(params, n_max=1):
        seen.append(n_max)
        return real(params, n_max)

    monkeypatch.setattr(engine_module, "site_hamiltonian", recording)
    assert main(["sweep", "--engine", "numeric", "--n-max", "3", "--alpha-points", "2",
                 "--steps", "3", "--t-max", "1.0", "--output", str(tmp_path / "s.csv")]) == 0
    assert seen == [3]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_closed_grid_bitwise(kind, alpha_grid, t_grid, params, pairs=PAIR_LABELS):
    values = GridEngine("closed", kind, params).values(alpha_grid, t_grid, pairs)
    rabi = params.rabi(1)
    ref = [[resonance_values(kind, a, rabi, t) for t in t_grid.tolist()] for a in alpha_grid.tolist()]
    ref_c = [[[conc[p] for p in pairs] for conc, _ in row] for row in ref]
    ref_q = [[[q[p] for p in pairs] for _, q in row] for row in ref]
    # bit patterns, so a -0.0 for +0.0 or a one-ulp change fails too
    assert np.array_equal(_bits(values.concurrence), _bits(ref_c))
    assert np.array_equal(_bits(values.q), _bits(ref_q))


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_closed_grid_is_bitwise_the_per_point_formulas(kind, res_params):
    # the pole-free points alpha = 0, pi/2, an angle past pi/2, a negative
    # angle; t = 0 and Gt = k pi/2, where sin and cos of Gt/2 hit 0 and 1
    alpha_grid = np.array([0.0, 0.5 * math.pi, math.pi - 0.3, -0.4])
    t_grid = np.arange(9) * 0.5 * math.pi / res_params.rabi(1)
    _assert_closed_grid_bitwise(kind, alpha_grid, t_grid, res_params)
    _assert_closed_grid_bitwise(kind, alpha_grid, t_grid, res_params, pairs=("Ba", "Bb", "AB"))


@given(kind=kinds, alpha_list=st.lists(alphas, min_size=1, max_size=5),
       t_list=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=7), g=st.floats(0.25, 1.5))
def test_closed_grid_bits_match_per_point_on_random_grids(kind, alpha_list, t_list, g):
    params = JCParams(omega0=5.0, omega=5.0, g=g)
    _assert_closed_grid_bitwise(kind, np.array(alpha_list), np.array(t_list), params)


@pytest.mark.parametrize("engine", ["analytic", "numeric", "closed"])
def test_blocks_do_not_change_values(engine, res_params, monkeypatch):
    alpha_grid, t_grid = np.linspace(0.0, 1.5, 5), np.linspace(0.0, 4.0, 9)
    whole = GridEngine(engine, "psi", res_params).values(alpha_grid, t_grid, ("AB", "Ab"))
    for block in (1, 7, 20):
        monkeypatch.setattr(engine_module, "BLOCK_CELLS", block)
        blocked = GridEngine(engine, "psi", res_params).values(alpha_grid, t_grid, ("AB", "Ab"))
        assert np.array_equal(_bits(blocked.concurrence), _bits(whole.concurrence))
        assert np.array_equal(_bits(blocked.q), _bits(whole.q))


@given(engine=st.sampled_from(("analytic", "numeric")), kind=kinds, n_max=st.integers(1, 4),
       params=sites(), alpha_list=st.lists(alphas, min_size=1, max_size=3),
       n_t=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=6),
       fraction=st.floats(0.0, 1.0), data=st.data())
def test_any_split_of_the_times_gives_the_bits_of_one_call(engine, kind, n_max, params, alpha_list,
                                                           n_t, cuts, fraction, data):
    # one-cell calls (a single alpha and a single time) included: the numeric
    # route's products must not change kernels with the number of cells
    ts = np.linspace(0.0, fraction * 50.0 / params.rabi(1), n_t)
    grid = GridEngine(engine, kind, params, n_max=n_max)
    whole = grid.values(alpha_list, ts)
    parts = [grid.values(alpha_list, part) for part in np.split(ts, sorted({c for c in cuts if c < n_t}))]
    ia, it = data.draw(st.integers(0, len(alpha_list) - 1)), data.draw(st.integers(0, n_t - 1))
    cell = grid.values(alpha_list[ia:ia + 1], ts[it:it + 1])
    # the engine reuses one workspace: after the calls above, a second and a
    # third call of the whole grid give the bits of the first
    again = [grid.values(alpha_list, ts) for _ in range(2)]
    for field in ("concurrence", "q"):
        joined = np.concatenate([getattr(part, field) for part in parts], axis=1)
        assert np.array_equal(_bits(joined), _bits(getattr(whole, field)))
        assert np.array_equal(_bits(getattr(cell, field)[0, 0]), _bits(getattr(whole, field)[ia, it]))
        for repeat in again:
            assert np.array_equal(_bits(getattr(repeat, field)), _bits(getattr(whole, field)))


@pytest.mark.parametrize("engine, n_max", [("analytic", 1), ("numeric", 1), ("numeric", 3)])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_block_reduces_every_pair_in_one_stack(engine, n_max, kind, det_params, monkeypatch):
    # one reader call per block, on the amplitudes of the block and every requested pair
    shapes = []
    real = engine_module.pair_values

    def recording(amps, pairs, **kwargs):
        shapes.append((amps.shape[4:], len(pairs)))
        return real(amps, pairs, **kwargs)

    alpha_grid, t_grid = np.linspace(0.1, 1.4, 3), np.linspace(0.0, 6.0, 7)
    grid = GridEngine(engine, kind, det_params, n_max=n_max)
    alone = {pair: grid.values(alpha_grid, t_grid, (pair,)) for pair in PAIR_LABELS}
    monkeypatch.setattr(engine_module, "pair_values", recording)
    for block, expected in ((256, [((3, 7), 6)]), (7, [((1, 7), 6)] * 3)):
        monkeypatch.setattr(engine_module, "BLOCK_CELLS", block)
        shapes.clear()
        stacked = grid.values(alpha_grid, t_grid)
        assert shapes == expected
        for ip, pair in enumerate(PAIR_LABELS):
            assert np.array_equal(stacked.concurrence[..., ip], alone[pair].concurrence[..., 0])
            assert np.array_equal(stacked.q[..., ip], alone[pair].q[..., 0])


@pytest.mark.parametrize("engine, n_max", [("analytic", 1), ("numeric", 1), ("numeric", 4)])
def test_grid_memory_does_not_grow_with_the_grid(engine, n_max, det_params):
    # the peak of a 3 x 8193 evaluation (99 blocks, the last of each row one
    # cell) above its two output arrays, against a fixed budget; the
    # workspace of n_max = 4 holds about 2.6 MB
    grid = GridEngine(engine, "psi", det_params, n_max=n_max)
    alpha_grid, t_grid = np.linspace(0.1, 1.4, 3), np.linspace(0.0, 20.0, 8193)
    grid.values(alpha_grid, t_grid[:3])  # caches and one-time allocations
    tracemalloc.start()
    try:
        values = grid.values(alpha_grid, t_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = values.concurrence.nbytes + values.q.nbytes
    assert outputs == 2 * 3 * 8193 * 6 * 8
    assert peak - outputs <= 3_500_000


def test_engine_validations(res_params):
    with pytest.raises(ValueError, match="engine"):
        GridEngine("spectral", "phi", res_params)
    with pytest.raises(ValueError, match="kind"):
        GridEngine("analytic", "chi", res_params)
    with pytest.raises(ValueError, match="unknown pairs"):
        GridEngine("analytic", "phi", res_params).values([0.1], [0.0], ("AB", "BA"))


@given(engine=st.sampled_from(("analytic", "numeric")), kind=kinds, n_max=st.integers(1, 4),
       params=sites(), x_tol=st.sampled_from((1e-10, -1.0)), order=st.permutations(PAIR_LABELS),
       size=st.integers(1, len(PAIR_LABELS)), alpha_list=st.lists(alphas, min_size=1, max_size=3),
       fraction=st.floats(0.0, 1.0))
@example(engine="numeric", kind="phi", n_max=2, params=JCParams(omega0=7.0, omega=7.3, g=0.6),
         x_tol=-1.0, order=["Aa", "AB", "Bb", "ab", "Ba", "Ab"], size=3, alpha_list=[0.4],
         fraction=0.3)
def test_any_pair_order_gives_the_bits_of_the_default_order(engine, kind, n_max, params, x_tol, order,
                                                            size, alpha_list, fraction):
    # an ordered subset of the pairs, traced dimensions interleaved or not:
    # each column has the bits of its pair's column in the default-order
    # call, on the X reader and on the general route's slot-to-table mapping
    pairs = tuple(order[:size])
    ts = np.linspace(0.0, fraction * 50.0 / params.rabi(1), 5)
    grid = GridEngine(engine, kind, params, n_max=n_max)
    every = grid.values(alpha_list, ts, x_tol=x_tol)
    some = grid.values(alpha_list, ts, pairs, x_tol=x_tol)
    cols = [PAIR_LABELS.index(pair) for pair in pairs]
    assert some.pairs == pairs
    for field in ("concurrence", "q"):
        assert np.array_equal(_bits(getattr(some, field)), _bits(getattr(every, field)[..., cols]))


@pytest.mark.parametrize("engine, n_max", [("analytic", 1), ("numeric", 1), ("numeric", 2)])
@pytest.mark.parametrize("alpha, t", [(0.3, math.nan), (0.3, math.inf), (0.3, -math.inf), (0.3, 1e308),
                                      (math.inf, 1.0), (math.nan, 1.0)])
def test_evolution_routes_refuse_non_finite_cells(engine, n_max, alpha, t):
    # refused before any phase is formed, naming the bad alpha or t (no NaN trace, no warning)
    grid = GridEngine(engine, "phi", JCParams(omega0=5.0, omega=5.0, g=1.0), n_max=n_max)
    if not math.isfinite(alpha):
        message = f"alpha must be finite, got {alpha!r}"
    elif not math.isfinite(t):
        message = f"t must be finite, got {t!r}"
    else:  # 2 (omega0/2 + n_max omega + sqrt(n_max) g) = 17 at n_max = 1
        rate = {1: "17.0", 2: "27.82842712474619"}[n_max]
        message = (f"t = 1e+308 times the largest phase rate of the {engine} route, 2 (omega0/2 + "
                   f"n_max omega + sqrt(n_max) g) = {rate} at n_max = {n_max} and "
                   "JCParams(omega0=5.0, omega=5.0, g=1.0), overflows")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        grid.values([0.1, alpha], [0.5, t])


@pytest.mark.parametrize("alpha, t, message", [
    (0.3, math.nan, "t must be finite, got nan"),
    (0.3, math.inf, "t must be finite, got inf"),
    (0.3, -math.inf, "t must be finite, got -inf"),
    (math.inf, 1.0, "alpha must be finite, got inf"),
    (math.nan, 1.0, "alpha must be finite, got nan"),
])
def test_closed_route_refuses_non_finite_alphas_and_times(alpha, t, message):
    grid = GridEngine("closed", "phi", JCParams(omega0=5.0, omega=5.0, g=1.0))
    with pytest.raises(ValueError, match=f"^{message}$"):
        grid.values([0.1, alpha, 0.2], [0.5, t, 0.7])
    # a huge finite time is still a time: 0.5 delta t = 1e308 stays finite
    values = grid.values([0.3], [1e308])
    assert np.isfinite(values.concurrence).all() and np.isfinite(values.q).all()


def test_closed_route_refuses_an_overflowing_half_phase():
    # delta = 4 at this site, so 0.5 delta t is inf at t = 1e308 where math.sin would fail
    grid = GridEngine("closed", "phi", JCParams(omega0=5.0, omega=5.0, g=2.0))
    message = r"^t = 1e\+308 overflows the half phase delta t / 2 \(delta = 4.0\)$"
    with pytest.raises(ValueError, match=message):
        grid.values([0.3], [1e308])
    with pytest.raises(ValueError, match=message):
        grid.values([0.3], [0.5, -1e307, 1e308])  # -1e307 still gives a finite phase


def test_an_overflowing_rate_is_refused_before_the_eigh(monkeypatch):
    # 2 (5/2 + 2e308 + sqrt(2)) is inf: no eigh and no Hermitian check may see the inf Hamiltonian
    def refuse(*args, **kwargs):
        raise AssertionError("a site Hamiltonian was diagonalized")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    site = JCParams(omega0=5.0, omega=1e308, g=1.0)
    for engine in ("analytic", "numeric"):
        message = (f"the largest phase rate of the {engine} route, 2 (omega0/2 + n_max omega + "
                   f"sqrt(n_max) g) = inf at n_max = 2 and {site!r}, overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridEngine(engine, "phi", site, n_max=2)
    # the closed form's one phase rate, delta / 2 = 5e307, is finite
    values = GridEngine("closed", "phi", site, n_max=2).values([0.3], [1.0])
    assert np.isfinite(values.concurrence).all()


# Sites where the numeric route's one eigh mixes nearly degenerate excitation
# manifolds (population leaks above one photon at a large phase) or fails.
_LEAKING_SITES = [
    (JCParams(1.0, 1e-13, 4.856243432510091e-50), 1e300, "1.883e-08"),
    (JCParams(1.1671009717970596e+277, 1.3660129889829182e-219, 2.4406572640694918e+246),
     33.56047578428661, "8.903e-03"),
]
_UNDIAGONALIZABLE_SITE = JCParams(2.2090347762034448e+44, 1.7583199221099784e+53, 1.5464825831913855e+285)


@pytest.mark.parametrize("params, t, leak", _LEAKING_SITES)
def test_numeric_leak_refusal_names_its_cell(params, t, leak):
    grid = GridEngine("numeric", "psi", params, n_max=2)
    for t_grid, cell in (([t], "(0, 0)"), ([0.0, t], "(0, 1)")):
        with pytest.raises(ValueError) as err:
            grid.values([0.3], t_grid)
        assert str(err.value) == (f"cavity a holds probability {leak} above one photon at cell {cell} "
                                  "(tolerance 1.000e-10); cannot reduce to a qubit")


def test_a_site_eigh_cannot_diagonalize_is_refused_naming_n_max_and_the_site():
    message = ("the numeric route cannot diagonalize the site Hamiltonian at n_max = 3 and "
               f"{_UNDIAGONALIZABLE_SITE!r}: Eigenvalues did not converge")
    with pytest.raises(ValueError) as err:
        GridEngine("numeric", "psi", _UNDIAGONALIZABLE_SITE, n_max=3)
    assert type(err.value) is ValueError and str(err.value) == message


def test_numeric_refusals_reach_stderr_with_their_place(capsys):
    site = ["--omega0", "1", "--omega", "1e-13", "--g", "4.856243432510091e-50"]
    assert main(["evolve", "--engine", "numeric", "--family", "psi", "--alpha", "0.3", "--n-max", "2",
                 *site, "--t-max", "1e300", "--steps", "1"]) == 1
    assert capsys.readouterr().err == ("error: cavity a holds probability 1.883e-08 above one photon at "
                                       "cell (0, 1) (tolerance 1.000e-10); cannot reduce to a qubit\n")
    p = _UNDIAGONALIZABLE_SITE
    assert main(["evolve", "--engine", "numeric", "--n-max", "3", "--omega0", repr(p.omega0),
                 "--omega", repr(p.omega), "--g", repr(p.g), "--t-max", "1e-300", "--steps", "1"]) == 1
    assert capsys.readouterr().err == ("error: the numeric route cannot diagonalize the site Hamiltonian "
                                       f"at n_max = 3 and {p!r}: Eigenvalues did not converge\n")


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_grids_give_empty_arrays(engine):
    grid = GridEngine(engine, "psi", JCParams(omega0=5.0, omega=5.7, g=1.0), n_max=2)
    for alpha_grid, t_grid in (([], [0.5, 1.0]), ([0.3], []), ([], [])):
        values = grid.values(alpha_grid, t_grid, ("AB", "Ab"))
        shape = (len(alpha_grid), len(t_grid), 2)
        assert values.concurrence.shape == values.q.shape == shape


_ORDINARY_TIMES = st.floats(-50.0, 50.0)
_EXTREME_TIMES = st.sampled_from([1e300, -1e300, 1e308, -1e308, math.nan, math.inf, -math.inf])
_BAD_ALPHAS = st.sampled_from([math.nan, math.inf, -math.inf])
_FIELDS = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)  # log-uniform


def _largest_phase_rate(engine, params, n_max):
    """The contract's rate: delta/2 on the closed route, twice the largest site energy otherwise."""
    if engine == "closed":
        return 0.5 * params.splitting
    return 2.0 * (0.5 * params.omega0 + n_max * params.omega + math.sqrt(n_max) * params.g)


@given(engine=st.sampled_from(ENGINES), kind=kinds, n_max=st.integers(1, 4),
       fields=st.tuples(_FIELDS, _FIELDS, _FIELDS),
       alpha_list=st.lists(st.one_of(alphas, _BAD_ALPHAS), min_size=1, max_size=3),
       t_list=st.lists(st.one_of(_ORDINARY_TIMES, _EXTREME_TIMES), min_size=1, max_size=3))
@example(engine="numeric", kind="phi", n_max=2, fields=(5.0, 5.0, 2.0), alpha_list=[0.3],
         t_list=[0.5, 1e308])
@example(engine="analytic", kind="psi", n_max=4, fields=(1e300, 1e-300, 1e300), alpha_list=[0.3],
         t_list=[1.0, -1e300])
# grids longer than the engine's Python fast check
@example(engine="analytic", kind="phi", n_max=1, fields=(5.0, 5.0, 2.0), alpha_list=[0.3],
         t_list=[0.5] * 40 + [1e308])
@example(engine="closed", kind="psi", n_max=1, fields=(5.0, 5.7, 1.0), alpha_list=[0.1] * 40 + [math.nan],
         t_list=[0.5])
@example(engine="numeric", kind="phi", n_max=3, fields=(5.0, 5.7, 1.0), alpha_list=[0.2, 0.4],
         t_list=np.linspace(-50.0, 50.0, 40).tolist())
def test_every_route_computes_or_names_what_it_refuses(engine, kind, n_max, fields, alpha_list, t_list):
    # the input contract: valid values, or a ValueError naming the first bad
    # alpha, the first bad t, or the first t whose largest phase overflows;
    # never a RuntimeWarning, a NaN trace or a bare math error
    params = JCParams(*fields)
    rate = _largest_phase_rate(engine, params, n_max)
    bad_alphas = [alpha for alpha in alpha_list if not math.isfinite(alpha)]
    bad_ts = [t for t in t_list if not math.isfinite(t)]
    overflowing = [t for t in t_list if math.isinf(rate * t)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = GridEngine(engine, kind, params, n_max=n_max)
        if bad_alphas or bad_ts or overflowing:
            if bad_alphas:
                message = re.escape(f"alpha must be finite, got {bad_alphas[0]!r}") + "$"
            elif bad_ts:
                message = re.escape(f"t must be finite, got {bad_ts[0]!r}") + "$"
            else:
                message = re.escape(f"t = {overflowing[0]!r} ") + ".*overflows"
            with pytest.raises(ValueError, match=f"^{message}"):
                grid.values(alpha_list, t_list)
            return
        values = grid.values(alpha_list, t_list)
    conc, q = values.concurrence, values.q
    assert np.all((conc >= 0.0) & (conc <= 1.0))
    off_x = np.isnan(q)
    assert np.isfinite(q[~off_x]).all()
    assert engine != "closed" or not off_x.any()
