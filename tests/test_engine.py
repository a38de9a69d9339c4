import math
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import jcpairs.cli as cli
import jcpairs.engine as engine_module
import reference
from conftest import (entry_matrices, entry_values, lattice_states, pair_matrices, route_stack, upper_entries,
                      x_densities)
from jcpairs import PAIR_LABELS, GridEngine, JCParams
from jcpairs.cli import main
from jcpairs.dynamics import FAMILY_KINDS, amplitudes
from jcpairs.engine import ENGINES
from jcpairs.entanglement import _x_entries, _x_lowest
from jcpairs.linalg import Workspace
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


def cli_engine(engine, kind, params, n_max):
    """The engine that ``jcpairs sweep`` builds at ``--n-max n_max``, a setting it checks and no route reads."""
    argv = ["sweep", "--engine", engine, "--family", kind, "--n-max", str(n_max), "--omega0", repr(params.omega0),
            "--omega", repr(params.omega), "--g", repr(params.g)]
    cfg = cli._merged(cli._build_parser().parse_args(argv), "sweep")
    (grid,) = cli._engines(cfg)
    return grid


def time_grid(params, fraction):
    """Three times in [0, 50/G]: zero, half of the drawn time, the drawn time."""
    t = fraction * 50.0 / params.rabi(1)
    return np.array([0.0, 0.5 * t, t])


def scalar_results(engine, kind, alpha, params, ts):
    """Per-cell reference on the route's own amplitudes: (Q, C) of each pair, by einsum and textbook formulas.

    Every reduction is X-shaped, its entries off the X pattern exactly 0.
    """
    psi = lattice_states(kind, route_stack(engine, kind, [alpha], ts, params))
    out = []
    for it in range(len(ts)):
        cell = psi[..., 0, it]
        rhos = [reference.pair_density(cell, pair) for pair in PAIR_LABELS]
        assert max(map(reference.off_x, rhos)) == 0.0
        out.append([(reference.x_state_q(rho), reference.wootters(rho)) for rho in rhos])
    return out


@given(kind=kinds, alpha=alphas, params=st.one_of(sites(resonant=True), sites()),
       fraction=st.floats(0.0, 1.0), engine=st.sampled_from(("analytic", "numeric")))
# the C_Ab reduction here has eigenvalues 4.4e-16 and 1.1e-15, which a
# square root of rho through eigh would zero, moving C by 3.65e-8
@example(kind="phi", alpha=1.0, params=JCParams(7.0, 7.0, 1.0), fraction=1e-5, engine="analytic")
def test_grid_matches_scalar_path(kind, alpha, params, fraction, engine):
    ts = time_grid(params, fraction)
    grid = GridEngine(engine, kind, params)
    values = grid.values([alpha], ts)
    # general=True sends every cell through the general Wootters route,
    # which gives no Q: a NaN on every cell shows that values passed it on
    general = grid.values([alpha], ts, general=True)
    assert np.isnan(general.q).all()
    assert np.max(np.abs(general.concurrence - values.concurrence)) <= 1e-14
    for it, results in enumerate(scalar_results(engine, kind, alpha, params, ts)):
        for ip, (ref_q, ref_c) in enumerate(results):
            q, conc = values.q[0, it, ip], values.concurrence[0, it, ip]
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
        general = GridEngine("analytic", "phi", params).values([alpha], [t], ("Ab",), general=True)
        assert abs(general.concurrence.item() - reference_c) <= 1e-15


@given(kind=kinds, alpha=alphas, params=sites(resonant=True), fraction=st.floats(0.0, 1.0))
def test_analytic_grid_matches_closed_form(kind, alpha, params, fraction):
    ts = time_grid(params, fraction)
    values = GridEngine("analytic", kind, params).values([alpha], ts)
    for it, t in enumerate(ts):
        closed = resonance_values(kind, alpha, params.rabi(1), t)
        for ip, pair in enumerate(PAIR_LABELS):
            assert abs(values.concurrence[0, it, ip] - closed.concurrence[pair]) <= 1e-14


@given(kind=kinds, alpha=alphas, params=sites(resonant=True), fraction=st.floats(0.0, 1.0))
def test_numeric_grid_matches_closed_form_within_phase_budget(kind, alpha, params, fraction):
    # eigh resolves each eigenvalue to about eps ||H||, so the evolved phases,
    # and C = 2 max(0, Q) with Q quadratic in the amplitudes, drift by that
    # much per unit time
    h = total_hamiltonian(params, params)
    ts = time_grid(params, fraction)
    values = GridEngine("numeric", kind, params).values([alpha], ts)
    for it, t in enumerate(ts):
        budget = 1e-14 + 4.0 * EPS * np.linalg.norm(h, 2) * t
        closed = resonance_values(kind, alpha, params.rabi(1), t)
        for ip, pair in enumerate(PAIR_LABELS):
            assert abs(values.concurrence[0, it, ip] - closed.concurrence[pair]) <= budget


@given(kind=kinds, alpha=alphas, params=sites(), fraction=st.floats(0.0, 1.0))
def test_closed_grid_matches_both_evolution_routes_at_any_detuning(kind, alpha, params, fraction):
    # Q and C of all six pairs; the numeric route also drifts by its eigh
    # phase error, as in the resonant property above
    h = total_hamiltonian(params, params)
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


def test_threads_sharing_an_engine_get_the_bits_of_a_serial_run(det_params):
    # each thread writes its blocks into its own workspace; a shared one mixes
    # the threads' blocks
    grid = GridEngine("numeric", "phi", det_params)
    alpha_grid, t_grid = np.linspace(0.1, 1.4, 4), np.linspace(0.0, 20.0, 1000)  # 16 blocks
    serial = grid.values(alpha_grid, t_grid)
    threads = 4
    together = threading.Barrier(threads, timeout=60)

    def repeat(_):
        together.wait()
        return [grid.values(alpha_grid, t_grid) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            runs = [values for values_of_thread in pool.map(repeat, range(threads), timeout=60)
                    for values in values_of_thread]
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 3 * threads
    for values in runs:
        for field in ("concurrence", "q"):
            assert np.array_equal(_bits(getattr(values, field)), _bits(getattr(serial, field)))


@pytest.mark.parametrize("engine", ["analytic", "numeric"])
def test_grid_values_outlive_another_engines_call(engine, res_params, det_params):
    alpha_grid, t_grid = np.linspace(0.1, 1.4, 3), np.linspace(0.0, 8.0, 300)
    first = GridEngine(engine, "phi", res_params).values(alpha_grid, t_grid)
    kept = [_bits(first.concurrence).copy(), _bits(first.q).copy()]
    GridEngine(engine, "psi", det_params).values(alpha_grid[::-1], t_grid[::-1] * 2.0)
    assert np.array_equal(_bits(first.concurrence), kept[0])
    assert np.array_equal(_bits(first.q), kept[1])


@pytest.mark.parametrize("engine, n_max", [("analytic", 1), ("numeric", 1), ("numeric", 3)])
def test_exactly_hermitian_stack_comes_back_with_the_same_bits(engine, n_max, det_params):
    alpha_grid, t_grid = np.linspace(0.1, 3.0, 4), np.linspace(0.0, 9.0, 11)
    grid = cli_engine(engine, "psi", det_params, n_max)
    psi = amplitudes("psi", alpha_grid, t_grid, grid._site_factors, work=Workspace())
    stack = pair_matrices(psi, PAIR_LABELS, live=grid._live)
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))  # Hermitian by construction
    # the 6 X entries give back the whole matrix, bit for bit
    assert np.array_equal(entry_matrices(upper_entries(stack)).view(np.uint64), stack.view(np.uint64))
    # symmetrizing gives the same values (only the sign of a zero imaginary
    # part can differ): the reducer's Hermitian matrices need no symmetrizing
    again = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    assert np.array_equal(again, stack)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_numeric_grid_matches_across_n_max(kind, n_max, tmp_path):
    # --n-max changes no byte of the numeric route's tables: two Rabi
    # periods, and long times, at a resonant and a detuned site
    for site in ([], ["--omega", "6.0", "--g", "0.5"]):
        for request in (["evolve", "--alpha", "0.7"], ["sweep", "--alpha-min", "-3", "--alpha-max", "3",
                                                       "--alpha-points", "13", "--t-max", "1e9", "--steps", "3"]):
            tables = []
            for setting in ("1", str(n_max)):
                out = tmp_path / f"{request[0]}{setting}.csv"
                assert main([*request, "--engine", "numeric", "--family", kind, *site, "--n-max", setting,
                             "--output", str(out)]) == 0
                tables.append(out.read_bytes())
            assert tables[0] == tables[1]


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
    # evolution blocks inside streamed blocks of any size (the closed route streams only)
    alpha_grid, t_grid = np.linspace(0.0, 1.5, 5), np.linspace(0.0, 4.0, 9)
    whole = GridEngine(engine, "psi", res_params).values(alpha_grid, t_grid, ("AB", "Ab"))
    for block in (1, 7, 20):
        monkeypatch.setattr(engine_module, "BLOCK_CELLS", block)
        for stream in (1, 13, 4096):
            monkeypatch.setattr(engine_module, "STREAM_CELLS", stream)
            blocked = GridEngine(engine, "psi", res_params).values(alpha_grid, t_grid, ("AB", "Ab"))
            assert np.array_equal(_bits(blocked.concurrence), _bits(whole.concurrence))
            assert np.array_equal(_bits(blocked.q), _bits(whole.q))


@given(engine=st.sampled_from(ENGINES), kind=kinds,
       params=sites(), alpha_list=st.lists(alphas, min_size=1, max_size=3),
       n_t=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=6),
       fraction=st.floats(0.0, 1.0), stream=st.integers(1, 50), data=st.data())
def test_any_split_of_the_times_gives_the_bits_of_one_call(engine, kind, params, alpha_list,
                                                           n_t, cuts, fraction, stream, data):
    # one-cell calls (a single alpha and a single time) included: the numeric
    # route's products must not change kernels with the number of cells, nor
    # the closed route's broadcasts with the shape of the grid
    ts = np.linspace(0.0, fraction * 50.0 / params.rabi(1), n_t)
    grid = GridEngine(engine, kind, params)
    whole = grid.values(alpha_list, ts)
    # streamed in blocks of at most ``stream`` cells: every cell once, in
    # table order, with the bits of the whole call
    with mock.patch.object(engine_module, "STREAM_CELLS", stream):
        streamed = [(a, t, conc.copy(), q.copy()) for a, t, conc, q in grid.blocks(alpha_list, ts)]
    order = [(ia, it) for a, t, *_ in streamed for ia in range(a.start, a.stop) for it in range(t.start, t.stop)]
    assert order == list(np.ndindex(len(alpha_list), n_t))
    assert max(conc.shape[0] * conc.shape[1] for _, _, conc, _ in streamed) <= stream
    for a, t, conc, q in streamed:
        assert np.array_equal(_bits(conc), _bits(whole.concurrence[a, t]))
        assert np.array_equal(_bits(q), _bits(whole.q[a, t]))
    parts = [grid.values(alpha_list, part) for part in np.split(ts, sorted({c for c in cuts if c < n_t}))]
    ia, it = data.draw(st.integers(0, len(alpha_list) - 1)), data.draw(st.integers(0, n_t - 1))
    cell = grid.values(alpha_list[ia:ia + 1], ts[it:it + 1])
    # the thread's workspace is reused: after the calls above, a second and a
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
        shapes.append((amps.shape[1:], len(pairs)))
        return real(amps, pairs, **kwargs)

    alpha_grid, t_grid = np.linspace(0.1, 1.4, 3), np.linspace(0.0, 6.0, 7)
    grid = cli_engine(engine, kind, det_params, n_max)
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
    # cell) above its two output arrays, once the thread's workspace holds
    # blocks of both shapes: measured 0.12 MB at every --n-max, the bound is
    # about twice that (a workspace filled again per call adds 0.85 MB)
    grid = cli_engine(engine, "psi", det_params, n_max)
    alpha_grid, t_grid = np.linspace(0.1, 1.4, 3), np.linspace(0.0, 20.0, 8193)
    grid.values(alpha_grid, t_grid[:257])  # full blocks and a one-cell block: the workspace at its size
    tracemalloc.start()
    try:
        values = grid.values(alpha_grid, t_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = values.concurrence.nbytes + values.q.nbytes
    assert outputs == 2 * 3 * 8193 * 6 * 8
    assert peak - outputs <= 250_000


def test_engine_validations(res_params):
    with pytest.raises(ValueError, match="engine"):
        GridEngine("spectral", "phi", res_params)
    with pytest.raises(ValueError, match="kind"):
        GridEngine("analytic", "chi", res_params)
    with pytest.raises(ValueError, match="unknown pairs"):
        GridEngine("analytic", "phi", res_params).values([0.1], [0.0], ("AB", "BA"))


@given(engine=st.sampled_from(("analytic", "numeric")), kind=kinds,
       params=sites(), general=st.booleans(), order=st.permutations(PAIR_LABELS),
       size=st.integers(1, len(PAIR_LABELS)), alpha_list=st.lists(alphas, min_size=1, max_size=3),
       fraction=st.floats(0.0, 1.0))
@example(engine="numeric", kind="phi", params=JCParams(omega0=7.0, omega=7.3, g=0.6),
         general=True, order=["Aa", "AB", "Bb", "ab", "Ba", "Ab"], size=3, alpha_list=[0.4],
         fraction=0.3)
def test_any_pair_order_gives_the_bits_of_the_default_order(engine, kind, params, general, order,
                                                            size, alpha_list, fraction):
    # an ordered subset of the pairs, traced dimensions interleaved or not:
    # each column has the bits of its pair's column in the default-order
    # call, on the X reader and on the general route's slot-to-table mapping
    pairs = tuple(order[:size])
    ts = np.linspace(0.0, fraction * 50.0 / params.rabi(1), 5)
    grid = GridEngine(engine, kind, params)
    every = grid.values(alpha_list, ts, general=general)
    some = grid.values(alpha_list, ts, pairs, general=general)
    cols = [PAIR_LABELS.index(pair) for pair in pairs]
    assert some.pairs == pairs
    for field in ("concurrence", "q"):
        assert np.array_equal(_bits(getattr(some, field)), _bits(getattr(every, field)[..., cols]))


@pytest.mark.parametrize("engine, n_max", [("analytic", 1), ("numeric", 1), ("numeric", 2)])
@pytest.mark.parametrize("alpha, t", [(0.3, math.nan), (0.3, math.inf), (0.3, -math.inf), (0.3, 1e308),
                                      (math.inf, 1.0), (math.nan, 1.0)])
def test_evolution_routes_refuse_non_finite_cells(engine, n_max, alpha, t):
    # refused before any phase is formed, naming the bad alpha or t (no NaN trace, no warning)
    grid = cli_engine(engine, "phi", JCParams(omega0=5.0, omega=5.0, g=1.0), n_max)
    if not math.isfinite(alpha):
        message = f"alpha must be finite, got {alpha!r}"
    elif not math.isfinite(t):
        message = f"t must be finite, got {t!r}"
    else:  # 2 (omega0/2 + omega + g) = 17 at every --n-max
        message = (f"t = 1e+308 times the largest phase rate of the {engine} route, 2 (omega0/2 + "
                   "omega + g) = 17.0 at JCParams(omega0=5.0, omega=5.0, g=1.0), overflows")
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
    # 2 (5/2 + 1e308 + 1) is inf: no eigh may see the site
    def refuse(*args, **kwargs):
        raise AssertionError("a site Hamiltonian was diagonalized")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    site = JCParams(omega0=5.0, omega=1e308, g=1.0)
    for engine in ("analytic", "numeric"):
        message = (f"the largest phase rate of the {engine} route, 2 (omega0/2 + omega + g) = inf "
                   f"at {site!r}, overflows")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridEngine(engine, "phi", site)
    # the closed form's one phase rate, delta / 2 = 5e307, is finite
    values = GridEngine("closed", "phi", site).values([0.3], [1.0])
    assert np.isfinite(values.concurrence).all()


# Sites where one eigh of the whole truncated site, at the n_max of the
# ids, mixed nearly degenerate excitation manifolds (population leaked above
# one photon at a large phase) or did not converge: (site, n_max, t).
# Manifold by manifold they diagonalize.
_EXTREME_SITES = [
    (JCParams(1.0, 1e-13, 4.856243432510091e-50), 2, 1e300),
    (JCParams(1.1671009717970596e+277, 1.3660129889829182e-219, 2.4406572640694918e+246), 2,
     33.56047578428661),
    (JCParams(2.2090347762034448e+44, 1.7583199221099784e+53, 1.5464825831913855e+285), 3, 1e-300),
]


def _one_time_among(n_t, index, t):
    times = np.zeros(n_t)
    times[index] = t
    return times


@pytest.mark.parametrize("params, n_max, t", _EXTREME_SITES)
def test_numeric_route_agrees_at_sites_one_eigh_could_not_reduce(params, n_max, t):
    # the coupling is negligible against the detuning or the phase: C_AB
    # stays sin(2 alpha) on both routes, and every value agrees within 1e-14
    values = [cli_engine(name, "psi", params, n_max).values([0.3], _one_time_among(600, 300, t))
              for name in ("analytic", "numeric")]
    for field in ("concurrence", "q"):
        analytic, numeric = (getattr(value, field) for value in values)
        assert np.max(np.abs(numeric - analytic)) <= 1e-14
    assert values[1].concurrence[0, 300, 0] == pytest.approx(math.sin(0.6), abs=1e-14)


@pytest.mark.parametrize("index", [0, 300])
def test_a_reader_refusal_names_its_cell_in_the_grid(index, res_params, monkeypatch):
    # doubled amplitudes at the one time 1.0 give a trace of 4; of 600 times,
    # index 300 is index 44 of the engine's second block
    real = engine_module.amplitudes

    def doubled(kind, alphas, block_ts, site_factors, *, work):
        amps = real(kind, alphas, block_ts, site_factors, work=work)
        amps[..., block_ts == 1.0] *= 2.0
        return amps

    monkeypatch.setattr(engine_module, "amplitudes", doubled)
    with pytest.raises(ValueError) as err:
        GridEngine("analytic", "psi", res_params).values([0.3], _one_time_among(600, index, 1.0))
    assert str(err.value) == f"invalid density matrix: trace deviates from 1 by 3.000e+00 at cell (0, {index}, 0)"


def test_the_engine_refuses_pairs_the_reducer_cannot_trace(res_params):
    # the reducer trusts these labels: a repeated subsystem or an unknown one stops here
    for engine in ENGINES:
        grid = GridEngine(engine, "phi", res_params)
        for pair in (("A", "A"), ("A", "x"), "AA", "Ax"):
            with pytest.raises(ValueError, match="^unknown pairs"):
                grid.values([0.3], [1.0], ("AB", pair))


def _unconverged(matrix):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_a_site_eigh_cannot_diagonalize_is_refused_naming_the_site(monkeypatch):
    site = _EXTREME_SITES[2][0]
    message = f"the numeric route cannot diagonalize the site Hamiltonian at {site!r}: Eigenvalues did not converge"
    monkeypatch.setattr(np.linalg, "eigh", _unconverged)
    with pytest.raises(ValueError) as err:
        GridEngine("numeric", "psi", site)
    assert type(err.value) is ValueError and str(err.value) == message


def test_numeric_refusals_reach_stderr_with_their_place(capsys, monkeypatch):
    site = ["--omega0", "1", "--omega", "1e-13", "--g", "4.856243432510091e-50"]
    assert main(["evolve", "--engine", "numeric", "--family", "psi", "--alpha", "0.3", "--n-max", "2",
                 *site, "--t-max", "1e300", "--steps", "1"]) == 0
    assert capsys.readouterr().err == ""
    p = _EXTREME_SITES[2][0]
    monkeypatch.setattr(np.linalg, "eigh", _unconverged)
    assert main(["evolve", "--engine", "numeric", "--n-max", "3", "--omega0", repr(p.omega0),
                 "--omega", repr(p.omega), "--g", repr(p.g), "--t-max", "1e-300", "--steps", "1"]) == 1
    assert capsys.readouterr().err == ("error: the numeric route cannot diagonalize the site Hamiltonian "
                                       f"at {p!r}: Eigenvalues did not converge\n")


@pytest.mark.parametrize("engine", ("analytic", "numeric"))
@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_route_evolves_only_its_live_rows_and_nothing_at_construction(engine, kind, res_params, monkeypatch):
    # the stack holds the family's 5 (phi) or 4 (psi) live rows, so no row
    # off the support exists to be written (the dynamics tests hold those
    # rows to the lattice oracle), and building an engine evaluates no cell
    shapes = []
    real = engine_module.amplitudes

    def recording(*args, **kwargs):
        stack = real(*args, **kwargs)
        shapes.append(stack.shape)
        return stack

    monkeypatch.setattr(engine_module, "amplitudes", recording)
    grid = GridEngine(engine, kind, res_params)
    assert shapes == []
    grid.values([0.3, 0.9], [0.0, 1.0, 2.0])
    assert shapes == [({"phi": 5, "psi": 4}[kind], 2, 3)]


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_grids_give_empty_arrays(engine):
    grid = GridEngine(engine, "psi", JCParams(omega0=5.0, omega=5.7, g=1.0))
    for alpha_grid, t_grid in (([], [0.5, 1.0]), ([0.3], []), ([], [])):
        values = grid.values(alpha_grid, t_grid, ("AB", "Ab"))
        shape = (len(alpha_grid), len(t_grid), 2)
        assert values.concurrence.shape == values.q.shape == shape


_ORDINARY_TIMES = st.floats(-50.0, 50.0)
_EXTREME_TIMES = st.sampled_from([1e300, -1e300, 1e308, -1e308, math.nan, math.inf, -math.inf])
_BAD_ALPHAS = st.sampled_from([math.nan, math.inf, -math.inf])
_FIELDS = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)  # log-uniform


def _largest_phase_rate(engine, params):
    """The contract's rate: delta/2 on the closed route, twice the largest site energy otherwise."""
    if engine == "closed":
        return 0.5 * params.splitting
    return 2.0 * (0.5 * params.omega0 + params.omega + params.g)


@given(engine=st.sampled_from(ENGINES), kind=kinds,
       fields=st.tuples(_FIELDS, _FIELDS, _FIELDS),
       alpha_list=st.lists(st.one_of(alphas, _BAD_ALPHAS), min_size=1, max_size=3),
       t_list=st.lists(st.one_of(_ORDINARY_TIMES, _EXTREME_TIMES), min_size=1, max_size=3))
@example(engine="numeric", kind="phi", fields=(5.0, 5.0, 2.0), alpha_list=[0.3],
         t_list=[0.5, 1e308])
@example(engine="analytic", kind="psi", fields=(1e300, 1e-300, 1e300), alpha_list=[0.3],
         t_list=[1.0, -1e300])
# grids longer than the engine's Python fast check
@example(engine="analytic", kind="phi", fields=(5.0, 5.0, 2.0), alpha_list=[0.3],
         t_list=[0.5] * 40 + [1e308])
@example(engine="closed", kind="psi", fields=(5.0, 5.7, 1.0), alpha_list=[0.1] * 40 + [math.nan],
         t_list=[0.5])
@example(engine="numeric", kind="phi", fields=(5.0, 5.7, 1.0), alpha_list=[0.2, 0.4],
         t_list=np.linspace(-50.0, 50.0, 40).tolist())
# sites where one eigh of the whole site leaked or did not converge
@example(engine="numeric", kind="psi", fields=(1.0, 1e-13, 4.856243432510091e-50), alpha_list=[0.3],
         t_list=[1e300])
@example(engine="numeric", kind="psi",
         fields=(1.1671009717970596e+277, 1.3660129889829182e-219, 2.4406572640694918e+246), alpha_list=[0.3],
         t_list=[33.56047578428661])
@example(engine="numeric", kind="psi",
         fields=(2.2090347762034448e+44, 1.7583199221099784e+53, 1.5464825831913855e+285), alpha_list=[0.3],
         t_list=[1e-300])
def test_every_route_computes_or_names_what_it_refuses(engine, kind, fields, alpha_list, t_list):
    # the input contract: valid values, or a ValueError naming the first bad
    # alpha, the first bad t, or the first t whose largest phase overflows;
    # never a RuntimeWarning, a NaN trace or a bare math error
    params = JCParams(*fields)
    rate = _largest_phase_rate(engine, params)
    bad_alphas = [alpha for alpha in alpha_list if not math.isfinite(alpha)]
    bad_ts = [t for t in t_list if not math.isfinite(t)]
    overflowing = [t for t in t_list if math.isinf(rate * t)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = GridEngine(engine, kind, params)
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
    assert np.isfinite(q).all()  # every route reads every cell as X


@st.composite
def alpha_major_runs(draw, n_alpha, n_t):
    """(a, t) slices that cover an n_alpha x n_t grid in table order: whole t rows, or a run of one row's times."""
    runs, ia, it = [], 0, 0
    while ia < n_alpha:
        if it == 0 and draw(st.booleans()):
            rows = draw(st.integers(1, n_alpha - ia))
            runs.append((slice(ia, ia + rows), slice(0, n_t)))
            ia += rows
        else:
            stop = draw(st.integers(it + 1, n_t))
            runs.append((slice(ia, ia + 1), slice(it, stop)))
            ia, it = (ia + 1, 0) if stop == n_t else (ia, stop)
    return runs


@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_route_gap_names_the_whole_grid_argmax_cell(shape, data):
    # ties of the largest gap and NaNs, which beat every number, planted
    # anywhere: the comparison fed any alpha-major split of the grid names
    # np.argmax's cell, the first NaN in table order where there is one
    size = math.prod(shape)
    gap = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=size, max_size=size)))
    for value, most in ((1.0, 3), (math.nan, 2)):
        gap[data.draw(st.lists(st.integers(0, size - 1), max_size=most))] = value
    gap = gap.reshape(shape)
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=gap.size,
                                        max_size=gap.size))).reshape(shape)
    second = np.full(shape, 0.25)
    first = second + signs * gap  # exact: |first - second| is gap
    alphas, ts, pairs = np.linspace(0.0, 1.0, shape[0]), 0.5 * np.arange(shape[1]), PAIR_LABELS[:shape[2]]
    params = JCParams(omega0=5.0, omega=5.0, g=1.0)
    engines = GridEngine("closed", "phi", params), GridEngine("analytic", "phi", params)
    worst = engine_module._RouteGap(alphas, ts, pairs)
    for a, t in data.draw(alpha_major_runs(*shape[:2])):
        np.testing.assert_array_equal(worst.add(a, t, engines, first[a, t], second[a, t]), gap[a, t])
    ia, it, ip = np.unravel_index(np.argmax(gap), shape)
    assert worst.cell == (ia, it, ip) and worst.engines == engines
    np.testing.assert_array_equal(worst.gap, gap[ia, it, ip])
    assert worst.where() == f"alpha = {float(alphas[ia])!r}, t = {float(ts[it])!r}, pair {pairs[ip]}"


def test_route_gap_refuses_a_route_against_itself(res_params):
    # two streams of one route share the thread's buffer: the gap would read 0
    analytic = GridEngine("analytic", "psi", res_params)
    worst = engine_module._RouteGap([0.1], [0.0, 1.0], PAIR_LABELS)
    c = np.zeros((1, 2, 6))
    with pytest.raises(ValueError, match="^compare two routes, not the analytic route with itself$"):
        worst.add(slice(0, 1), slice(0, 2), (analytic, GridEngine("analytic", "psi", res_params)), c, c)
