import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jcpairs.engine as engine_module
from conftest import closed_sampler
from jcpairs import (
    PAIR_LABELS,
    GridEngine,
    JCParams,
    ZeroInterval,
    esd_boundary_phi_AB,
    zero_intervals,
)
from jcpairs.cli import main
from jcpairs.esd import boundary_AB

G = 2.0


def engine_sampler(engine, alpha, pairs=PAIR_LABELS):
    """Array sampler of one ``GridEngine`` at one alpha, one call per array of times."""
    def sample(ts):
        values = engine.values([alpha], ts, pairs)
        return values.concurrence[0], values.q[0]

    return sample


def test_boundary_known_value():
    lo, hi = esd_boundary_phi_AB(np.pi / 8)
    # root of tan(alpha) = sin^2(Gt/2), checked against independent bisection
    target = math.tan(np.pi / 8)
    a, b = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if math.sin(mid / 2) ** 2 > target:
            b = mid
        else:
            a = mid
    assert lo == pytest.approx(a, abs=1e-9)
    assert lo == pytest.approx(1.398370, abs=1e-6)
    assert hi == pytest.approx(2 * np.pi - lo, abs=1e-12)


def test_boundary_degenerates_at_quarter_pi():
    lo, hi = esd_boundary_phi_AB(np.pi / 4 - 1e-9)
    assert lo == pytest.approx(np.pi, abs=1e-3)
    assert hi == pytest.approx(np.pi, abs=1e-3)
    assert esd_boundary_phi_AB(np.pi / 4) is None
    assert esd_boundary_phi_AB(0.3 * np.pi) is None


def test_boundary_rejects_out_of_range():
    for alpha in (-0.1, 0.0, np.pi / 2, 2.0):
        with pytest.raises(ValueError, match="alpha"):
            esd_boundary_phi_AB(alpha)


def detected_deaths(engine, alpha, params, samples=1025):
    """AB sudden-death windows in Gt over one period of the dressed splitting."""
    splitting = math.hypot(params.detuning, params.rabi(1))
    sample = engine_sampler(GridEngine(engine, "phi", params), alpha, ("AB",))
    (intervals,) = zero_intervals(sample, 0.0, 2 * np.pi / splitting, samples=samples)
    return [(iv.t_lo * params.rabi(1), iv.t_hi * params.rabi(1))
            for iv in intervals if iv.kind == "sudden_death"]


@pytest.mark.parametrize("engine", ["analytic", "numeric"])
@pytest.mark.parametrize("omega", [4.0, 6.0, 7.5])
@pytest.mark.parametrize("alpha", [0.1, 0.3, np.pi - 0.3])
def test_detuned_boundary_matches_detected_window(engine, omega, alpha):
    params = JCParams(omega0=5.0, omega=omega, g=0.5)
    ratio = math.hypot(params.detuning, params.rabi(1)) / params.rabi(1)
    window = boundary_AB("phi", alpha, params)
    if abs(math.tan(alpha)) >= 1.0 / ratio**2:
        assert window is None
        assert detected_deaths(engine, alpha, params) == []
        return
    assert window == esd_boundary_phi_AB(math.atan(abs(math.tan(alpha))), ratio)
    (detected,) = detected_deaths(engine, alpha, params)
    assert detected == pytest.approx(window, abs=1e-6)


def test_detuned_critical_angle():
    # Delta = G: the window closes at arctan(G^2/delta^2) = arctan(1/2), below pi/4
    params = JCParams(omega0=5.0, omega=6.0, g=0.5)
    critical = math.atan(0.5)
    assert esd_boundary_phi_AB(critical - 1e-3, math.sqrt(2.0)) is not None
    assert esd_boundary_phi_AB(critical + 1e-3, math.sqrt(2.0)) is None
    assert detected_deaths("analytic", critical + 1e-3, params) == []
    assert detected_deaths("analytic", critical - 1e-2, params)


def test_boundary_folds_alpha_by_tan(res_params):
    base = esd_boundary_phi_AB(0.3927)
    for alpha in (np.pi - 0.3927, -0.3927, 0.3927 - np.pi):
        assert boundary_AB("phi", alpha, res_params) == pytest.approx(base, abs=1e-12)
    assert boundary_AB("phi", 0.3927, res_params) == base
    assert boundary_AB("psi", 0.3927, res_params) is None
    for alpha in (0.0, np.pi / 2, 3 * np.pi / 4, -np.pi / 2):
        assert boundary_AB("phi", alpha, res_params) is None


def test_boundary_rejects_bad_ratio():
    for ratio in (0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="ratio"):
            esd_boundary_phi_AB(0.3, ratio)


def test_zero_intervals_phi_death_window():
    alpha = np.pi / 8
    (intervals,) = zero_intervals(closed_sampler("phi", alpha, G), 0.0, 2 * np.pi / G, samples=1025)
    assert len(intervals) == 1
    (iv,) = intervals
    assert iv.kind == "sudden_death"
    lo, hi = esd_boundary_phi_AB(alpha)
    assert iv.t_lo * G == pytest.approx(lo, abs=1e-6)
    assert iv.t_hi * G == pytest.approx(hi, abs=1e-6)


@pytest.mark.parametrize("alpha", np.linspace(0.05, 0.78, 10))
def test_zero_intervals_match_boundary(alpha):
    (intervals,) = zero_intervals(closed_sampler("phi", alpha, G), 0.0, 2 * np.pi / G, samples=2049)
    deaths = [iv for iv in intervals if iv.kind == "sudden_death"]
    assert len(deaths) == 1
    lo, hi = esd_boundary_phi_AB(alpha)
    assert deaths[0].t_lo * G == pytest.approx(lo, abs=1e-6)
    assert deaths[0].t_hi * G == pytest.approx(hi, abs=1e-6)


@pytest.mark.parametrize("alpha", [np.pi / 4, np.pi / 3])
def test_zero_intervals_touch_only_above_quarter_pi(alpha):
    (intervals,) = zero_intervals(closed_sampler("phi", alpha, G), 0.0, 4 * np.pi / G, samples=2049)
    assert intervals, "the curve does reach zero"
    assert all(iv.kind == "touch" for iv in intervals)
    # touches sit at odd multiples of pi in Gt
    touched = sorted(0.5 * (iv.t_lo + iv.t_hi) * G for iv in intervals)
    assert len(touched) == 2
    assert touched[0] == pytest.approx(np.pi, abs=1e-2)
    assert touched[1] == pytest.approx(3 * np.pi, abs=1e-2)


def test_zero_intervals_psi_never_dies():
    for alpha in (0.2, np.pi / 4, 1.1):
        per_pair = zero_intervals(
            closed_sampler("psi", alpha, G, PAIR_LABELS), 0.0, 4 * np.pi / G, samples=1025
        )
        assert len(per_pair) == len(PAIR_LABELS)
        assert all(iv.kind != "sudden_death" for intervals in per_pair for iv in intervals)


def test_zero_intervals_degenerate_curve():
    # product state: C^AB identically zero
    (intervals,) = zero_intervals(closed_sampler("phi", 0.0, G), 0.0, 3.0)
    assert intervals == [ZeroInterval(t_lo=0.0, t_hi=3.0, kind="degenerate")]


def test_zero_intervals_width_fallback_without_q():
    (plateau,) = zero_intervals(
        lambda ts: (np.maximum(0.0, np.abs(ts - 1.0) - 0.2), None), 0.0, 2.0, samples=801
    )
    assert [iv.kind for iv in plateau] == ["sudden_death"]
    assert plateau[0].t_lo == pytest.approx(0.8, abs=1e-6)
    assert plateau[0].t_hi == pytest.approx(1.2, abs=1e-6)
    (pin,) = zero_intervals(lambda ts: (np.abs(ts - 1.0), None), 0.0, 2.0, samples=801)
    assert [iv.kind for iv in pin] == ["touch"]


def test_zero_intervals_window_edges():
    # phi cavity pair starts its death window at t = 0
    (intervals,) = zero_intervals(
        closed_sampler("phi", np.pi / 8, G, ("ab",)), 0.0, 2 * np.pi / G, samples=1025
    )
    deaths = [iv for iv in intervals if iv.kind == "sudden_death"]
    assert deaths[0].t_lo == 0.0
    lo, _ = esd_boundary_phi_AB(np.pi / 8)
    # the ab window is the AB window shifted left by pi: it ends at pi - lo... mirrored
    assert deaths[0].t_hi * G == pytest.approx(2 * np.pi - (lo + np.pi), abs=1e-6)


def test_zero_intervals_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        zero_intervals(lambda ts: (np.full(ts.shape, np.nan), None), 0.0, 1.0, samples=11)


def test_zero_intervals_rejects_bad_window():
    with pytest.raises(ValueError, match="t_max"):
        zero_intervals(lambda ts: (np.ones(ts.shape), None), 1.0, 1.0)


def scalar_scan(engine, alpha, t_max, samples, tol=1e-12, q_tol=1e-9):
    """Reference scan: one-cell engine calls, then an 80-step scalar bisection per edge.

    Sudden-death edges bisect on the sign of Q from the outer sample to the
    first (last) negative-Q sample of the run; touch edges on C <= tol.
    Returns (t_lo, t_hi, kind) runs per pair.
    """
    def point(t):
        values = engine.values([alpha], [t], PAIR_LABELS)
        return values.concurrence[0, 0], values.q[0, 0]

    def bisect(inside, t_out, t_in):
        for _ in range(80):
            mid = 0.5 * (t_out + t_in)
            if inside(mid):
                t_in = mid
            else:
                t_out = mid
        return 0.5 * (t_out + t_in)

    ts = np.linspace(0.0, t_max, samples)
    cs, qs = (np.array(column) for column in zip(*(point(t) for t in ts)))
    scan = []
    for k in range(len(PAIR_LABELS)):
        runs = []
        zero = cs[:, k] <= tol
        i = 0
        while i < samples:
            if not zero[i]:
                i += 1
                continue
            j = i
            while j + 1 < samples and zero[j + 1]:
                j += 1
            negatives = np.flatnonzero(qs[i : j + 1, k] < -q_tol)
            if negatives.size:
                kind, in_lo, in_hi = "sudden_death", ts[i + negatives[0]], ts[i + negatives[-1]]
                inside = lambda t, k=k: not point(t)[1][k] > 0.0  # noqa: E731
            else:
                kind, in_lo, in_hi = "touch", ts[i], ts[j]
                inside = lambda t, k=k: point(t)[0][k] <= tol  # noqa: E731
            lo = 0.0 if i == 0 else bisect(inside, ts[i - 1], in_lo)
            hi = t_max if j == samples - 1 else bisect(inside, ts[j + 1], in_hi)
            runs.append((lo, hi, kind))
            i = j + 1
        scan.append(runs)
    return scan


@pytest.mark.parametrize("omega, alpha", [(5.0, 0.3927), (6.0, 0.3)])
def test_lockstep_edges_match_scalar_bisection(omega, alpha):
    params = JCParams(omega0=5.0, omega=omega, g=1.0)
    engine = GridEngine("analytic", "phi", params)
    t_max = 2 * np.pi / math.hypot(params.detuning, params.rabi(1))
    lockstep = zero_intervals(engine_sampler(engine, alpha), 0.0, t_max, samples=129)
    reference = scalar_scan(engine, alpha, t_max, 129)
    kinds = set()
    for got, want in zip(lockstep, reference, strict=True):
        assert [iv.kind for iv in got] == [kind for _, _, kind in want]
        for iv, (lo, hi, kind) in zip(got, want):
            assert abs(iv.t_lo - lo) <= 1e-14 and abs(iv.t_hi - hi) <= 1e-14
            kinds.add(kind)
    assert kinds == {"sudden_death", "touch"}  # both edge rules are exercised


@given(
    alpha=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
    detuning=st.floats(-2.0 * G, 2.0 * G),
    family=st.sampled_from(("phi", "psi")),
    samples=st.sampled_from((65, 129, 257)),
)
@settings(max_examples=12)
def test_itp_edges_match_scalar_bisection_property(alpha, detuning, family, samples):
    params = JCParams(omega0=5.0, omega=5.0 + detuning, g=1.0)
    engine = GridEngine("analytic", family, params)
    t_max = 2 * np.pi / math.hypot(params.detuning, params.rabi(1))
    lockstep = zero_intervals(engine_sampler(engine, alpha), 0.0, t_max, samples=samples)
    reference = scalar_scan(engine, alpha, t_max, samples)
    atol = 4 * math.ulp(t_max) + 1e-14
    for got, want in zip(lockstep, reference, strict=True):
        # a reference run over the whole window is what zero_intervals calls degenerate
        kinds = ["degenerate" if (lo, hi) == (0.0, t_max) else kind for lo, hi, kind in want]
        assert [iv.kind for iv in got] == kinds
        for iv, (lo, hi, _) in zip(got, want):
            assert abs(iv.t_lo - lo) <= atol and abs(iv.t_hi - hi) <= atol


def test_itp_takes_at_most_one_step_more_than_bisection_on_a_stalling_curve():
    # C = (t - root)^(1/8) past the root and 0 before it: regula falsi lands
    # on the flat inside end at every step, so only the projection bounds the
    # step count, at the n_1/2 + 1 of ITP's guarantee.
    root = 0.5 + 1e-3 / 3
    calls = []

    def sample(ts):
        calls.append(ts.size)
        return np.maximum(0.0, ts - root) ** 0.125, None

    (intervals,) = zero_intervals(sample, 0.0, 1.0, tol=0.0, samples=101)
    resolution = 4 * math.ulp(1.0)
    n_half = math.ceil(math.log2(0.01 / resolution))
    assert len(calls) - 1 <= n_half + 1
    assert [(iv.t_lo, iv.kind) for iv in intervals] == [(0.0, "sudden_death")]
    assert abs(intervals[0].t_hi - root) <= resolution


def test_nan_q_edges_take_midpoint_steps_to_the_bisection_edge():
    # Q is NaN on (lo_root, 0.605), inside the window where it is negative
    # (as on cells whose reduction is not X-shaped): once the lower edge's
    # inside end lands there, every further step is a midpoint.
    lo_root, hi_root = 0.3 + 1e-3 / 3, 0.7 - 1e-3 / 7
    grid = np.linspace(0.0, 1.0, 101)

    def signed_q(ts):
        return (ts - lo_root) * (ts - hi_root)

    def sample(ts):
        calls.append(ts.copy())
        q = np.where((ts > lo_root) & (ts < 0.605), np.nan, signed_q(ts))
        return np.maximum(0.0, signed_q(ts)), q

    calls = []
    (intervals,) = zero_intervals(sample, 0.0, 1.0, samples=101)
    assert [iv.kind for iv in intervals] == ["sudden_death"]
    (iv,) = intervals

    # replay the lower edge (the first pending edge in every call) from its
    # bracket: the last sample before the window, the first with finite Q
    resolution = 4 * math.ulp(1.0)
    t_out, t_in, midpoints = grid[30], grid[61], 0
    q_in = signed_q(t_in)
    for ts in calls[1:]:
        mid = 0.5 * (t_out + t_in)
        if t_in - t_out <= resolution or mid in (t_out, t_in):
            break
        t = float(ts[0])
        if math.isnan(q_in):
            assert t == mid
            midpoints += 1
        q = math.nan if lo_root < t < 0.605 else signed_q(t)
        if q > 0.0:
            t_out = t
        else:
            t_in, q_in = t, q
    assert midpoints >= 10
    assert iv.t_lo == 0.5 * (t_out + t_in)

    def bisect(inside, t_out, t_in):
        for _ in range(80):
            mid = 0.5 * (t_out + t_in)
            if inside(mid):
                t_in = mid
            else:
                t_out = mid
        return 0.5 * (t_out + t_in)

    def inside(t):
        return not sample(np.array([t]))[1][0] > 0.0

    assert abs(iv.t_lo - bisect(inside, grid[30], grid[61])) <= resolution
    assert abs(iv.t_hi - bisect(inside, grid[70], grid[69])) <= resolution


@pytest.mark.parametrize("site", [["--alpha", "0.3927"], ["--alpha", "0.3", "--omega", "6"]])
def test_esd_makes_one_sampling_call_and_one_per_halving(monkeypatch, tmp_path, site):
    calls = []
    values = engine_module.GridEngine.values

    def counted(self, *args, **kwargs):
        calls.append(args[1])
        return values(self, *args, **kwargs)

    monkeypatch.setattr(engine_module.GridEngine, "values", counted)
    out = tmp_path / "esd.json"
    assert main(["esd", "--family", "phi", *site, "--output", str(out)]) == 0
    # CLI defaults at g = 1: 1025 samples over [0, 2 pi].  Every edge here is
    # bracketed by adjacent samples, so ITP needs at most n_1/2 + 1 steps, with
    # n_1/2 the halvings from one spacing down to 4 ulp of t_max.
    samples, t_max = 1025, 2 * math.pi
    n_half = math.ceil(math.log2(t_max / (samples - 1) / (4 * math.ulp(t_max))))
    assert 2 <= len(calls) <= 1 + n_half + 1
    if site == ["--alpha", "0.3927"]:
        # below the bound, in fewer steps than bisection: the t = 0 touch edges converge too
        assert len(calls) - 1 < n_half
    assert len(calls[0]) == samples  # the sampling grid, then one call per ITP step
    assert all(len(ts) <= len(calls[1]) for ts in calls[2:])


def pair_values(kind, pair, alpha_grid, t_grid, engine="closed"):
    """C and Q of one pair over an (alpha, t) grid, each of shape (n_alpha, n_t)."""
    values = GridEngine(engine, kind, JCParams(omega0=5.0, omega=5.0, g=1.0)).values(
        alpha_grid, t_grid, (pair,))
    return values.concurrence[..., 0], values.q[..., 0]


def test_sweep_corner_values():
    conc, _ = pair_values("phi", "AB", [0.0, np.pi / 4], [0.0, np.pi / G])
    assert np.allclose(conc, [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)
    assert (conc <= 1e-12).tolist() == [[True, True], [False, True]]


def test_sweep_mask_matches_q_sign():
    alpha_grid = np.linspace(0.0, np.pi / 2, 101)
    t_grid = np.linspace(0.0, 2 * np.pi / G, 201)
    conc, q = pair_values("phi", "AB", alpha_grid, t_grid)
    # C = 2 max(0, Q) <= tol exactly when Q <= tol/2
    assert np.array_equal(conc <= 1e-12, q <= 0.5e-12)


def test_sweep_engines_agree():
    alpha_grid = np.linspace(0.0, np.pi / 2, 5)
    t_grid = np.linspace(0.0, 2 * np.pi / G, 9)
    for pair in ("AB", "Ab"):
        closed, analytic, numeric = (pair_values("phi", pair, alpha_grid, t_grid, engine)[0]
                                     for engine in ("closed", "analytic", "numeric"))
        assert np.max(np.abs(closed - analytic)) <= 1e-9
        assert np.max(np.abs(closed - numeric)) <= 1e-9
        assert np.array_equal(closed <= 1e-12, analytic <= 1e-12)
        assert np.array_equal(closed <= 1e-12, numeric <= 1e-12)


def test_sweep_cross_pair_death_cells():
    # the A-b map has death cells exactly where |sin Gt| outruns 2|tan alpha|
    alpha_grid = np.linspace(0.02, np.pi / 2 - 0.02, 21)
    t_grid = np.linspace(0.0, 2 * np.pi / G, 41)
    conc, _ = pair_values("phi", "Ab", alpha_grid, t_grid)
    for ia, alpha in enumerate(alpha_grid):
        for it, t in enumerate(t_grid):
            sin_gt = abs(math.sin(G * t))
            expected = sin_gt <= 1e-9 or 2 * abs(math.tan(alpha)) <= sin_gt + 1e-9
            if abs(2 * abs(math.tan(alpha)) - sin_gt) > 1e-6:  # skip knife-edge cells
                assert bool(conc[ia, it] <= 1e-12) == expected


def test_sweep_validations(capsys):
    base = ["sweep", "--steps", "2", "--t-max", "1.0"]
    assert main([*base, "--alpha-points", "0"]) == 1
    assert "alpha-points must be >= 1" in capsys.readouterr().err
    assert main([*base, "--alpha-min", "0.5", "--alpha-max", "0.1"]) == 1
    assert "alpha-max must exceed alpha-min" in capsys.readouterr().err
    assert main([*base, "--engine", "spectral"]) == 1
    assert "--engine" in capsys.readouterr().err
    assert main([*base, "--engine", "closed", "--omega", "6"]) == 1
    assert "closed-form engine needs resonance" in capsys.readouterr().err
