import math

import numpy as np
import pytest

from jcpairs import PAIR_LABELS, GridEngine, JCParams

RES = JCParams(omega0=5.0, omega=5.0, g=1.0)
G = RES.rabi(1)  # resonance Rabi splitting 2


def route(kind, alphas, ts, params=RES, engine="closed"):
    """(C, Q) of a route (the closed form by default) as dicts keyed by pair of (n_alpha, n_t) arrays."""
    values = GridEngine(engine, kind, params).values(np.atleast_1d(alphas), np.atleast_1d(ts))
    return tuple({pair: field[..., i] for i, pair in enumerate(PAIR_LABELS)}
                 for field in (values.concurrence, values.q))


def q_identity_lhs(q, alphas):
    """Q^AB + Q^ab + 2 |tan a| Q^Aa - 2 Q^Ab over (n_alpha, n_t)."""
    return q["AB"] + q["ab"] + 2.0 * np.abs(np.tan(alphas))[:, None] * q["Aa"] - 2.0 * q["Ab"]


def test_phi_bell_initial_values():
    conc, _ = route("phi", np.pi / 4, 0.0)
    assert conc["AB"] == pytest.approx(1.0)
    for pair in ("ab", "Aa", "Bb", "Ab", "Ba"):
        assert conc[pair] == pytest.approx(0.0, abs=1e-15)


def test_phi_product_state_stays_zero():
    conc, q = route("phi", 0.0, np.linspace(0.0, 4 * np.pi, 20) / G)
    assert np.all(conc["AB"] == 0.0)
    assert np.all(q["AB"] <= 0.0)


def test_phi_inside_death_window():
    # alpha = pi/8, Gt = 2 sits inside the death window: Q < 0, C = 0
    alpha, t = np.pi / 8, 2.0 / G
    conc, q = route("phi", alpha, t)
    assert conc["AB"] == 0.0
    assert q["AB"] == pytest.approx(-0.0732, abs=5e-5)
    engine_c, engine_q = route("phi", alpha, t, engine="analytic")
    assert engine_c["AB"] == pytest.approx(0.0, abs=1e-12)
    assert engine_q["AB"] == pytest.approx(q["AB"], abs=1e-12)


def test_phi_alpha_half_pi_is_regular():
    conc, _ = route("phi", np.pi / 2, 0.7)
    for pair in PAIR_LABELS:
        assert conc[pair] == pytest.approx(0.0, abs=1e-15)


def test_psi_cross_pair_maximum():
    conc, _ = route("psi", np.pi / 4, (np.pi / 2) / G)
    assert conc["Ab"] == pytest.approx(0.5, abs=1e-15)
    assert conc["Ba"] == pytest.approx(0.5, abs=1e-15)


def test_psi_conservation_of_total():
    alphas = np.linspace(0.0, np.pi / 2, 11)
    conc, _ = route("psi", alphas, np.linspace(0.0, 4 * np.pi, 17) / G)
    target = np.abs(np.sin(2 * alphas))[:, None]
    assert np.max(np.abs(conc["AB"] + conc["ab"] - target)) <= 1e-14


def test_psi_alpha_pi_third():
    t = np.pi / G
    conc, _ = route("psi", np.pi / 3, t)
    assert conc["AB"] == pytest.approx(0.0, abs=1e-15)
    assert conc["ab"] == pytest.approx(abs(math.sin(2 * np.pi / 3)), abs=1e-15)
    engine_c, _ = route("psi", np.pi / 3, t, engine="analytic")
    assert engine_c["ab"] == pytest.approx(conc["ab"], abs=1e-12)


def test_shift_relation_between_formulas():
    alphas, ts = np.array([0.2, np.pi / 4, 1.3]), np.linspace(0.0, 5.0, 23)
    for kind in ("phi", "psi"):
        now, _ = route(kind, alphas, ts)
        later, _ = route(kind, alphas, ts + np.pi / G)
        assert np.max(np.abs(later["ab"] - now["AB"])) <= 1e-12


def test_closed_form_matches_engine_grid():
    alphas, ts = np.linspace(0.0, np.pi / 2, 7), np.linspace(0.0, 4 * np.pi, 13) / G
    for kind in ("phi", "psi"):
        closed_c, _ = route(kind, alphas, ts)
        engine_c, _ = route(kind, alphas, ts, engine="analytic")
        for pair in PAIR_LABELS:
            assert np.max(np.abs(closed_c[pair] - engine_c[pair])) <= 1e-9


def test_every_c_is_clamped_q():
    for kind in ("phi", "psi"):
        conc, q = route(kind, [0.1, 0.6, 1.5], np.linspace(0.0, 3.0, 11))
        for pair in PAIR_LABELS:
            assert np.max(np.abs(conc[pair] - 2 * np.maximum(0.0, q[pair]))) <= 1e-15
            assert np.all((0.0 <= conc[pair]) & (conc[pair] <= 1.0 + 1e-15))


def test_q_for_covers_all_pairs():
    # Ba mirrors Ab; Bb's Q is the branch that never goes negative, C_Bb / 2
    conc, q = route("psi", 0.7, 0.4)
    assert q["Ba"] == q["Ab"]
    assert q["Bb"] == pytest.approx(0.5 * conc["Bb"], abs=1e-15)


def test_q_identity_vanishes_for_product_state():
    for kind in ("phi", "psi"):
        _, q = route(kind, 0.0, np.linspace(0.0, 5.0, 11))
        assert np.max(np.abs(q_identity_lhs(q, np.zeros(1)))) <= 1e-15


def test_q_identity_time_independent_constant():
    # |f|^2 + |h|^2 = 1 at every detuning, so the combination stays u = |sin 2 alpha| / 2
    alphas = np.linspace(0.0, np.pi / 2, 10)
    for params in (RES, JCParams(omega0=5.0, omega=6.1, g=0.7)):
        ts = np.linspace(0.0, 2 * np.pi / params.rabi(1), 100)
        for kind, engine in ((k, e) for k in ("phi", "psi") for e in ("closed", "analytic")):
            lhs = q_identity_lhs(route(kind, alphas, ts, params, engine)[1], alphas)
            assert np.max(lhs.std(axis=1)) <= 1e-12
            # the measured constant is half the initial concurrence
            assert np.max(np.abs(lhs.mean(axis=1) - 0.5 * np.abs(np.sin(2 * alphas)))) <= 1e-12
