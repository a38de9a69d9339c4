import math

import numpy as np
import pytest

from jcpairs import (
    InitialFamily,
    all_pairwise,
    evolve_analytic,
    phi_resonance,
    psi_resonance,
    q_identity_lhs,
    resonance_values,
)

G = 2.0  # resonance Rabi splitting for g = 1


def test_phi_bell_initial_values():
    vals = phi_resonance(np.pi / 4, G, 0.0)
    assert vals.concurrence["AB"] == pytest.approx(1.0)
    for pair in ("ab", "Aa", "Bb", "Ab", "Ba"):
        assert vals.concurrence[pair] == pytest.approx(0.0, abs=1e-15)


def test_phi_product_state_stays_zero():
    for gt in np.linspace(0.0, 4 * np.pi, 20):
        vals = phi_resonance(0.0, G, gt / G)
        assert vals.concurrence["AB"] == 0.0
        assert vals.q["AB"] <= 0.0


def test_phi_inside_death_window(res_params):
    # alpha = pi/8, Gt = 2 sits inside the death window: Q < 0, C = 0
    alpha, t = np.pi / 8, 2.0 / G
    vals = phi_resonance(alpha, G, t)
    assert vals.concurrence["AB"] == 0.0
    assert vals.q["AB"] == pytest.approx(-0.0732, abs=5e-5)
    engine = all_pairwise(evolve_analytic(InitialFamily("phi", alpha), res_params, t))
    assert engine["AB"].value == pytest.approx(0.0, abs=1e-12)
    assert engine["AB"].q == pytest.approx(vals.q["AB"], abs=1e-12)


def test_phi_alpha_half_pi_is_regular():
    vals = phi_resonance(np.pi / 2, G, 0.7)
    for pair in vals.concurrence:
        assert vals.concurrence[pair] == pytest.approx(0.0, abs=1e-15)


def test_psi_cross_pair_maximum():
    vals = psi_resonance(np.pi / 4, G, (np.pi / 2) / G)
    assert vals.concurrence["Ab"] == pytest.approx(0.5, abs=1e-15)
    assert vals.concurrence["Ba"] == pytest.approx(0.5, abs=1e-15)


def test_psi_conservation_of_total():
    for alpha in np.linspace(0.0, np.pi / 2, 11):
        for gt in np.linspace(0.0, 4 * np.pi, 17):
            vals = psi_resonance(alpha, G, gt / G)
            total = vals.concurrence["AB"] + vals.concurrence["ab"]
            assert total == pytest.approx(abs(math.sin(2 * alpha)), abs=1e-14)


def test_psi_alpha_pi_third(res_params):
    t = np.pi / G
    vals = psi_resonance(np.pi / 3, G, t)
    assert vals.concurrence["AB"] == pytest.approx(0.0, abs=1e-15)
    assert vals.concurrence["ab"] == pytest.approx(abs(math.sin(2 * np.pi / 3)), abs=1e-15)
    engine = all_pairwise(evolve_analytic(InitialFamily("psi", np.pi / 3), res_params, t))
    assert engine["ab"].value == pytest.approx(vals.concurrence["ab"], abs=1e-12)


def test_shift_relation_between_formulas():
    shift = np.pi / G
    for alpha in (0.2, np.pi / 4, 1.3):
        for t in np.linspace(0.0, 5.0, 23):
            phi_now = phi_resonance(alpha, G, t)
            phi_later = phi_resonance(alpha, G, t + shift)
            assert phi_later.concurrence["ab"] == pytest.approx(
                phi_now.concurrence["AB"], abs=1e-12
            )
            psi_now = psi_resonance(alpha, G, t)
            psi_later = psi_resonance(alpha, G, t + shift)
            assert psi_later.concurrence["ab"] == pytest.approx(
                psi_now.concurrence["AB"], abs=1e-12
            )


def test_closed_form_matches_engine_grid(res_params):
    rabi = res_params.rabi(1)
    worst = 0.0
    for kind in ("phi", "psi"):
        for alpha in np.linspace(0.0, np.pi / 2, 7):
            fam = InitialFamily(kind, alpha)
            for gt in np.linspace(0.0, 4 * np.pi, 13):
                t = gt / rabi
                engine = all_pairwise(evolve_analytic(fam, res_params, t))
                closed = resonance_values(kind, alpha, rabi, t)
                for pair, cf in closed.concurrence.items():
                    worst = max(worst, abs(cf - engine[pair].value))
    assert worst <= 1e-9


def test_every_c_is_clamped_q():
    for kind, fn in (("phi", phi_resonance), ("psi", psi_resonance)):
        for alpha in (0.1, 0.6, 1.5):
            for t in np.linspace(0.0, 3.0, 11):
                vals = fn(alpha, G, t)
                for pair, q in vals.q.items():
                    assert vals.concurrence[pair] == pytest.approx(2 * max(0.0, q), abs=1e-15)
                for pair, c in vals.concurrence.items():
                    assert 0.0 <= c <= 1.0 + 1e-15


def test_q_for_covers_all_pairs():
    vals = psi_resonance(0.7, G, 0.4)
    assert vals.q_for("Ba") == vals.q["Ab"]
    assert vals.q_for("Bb") == pytest.approx(0.5 * vals.concurrence["Bb"], abs=1e-15)
    with pytest.raises(KeyError):
        vals.q_for("xy")


def test_q_identity_vanishes_for_product_state():
    for t in np.linspace(0.0, 5.0, 11):
        assert q_identity_lhs("phi", 0.0, G, t) == pytest.approx(0.0, abs=1e-15)
        assert q_identity_lhs("psi", 0.0, G, t) == pytest.approx(0.0, abs=1e-15)


def test_q_identity_time_independent_constant():
    ts = np.linspace(0.0, 2 * np.pi / G, 100)
    for kind in ("phi", "psi"):
        for alpha in np.linspace(0.0, np.pi / 2, 10):
            vals = np.array([q_identity_lhs(kind, alpha, G, t) for t in ts])
            assert vals.std() <= 1e-12
            # the measured constant is half the initial concurrence
            assert vals.mean() == pytest.approx(0.5 * abs(math.sin(2 * alpha)), abs=1e-12)
