"""The invariant suite: the paper's claims about the six pairwise concurrences.

``run_checks`` is the one place these invariants are computed; ``jcpairs
verify`` prints its result and the acceptance tests assert it.  It checks,
at one resonant site:

* engine and closed-form agreement of every C over an (alpha, t) grid;
* psi-family conservation C_AB + C_ab = |sin 2 alpha|;
* the psi cross-pair bound max C_Ab = 1/2;
* the time-independent Q combination, equal to |sin 2 alpha| / 2, on the
  closed route's Q columns;
* the shift symmetry C_ab(t + pi/G) = C_AB(t) and the pair symmetries;
* X-form universality (Yu & Eberly, QIC 7, 459 (2007)): every reduction of
  the analytic and numeric routes is X-shaped (no cell has Q = NaN) and its
  entry-read C is the general Wootters C, which ``GridEngine.values`` gives
  at ``x_tol < 0``.

Every value comes from ``GridEngine``, so the suite checks the code the CLI
runs; it picks no route itself.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import FAMILY_KINDS
from .engine import GridEngine
from .entanglement import PAIR_LABELS, pair_values
from .jcmodel import JCParams


def random_x_states(rng, count):
    """Full amplitude stack (16, count) of random pure states whose AB reduction is X-shaped.

    Each cell is drawn as a normalized Gaussian 4 x 4 factor M of its AB
    density M M^dag, with rows 0 and 3 on columns 0-1 and rows 1 and 2 on
    columns 2-3: the corner and inner blocks share no column, so every
    entry off the X pattern is exactly zero.  M's rows index the kept
    (A, B) and its columns the traced (a, b).
    """
    factor = np.zeros((4, 4, count), dtype=complex)
    for rows, cols in (((0, 3), slice(0, 2)), ((1, 2), slice(2, 4))):
        factor[rows, cols] = rng.standard_normal((2, 2, count, 2)) @ np.array([1.0, 1.0j])
    factor /= np.sqrt(np.sum(np.abs(factor) ** 2, axis=(0, 1)))
    return factor.reshape(2, 2, 2, 2, count).transpose(0, 2, 1, 3, 4).reshape(16, count)


def run_checks(params, tol, inject_fault=False):
    """(name, passed, detail) of every invariant check at the resonant site ``params``.

    ``tol`` bounds the engine and closed-form gaps; the other checks have
    fixed tolerances.  A NaN gap fails its check.  ``inject_fault`` runs
    the numeric route at omega0 + 2e-3 (every |e,k> energy 1e-3 higher,
    every |g,k> energy 1e-3 lower), a negative control that must fail the
    engine and closed-form agreement and pass every other check.
    """
    if abs(params.detuning) > 1e-12:
        raise ValueError("verify runs at resonance; set omega = omega0")
    rabi = params.rabi(1)
    alphas = np.linspace(0.0, 0.5 * math.pi, 9)
    ts = np.linspace(0.0, 4.0 * math.pi / rabi, 17)  # step pi/(4G): t + pi/G is 4 cells over

    numeric_site = JCParams(params.omega0 + 2e-3, params.omega, params.g) if inject_fault else params

    max_engine = 0.0
    max_closed = 0.0
    max_psi_conservation = 0.0
    max_pair_sym = 0.0
    max_local_sym = 0.0
    off_x_cells = 0
    max_fastpath = 0.0
    shift_gap = 0.0

    def gap(x, y):
        return float(np.max(np.abs(x - y)))

    def worst(*gaps):  # NaN if any gap is NaN, which Python's max would drop
        return float(np.max(gaps))

    for kind in FAMILY_KINDS:
        engines = (GridEngine("analytic", kind, params),
                   GridEngine("numeric", kind, numeric_site))
        results = [engine.values(alphas, ts) for engine in engines]
        analytic, numeric = (values.concurrence for values in results)
        closed = GridEngine("closed", kind, params).values(alphas, ts).concurrence
        max_engine = worst(max_engine, gap(analytic, numeric))
        max_closed = worst(max_closed, gap(closed, analytic), gap(closed, numeric))
        c = {label: analytic[..., i] for i, label in enumerate(PAIR_LABELS)}
        if kind == "psi":
            target = np.abs(np.sin(2.0 * alphas))[:, None]
            max_psi_conservation = worst(max_psi_conservation, gap(c["AB"] + c["ab"], target))
        max_pair_sym = worst(max_pair_sym, gap(c["Ba"], c["Ab"]))
        if kind == "phi":
            max_local_sym = worst(max_local_sym, gap(c["Aa"], c["Bb"]))
        # C_ab shifted by half a Rabi period reproduces C_AB (grid step is pi/(4G))
        shift_gap = worst(shift_gap, gap(c["ab"][:, 4:], c["AB"][:, :-4]))

        # every reduction of both evolution routes is X-shaped (Q is NaN on
        # any other cell), and its entry-read C is the Wootters C (x_tol < 0
        # sends every cell through the general route); the numeric route's
        # zero entries carry round-off, which the general route must not amplify
        for engine, values in zip(engines, results):
            off_x_cells += int(np.isnan(values.q).sum())
            general = engine.values(alphas, ts, x_tol=-1.0).concurrence
            max_fastpath = worst(max_fastpath, gap(values.concurrence, general))

    # C^Ab of the psi family peaks at exactly one half
    fine_alpha = np.linspace(0.0, 0.5 * math.pi, 41)
    fine_t = np.linspace(0.0, 2.0 * math.pi / rabi, 81)
    psi_closed = GridEngine("closed", "psi", params).values(fine_alpha, fine_t, ("Ab",))
    c_ab_max = float(np.max(psi_closed.concurrence))

    # Q_AB + Q_ab + 2 |tan alpha| Q_Aa - 2 Q_Ab is constant in t and equals |sin 2 alpha| / 2
    q_alphas = np.linspace(0.0, 0.5 * math.pi, 10)
    q_ts = np.linspace(0.0, 2.0 * math.pi / rabi, 100)
    max_q_std = 0.0
    max_q_gap = 0.0
    for kind in FAMILY_KINDS:
        values = GridEngine("closed", kind, params).values(q_alphas, q_ts, ("AB", "ab", "Aa", "Ab"))
        q = dict(zip(values.pairs, np.moveaxis(values.q, -1, 0)))
        lhs = q["AB"] + q["ab"] + 2.0 * np.abs(np.tan(q_alphas))[:, None] * q["Aa"] - 2.0 * q["Ab"]
        max_q_std = worst(max_q_std, float(lhs.std(axis=1).max()))
        target = 0.5 * np.abs(np.sin(2.0 * q_alphas))
        max_q_gap = worst(max_q_gap, float(np.abs(lhs.mean(axis=1) - target).max()))

    x_states = random_x_states(np.random.default_rng(7), 200)
    max_fastpath = worst(max_fastpath, gap(pair_values(x_states, ["AB"])[0],
                                           pair_values(x_states, ["AB"], x_tol=-1.0)[0]))

    return [
        ("engine_agreement", max_engine <= tol,
         f"max |C_analytic - C_numeric| = {max_engine:.3e} (tol {tol:.1e})"),
        ("closed_form_agreement", max_closed <= tol,
         f"max |C_closed - C_engine| = {max_closed:.3e} (tol {tol:.1e})"),
        ("psi_conservation", max_psi_conservation <= 1e-12,
         f"max |C_AB + C_ab - |sin 2a|| = {max_psi_conservation:.3e} (tol 1e-12)"),
        ("c_Ab_bound", abs(c_ab_max - 0.5) <= 1e-9,
         f"max C_Ab (psi) = {c_ab_max:.12f}, expected 0.5 (tol 1e-09)"),
        ("q_identity", max_q_std <= 1e-12 and max_q_gap <= 1e-12,
         f"max std over t = {max_q_std:.3e}; max |mean - |sin 2a|/2| = {max_q_gap:.3e} (tol 1e-12)"),
        ("shift_symmetry",
         shift_gap <= 1e-10 and max_pair_sym <= 1e-12 and max_local_sym <= 1e-12,
         f"max |C_ab(t+pi/G) - C_AB(t)| = {shift_gap:.3e} (tol 1e-10); "
         f"|C_Ba - C_Ab| = {max_pair_sym:.3e}, |C_Aa - C_Bb| = {max_local_sym:.3e} (tol 1e-12)"),
        ("x_form", off_x_cells == 0 and max_fastpath <= 1e-10,
         f"off-X cells (entry above 1e-10) = {off_x_cells}; "
         f"max |C_x - C_general| = {max_fastpath:.3e} (tol 1e-10)"),
    ]
