"""The invariant suite: the paper's claims about the six pairwise concurrences.

``run_checks`` is the one place these invariants are computed; ``jcpairs
verify`` prints its result and the acceptance tests assert it.  It checks,
at one resonant site:

* engine and closed-form agreement of every C over an (alpha, t) grid;
* psi-family conservation C_AB + C_ab = |sin 2 alpha|;
* the psi cross-pair bound max C_Ab = 1/2;
* the time-independent Q combination, equal to |sin 2 alpha| / 2, on the
  closed form's Q columns;
* the shift symmetry C_ab(t + pi/G) = C_AB(t) and the pair symmetries;
* X-form universality (Yu & Eberly, QIC 7, 459 (2007)): every reduction of
  the analytic and numeric routes is X-shaped and its entry-read C is the
  general Wootters C.
"""

from __future__ import annotations

import math

import numpy as np

from .closedform import closed_grid
from .dynamics import FAMILY_KINDS, HamiltonianPropagator, analytic_amplitudes, initial_amplitudes
from .engine import GridEngine
from .entanglement import PAIR_LABELS, concurrence_stack, off_x_defect
from .jcmodel import total_hamiltonian
from .linalg import pair_densities


def random_x_state(rng):
    """Random valid X-shaped density matrix (coherences inside the PSD bound)."""
    diag = rng.dirichlet(np.ones(4))
    z = rng.uniform(0.0, 0.98) * np.sqrt(diag[0] * diag[3]) * np.exp(2j * np.pi * rng.uniform())
    w = rng.uniform(0.0, 0.98) * np.sqrt(diag[1] * diag[2]) * np.exp(2j * np.pi * rng.uniform())
    rho = np.diag(diag).astype(complex)
    rho[0, 3], rho[3, 0] = z, np.conj(z)
    rho[1, 2], rho[2, 1] = w, np.conj(w)
    return rho


def run_checks(params, tol, inject_fault=False):
    """(name, passed, detail) of every invariant check at the resonant site ``params``.

    ``tol`` bounds the engine and closed-form gaps; the other checks have
    fixed tolerances.  A NaN gap fails its check.  ``inject_fault`` adds
    1e-3 to one diagonal entry of the numeric route's Hamiltonian, a
    negative control that must fail ``engine_agreement``.
    """
    if abs(params.detuning) > 1e-12:
        raise ValueError("verify runs at resonance; set omega = omega0")
    rabi = params.rabi(1)
    alphas = np.linspace(0.0, 0.5 * math.pi, 9)
    ts = np.linspace(0.0, 4.0 * math.pi / rabi, 17)  # step pi/(4G): t + pi/G is 4 cells over

    h = total_hamiltonian(params, params, n_max=1)
    if inject_fault:
        h[0, 0] += 1e-3
    propagator = HamiltonianPropagator(h)

    max_engine = 0.0
    max_closed = 0.0
    max_psi_conservation = 0.0
    max_pair_sym = 0.0
    max_local_sym = 0.0
    max_x_defect = 0.0
    max_fastpath = 0.0
    shift_gap = 0.0

    def gap(x, y):
        return float(np.max(np.abs(x - y)))

    def worst(*gaps):  # NaN if any gap is NaN, which Python's max would drop
        return float(np.max(gaps))

    for kind in FAMILY_KINDS:
        analytic = GridEngine("analytic", kind, params).values(alphas, ts).concurrence
        numeric = GridEngine("numeric", kind, params, hamiltonian=h).values(alphas, ts).concurrence
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

        # every reduction of both evolution routes is X-shaped, and its
        # entry-read C is the Wootters C (x_tol < 0 sends every cell through
        # the general route); the numeric route's zero entries carry
        # round-off, which the general route must not amplify
        routes = ((analytic_amplitudes(kind, alphas, ts, params), analytic),
                  (propagator.evolve_grid(initial_amplitudes(kind, alphas), ts), numeric))
        for psi, conc in routes:
            rho = pair_densities(psi, PAIR_LABELS)  # (alpha, t, pair, 4, 4), as conc
            max_x_defect = worst(max_x_defect, float(np.max(off_x_defect(rho))))
            max_fastpath = worst(max_fastpath, gap(conc, concurrence_stack(rho, x_tol=-1.0)[0]))

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
        q = dict(zip(PAIR_LABELS, np.moveaxis(closed_grid(kind, q_alphas, params, q_ts)[1], -1, 0)))
        lhs = q["AB"] + q["ab"] + 2.0 * np.abs(np.tan(q_alphas))[:, None] * q["Aa"] - 2.0 * q["Ab"]
        max_q_std = worst(max_q_std, float(lhs.std(axis=1).max()))
        target = 0.5 * np.abs(np.sin(2.0 * q_alphas))
        max_q_gap = worst(max_q_gap, float(np.abs(lhs.mean(axis=1) - target).max()))

    rng = np.random.default_rng(7)
    states = np.array([random_x_state(rng) for _ in range(200)])
    max_fastpath = worst(max_fastpath, gap(concurrence_stack(states)[0],
                                           concurrence_stack(states, x_tol=-1.0)[0]))

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
        ("x_form", max_x_defect <= 1e-10 and max_fastpath <= 1e-10,
         f"max off-X entry = {max_x_defect:.3e}; max |C_x - C_general| = {max_fastpath:.3e} (tol 1e-10)"),
    ]
