"""Closed-form concurrences at any detuning and the time-independent Q combination.

Notation: alpha is the superposition angle of the initial family, G the
resonant Rabi splitting (= 2g for one excitation), Delta = omega - omega0 the
detuning and delta = hypot(Delta, G) the manifold splitting.  A site that
starts in |e, 0> evolves to f |e, 0> + h |g, 1> with

    |f(t)|^2 = cos^2(delta t/2) + (Delta/delta)^2 sin^2(delta t/2)   (excitation on atom)
    |h(t)|^2 = (G/delta)^2 sin^2(delta t/2)                          (excitation on cavity)

(Yonac, Yu & Eberly, J. Phys. B 39, S621 (2006)).  Every pair's reduced
matrix is an X state whose entries depend on each site through |f| and |h|
only, so one set of family formulas holds at every detuning.  At resonance
|f|^2 = cos^2(Gt/2) and |h|^2 = sin^2(Gt/2); ``phi_resonance``,
``psi_resonance`` and ``resonance_values`` are the scalar paper form there,
and ``closed_grid`` evaluates the formulas on whole (alpha, t) grids at any
site.

The tan(alpha) factors of the factored resonance formulas are always combined
as cos^2(alpha) tan(alpha) = sin(alpha) cos(alpha) before use, which removes
the spurious pole at alpha = pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Q_PAIRS = ("AB", "ab", "Ab", "Aa")


@dataclass(frozen=True)
class ClosedFormValues:
    """Six concurrences plus signed Q for the representative pairs AB, ab, Ab, Aa."""

    concurrence: dict
    q: dict

    def q_for(self, pair):
        """Signed Q for any pair; Ba mirrors Ab, Bb's branch is never negative."""
        if pair in self.q:
            return self.q[pair]
        if pair == "Ba":
            return self.q["Ab"]
        if pair == "Bb":
            return 0.5 * self.concurrence["Bb"]
        raise KeyError(pair)


def _resonance_pieces(alpha, rabi, t):
    half = 0.5 * rabi * t
    sin_h, cos_h = math.sin(half), math.cos(half)
    s2, c2 = sin_h * sin_h, cos_h * cos_h
    root = abs(sin_h * cos_h)  # = |f||h| = |sin(G t)| / 2
    u = abs(math.sin(alpha) * math.cos(alpha))
    k = math.cos(alpha) ** 2
    return u, k, s2, c2, root


def phi_resonance(alpha, rabi, t):
    """Resonance values for the (ee, gg) family.

    Q^AB = cos^2(a) cos^2(Gt/2) [tan(a) - sin^2(Gt/2)] and its (Gt -> Gt+pi)
    mirror for the cavity pair; the cross pair carries
    Q^Ab = (1/4) cos^2(a) |sin Gt| (2|tan a| - |sin Gt|); the local pairs give
    C^Aa = C^Bb = cos^2(a) |sin Gt|.  Each C is 2 max{0, Q}.
    """
    u, k, s2, c2, root = _resonance_pieces(alpha, rabi, t)
    q = {
        "AB": c2 * (u - k * s2),
        "ab": s2 * (u - k * c2),
        "Ab": root * (u - k * root),
        "Aa": k * root,
    }
    c_aa = 2.0 * k * root
    conc = {
        "AB": 2.0 * max(0.0, q["AB"]),
        "ab": 2.0 * max(0.0, q["ab"]),
        "Aa": c_aa,
        "Bb": c_aa,
        "Ab": 2.0 * max(0.0, q["Ab"]),
        "Ba": 2.0 * max(0.0, q["Ab"]),
    }
    return ClosedFormValues(concurrence=conc, q=q)


def psi_resonance(alpha, rabi, t):
    """Resonance values for the (eg, ge) family.

    C^AB = |sin 2a| cos^2(Gt/2), C^ab = |sin 2a| sin^2(Gt/2) (their sum is the
    initial concurrence |sin 2a|); C^Ab = C^Ba = |sin a cos a| |sin Gt| with
    maximum 1/2; C^Aa = cos^2(a)|sin Gt| and C^Bb = sin^2(a)|sin Gt|.  No Q
    can go negative, so no pair suffers sudden death.
    """
    u, k, s2, c2, root = _resonance_pieces(alpha, rabi, t)
    q = {
        "AB": u * c2,
        "ab": u * s2,
        "Ab": u * root,
        "Aa": k * root,
    }
    conc = {
        "AB": 2.0 * q["AB"],
        "ab": 2.0 * q["ab"],
        "Aa": 2.0 * q["Aa"],
        "Bb": 2.0 * (math.sin(alpha) ** 2) * root,
        "Ab": 2.0 * q["Ab"],
        "Ba": 2.0 * q["Ab"],
    }
    return ClosedFormValues(concurrence=conc, q=q)


def resonance_values(kind, alpha, rabi, t):
    """Dispatch to the family's resonance formulas ('phi' or 'psi')."""
    if kind == "phi":
        return phi_resonance(alpha, rabi, t)
    if kind == "psi":
        return psi_resonance(alpha, rabi, t)
    raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")


def closed_grid(kind, alphas, params, ts):
    """The closed form over 1-D grids of alpha and t at the site ``params``, any detuning.

    Returns (C, Q), each of shape (n_alpha, n_t, 6) with the pairs in
    ``PAIR_LABELS`` order (AB, ab, Aa, Bb, Ab, Ba) and Q as ``q_for`` gives
    it.  The family formulas take each site through |f| and |h| only, so
    cos^2(Gt/2), sin^2(Gt/2) and |sin(Gt)|/2 of the resonance formulas
    become |f|^2, |h|^2 and |f||h| with

        |f| = hypot(cos(delta t/2), (Delta/delta) sin(delta t/2)),
        |h| = (G/delta) |sin(delta t/2)|.

    The sines and cosines are taken once per alpha and once per t with
    ``math`` (numpy's need not match libm to the last bit), and the two axes
    are combined by broadcasting in the operation order of
    ``_resonance_pieces`` and the family formulas.  At resonance delta = G,
    G/delta = 1.0 and Delta/delta = 0.0 exactly, and hypot(x, 0) = |x|, so
    every value there has the same bits as ``resonance_values``.
    """
    if kind not in ("phi", "psi"):
        raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")
    alphas = np.asarray(alphas, dtype=float).reshape(-1).tolist()
    rabi = params.rabi(1)
    delta = math.hypot(params.detuning, rabi)
    coupled, detuned = rabi / delta, params.detuning / delta
    f_abs, h_abs = [], []
    for t in np.asarray(ts, dtype=float).reshape(-1).tolist():
        half = 0.5 * delta * t
        sin_h, cos_h = math.sin(half), math.cos(half)
        f_abs.append(math.hypot(cos_h, detuned * sin_h))
        h_abs.append(abs(coupled * sin_h))
    f_abs, h_abs = np.array(f_abs), np.array(h_abs)
    s2, c2 = h_abs * h_abs, f_abs * f_abs
    root = f_abs * h_abs
    u = np.array([abs(math.sin(alpha) * math.cos(alpha)) for alpha in alphas])[:, None]
    k = np.array([math.cos(alpha) ** 2 for alpha in alphas])[:, None]
    q_local = k * root
    if kind == "phi":
        q_atoms = c2 * (u - k * s2)
        q_cavities = s2 * (u - k * c2)
        q_cross = root * (u - k * root)
        # 2 max(0, q): the comparison sends -0.0 and NaN to +0.0, as max() does
        c_atoms, c_cavities, c_cross = (
            2.0 * np.where(q > 0.0, q, 0.0) for q in (q_atoms, q_cavities, q_cross)
        )
        c_aa = c_bb = 2.0 * k * root
    else:
        q_atoms, q_cavities, q_cross = u * c2, u * s2, u * root
        c_atoms, c_cavities, c_cross = 2.0 * q_atoms, 2.0 * q_cavities, 2.0 * q_cross
        c_aa = 2.0 * q_local
        sin_sq = np.array([math.sin(alpha) ** 2 for alpha in alphas])[:, None]
        c_bb = 2.0 * sin_sq * root
    conc = np.stack([c_atoms, c_cavities, c_aa, c_bb, c_cross, c_cross], axis=-1)
    q = np.stack([q_atoms, q_cavities, q_local, 0.5 * c_bb, q_cross, q_cross], axis=-1)
    return conc, q


def q_identity_lhs(kind, alpha, rabi, t):
    """The combination Q^AB + Q^ab + 2 Q^Aa |tan a| - 2 Q^Ab at resonance.

    Uses the signed (unclamped) Q values.  The Aa term is evaluated through
    cos^2(a) tan(a) = sin(a) cos(a), so alpha = pi/2 is regular.  For both
    families the result is independent of t.
    """
    q = resonance_values(kind, alpha, rabi, t).q
    u, _, _, _, root = _resonance_pieces(alpha, rabi, t)
    return q["AB"] + q["ab"] + 2.0 * u * root - 2.0 * q["Ab"]
