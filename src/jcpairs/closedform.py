"""Closed-form concurrences at resonance, detuned density-matrix ingredients,
and the time-independent Q combination.

Notation: alpha is the superposition angle of the initial family, G the
resonant Rabi splitting (= 2g for one excitation), and per site

    |f(t)|^2 = c0^4 + s0^4 + 2 c0^2 s0^2 cos(delta t)      (excitation on atom)
    |h(t)|^2 = c0^2 s0^2 (2 - 2 cos(delta t))              (excitation on cavity)

with c0 = cos(theta/2), s0 = sin(theta/2), delta the manifold splitting.  At
resonance |f|^2 = cos^2(Gt/2) and |h|^2 = sin^2(Gt/2).

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


def resonance_grid(kind, alphas, rabi, ts):
    """Array twin of ``resonance_values`` over 1-D grids of alpha and t.

    Returns (C, Q), each of shape (n_alpha, n_t, 6) with the pairs in
    ``PAIR_LABELS`` order (AB, ab, Aa, Bb, Ab, Ba) and Q as ``q_for`` gives
    it.  The sines and cosines are taken once per alpha and once per t with
    ``math`` (numpy's need not match libm to the last bit), and the two axes
    are combined by broadcasting in the operation order of
    ``_resonance_pieces`` and the family formulas, so every value has the
    same bits as the scalar route.
    """
    if kind not in ("phi", "psi"):
        raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")
    alphas = np.asarray(alphas, dtype=float).reshape(-1).tolist()
    halves = [0.5 * rabi * t for t in np.asarray(ts, dtype=float).reshape(-1).tolist()]
    sin_h = np.array([math.sin(half) for half in halves])
    cos_h = np.array([math.cos(half) for half in halves])
    s2, c2 = sin_h * sin_h, cos_h * cos_h
    root = np.abs(sin_h * cos_h)
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


@dataclass(frozen=True)
class OffResIngredients:
    """Coherence magnitude and opposing populations of one reduced pair.

    ``z_abs`` is the magnitude of the single nonzero coherence of the reduced
    matrix, ``b`` and ``c`` the two populations whose geometric mean opposes
    it, so Q = z_abs - sqrt(b c).  The *_cell fields give the (row, col)
    entries of the 4x4 reduced matrix (excited-first basis) each value maps
    to.
    """

    z_abs: float
    b: float
    c: float
    coherence_cell: tuple
    b_cell: tuple
    c_cell: tuple


def _site_populations(dressed, t):
    c2 = dressed.cos_half**2
    s2 = dressed.sin_half**2
    cos_dt = math.cos(dressed.splitting * t)
    f_sq = c2 * c2 + s2 * s2 + 2.0 * c2 * s2 * cos_dt
    h_sq = c2 * s2 * (2.0 - 2.0 * cos_dt)
    return f_sq, h_sq


def phi_offres_ingredients(alpha, dressed, t, pair="AB"):
    """General-detuning |z|, b, c for the (ee, gg) family, pairs AB or Ab.

    AB:  |z| = |sin a cos a| |f|^2,  b = c = cos^2(a) |f|^2 |h|^2
    Ab:  |z| = |sin a cos a| |f||h|, b = cos^2(a) |f|^4,  c = cos^2(a) |h|^4

    Both reduced matrices carry the coherence on the outer corner (rows 1<->4).
    """
    f_sq, h_sq = _site_populations(dressed, t)
    u = abs(math.sin(alpha) * math.cos(alpha))
    k = math.cos(alpha) ** 2
    if pair == "AB":
        return OffResIngredients(
            z_abs=u * f_sq,
            b=k * f_sq * h_sq,
            c=k * f_sq * h_sq,
            coherence_cell=(0, 3),
            b_cell=(1, 1),
            c_cell=(2, 2),
        )
    if pair == "Ab":
        return OffResIngredients(
            z_abs=u * math.sqrt(f_sq * h_sq),
            b=k * f_sq * f_sq,
            c=k * h_sq * h_sq,
            coherence_cell=(0, 3),
            b_cell=(1, 1),
            c_cell=(2, 2),
        )
    raise ValueError(f"pair must be 'AB' or 'Ab', got {pair!r}")


def psi_offres_ingredients(alpha, dressed, t, pair="AB"):
    """General-detuning |z|, b, c for the (eg, ge) family, pairs AB or Ab.

    Here the coherence sits on the inner anti-diagonal (rows 2<->3), and one
    of the opposing populations vanishes identically, so Q = z_abs >= 0:

    AB:  |z| = |sin a cos a| |f|^2,   b = |h|^2 (gg),             c = 0 (ee)
    Ab:  |z| = |sin a cos a| |f||h|,  b = sin^2(a)|f|^2
                                          + cos^2(a)|h|^2 (g,0), c = 0 (e,1)
    """
    f_sq, h_sq = _site_populations(dressed, t)
    u = abs(math.sin(alpha) * math.cos(alpha))
    if pair == "AB":
        return OffResIngredients(
            z_abs=u * f_sq,
            b=h_sq,
            c=0.0,
            coherence_cell=(1, 2),
            b_cell=(3, 3),
            c_cell=(0, 0),
        )
    if pair == "Ab":
        return OffResIngredients(
            z_abs=u * math.sqrt(f_sq * h_sq),
            b=math.sin(alpha) ** 2 * f_sq + math.cos(alpha) ** 2 * h_sq,
            c=0.0,
            coherence_cell=(1, 2),
            b_cell=(3, 3),
            c_cell=(0, 0),
        )
    raise ValueError(f"pair must be 'AB' or 'Ab', got {pair!r}")


def q_identity_lhs(kind, alpha, rabi, t):
    """The combination Q^AB + Q^ab + 2 Q^Aa |tan a| - 2 Q^Ab at resonance.

    Uses the signed (unclamped) Q values.  The Aa term is evaluated through
    cos^2(a) tan(a) = sin(a) cos(a), so alpha = pi/2 is regular.  For both
    families the result is independent of t.
    """
    u, k, s2, c2, root = _resonance_pieces(alpha, rabi, t)
    if kind == "phi":
        q_atoms = c2 * (u - k * s2)
        q_cavities = s2 * (u - k * c2)
        q_cross = root * (u - k * root)
    elif kind == "psi":
        q_atoms = u * c2
        q_cavities = u * s2
        q_cross = u * root
    else:
        raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")
    return q_atoms + q_cavities + 2.0 * u * root - 2.0 * q_cross
