"""Closed-form concurrences and signed Q of all six pairs at any detuning.

Notation: alpha is the superposition angle of the initial family, G the
resonant Rabi splitting (= 2g for one excitation), Delta = omega - omega0 the
detuning and delta = hypot(Delta, G) the manifold splitting.  A site that
starts in |e, 0> evolves to f |e, 0> + h |g, 1> with

    |f(t)|^2 = cos^2(delta t/2) + (Delta/delta)^2 sin^2(delta t/2)   (excitation on atom)
    |h(t)|^2 = (G/delta)^2 sin^2(delta t/2)                          (excitation on cavity)

(Yonac, Yu & Eberly, J. Phys. B 39, S621 (2006); all six pairs in J. Phys.
B 40, S45 (2007)).  Every pair's reduced
matrix is an X state whose entries depend on each site through |f| and |h|
only, so one set of family formulas holds at every detuning; at resonance
|f|^2 = cos^2(Gt/2) and |h|^2 = sin^2(Gt/2), the paper's form.
``closed_grid`` evaluates the formulas on whole (alpha, t) grids at any
site.

The tan(alpha) factors of the factored resonance formulas are always combined
as cos^2(alpha) tan(alpha) = sin(alpha) cos(alpha) before use, which removes
the spurious pole at alpha = pi/2.
"""

from __future__ import annotations

import math

import numpy as np


def closed_grid(kind, alphas, params, ts):
    """The closed form over 1-D grids of alpha and t at the site ``params``, any detuning.

    Returns (C, Q), each of shape (n_alpha, n_t, 6) with the pairs in
    ``PAIR_LABELS`` order (AB, ab, Aa, Bb, Ab, Ba).  Ba's Q mirrors Ab's and
    Bb's is C_Bb / 2, the branch that never goes negative.  The family
    formulas take each site through |f| and |h| only, so cos^2(Gt/2),
    sin^2(Gt/2) and |sin(Gt)|/2 of the resonance formulas become |f|^2,
    |h|^2 and |f||h| with

        |f| = hypot(cos(delta t/2), (Delta/delta) sin(delta t/2)),
        |h| = (G/delta) |sin(delta t/2)|.

    The sines and cosines are taken once per alpha and once per t with
    ``math`` (numpy's need not match libm to the last bit), and the two axes
    are combined by broadcasting in the operation order of the scalar
    resonance formulas (``tests/reference.py``).  At resonance delta = G,
    G/delta = 1.0 and Delta/delta = 0.0 exactly, and hypot(x, 0) = |x|, so
    every value there has the same bits as those formulas at that cell.
    ``kind`` is "phi" or "psi", the grids are 1-D float arrays, and every
    alpha, t and half phase delta t / 2 is finite: ``GridEngine`` refuses
    any other input.
    """
    alphas = alphas.tolist()
    rabi, delta = params.rabi(1), params.splitting
    coupled, detuned = rabi / delta, params.detuning / delta
    f_abs, h_abs = [], []
    for t in ts.tolist():
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
