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
``ClosedGrid`` evaluates the formulas on (alpha, t) grids at any site,
block by block.

The tan(alpha) factors of the factored resonance formulas are always combined
as cos^2(alpha) tan(alpha) = sin(alpha) cos(alpha) before use, which removes
the spurious pole at alpha = pi/2.
"""

from __future__ import annotations

import math

import numpy as np


class ClosedGrid:
    """The closed form of one family at the site ``params`` over 1-D grids of alpha and t, any detuning.

    Construction takes the sines and cosines once per alpha and once per t
    with ``math`` (numpy's need not match libm to the last bit):

        |f| = hypot(cos(delta t/2), (Delta/delta) sin(delta t/2)),
        |h| = (G/delta) |sin(delta t/2)|,

    and |f|^2, |h|^2 and |f||h| per t, the weights per alpha.  The family
    formulas take each site through |f| and |h| only, so cos^2(Gt/2),
    sin^2(Gt/2) and |sin(Gt)|/2 of the resonance formulas become |f|^2,
    |h|^2 and |f||h|.  ``write`` evaluates any block of the grid from
    them.  At resonance delta = G, G/delta = 1.0 and Delta/delta = 0.0
    exactly, and hypot(x, 0) = |x|, so every value there has the same bits
    as those formulas at that cell.  ``kind`` is "phi" or "psi", the grids
    are 1-D float arrays, and every alpha, t and half phase delta t / 2 is
    finite: ``GridEngine`` refuses any other input and any other pair label.
    """

    def __init__(self, kind, alphas, params, ts):
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
        self.kind = kind
        self.root = f_abs * h_abs
        self.rows = {"AB": (c2, s2), "ab": (s2, c2), "Ab": (self.root, self.root),
                     "Ba": (self.root, self.root)}
        self.u = np.array([abs(math.sin(alpha) * math.cos(alpha)) for alpha in alphas])[:, None]
        self.k = np.array([math.cos(alpha) ** 2 for alpha in alphas])[:, None]
        # Bb's weight, B's excited population at t = 0: cos^2 alpha in phi, sin^2 alpha in psi
        w_bb = self.k if kind == "phi" else np.array([math.sin(alpha) ** 2 for alpha in alphas])[:, None]
        self.twice_k, self.twice_w_bb = 2.0 * self.k, 2.0 * w_bb

    def write(self, pairs, a, t, conc, q):
        """C and Q of ``pairs`` at the cells (``a``, ``t``), two slices of the grids, into ``conc`` and ``q``.

        Both have shape (n_alpha, n_t, len(pairs)) of the block, one column
        per label of ``pairs`` in request order.  Ba's Q mirrors Ab's and
        Bb's is C_Bb / 2, the branch that never goes negative.  Each
        formula goes straight into its two columns, broadcasting the
        block's alpha column over its t row in the operation order of the
        scalar resonance formulas (``tests/reference.py``): every operation
        is one rounding per cell, so a cell's bits do not depend on the
        block.
        """
        u, k, root = self.u[a], self.k[a], self.root[t]
        for i, pair in enumerate(pairs):
            c_out, q_out = conc[..., i], q[..., i]
            if pair == "Bb":  # Q = C / 2, the branch that never goes negative
                np.multiply(self.twice_w_bb[a], root, out=c_out)
                np.multiply(0.5, c_out, out=q_out)
            elif pair == "Aa":
                np.multiply(k, root, out=q_out)
                if self.kind == "phi":
                    np.multiply(self.twice_k[a], root, out=c_out)
                else:
                    np.multiply(2.0, q_out, out=c_out)
            elif self.kind == "phi":  # Q = row (u - k other)
                row, other = (r[t] for r in self.rows[pair])
                np.multiply(k, other, out=c_out)
                np.subtract(u, c_out, out=c_out)
                np.multiply(row, c_out, out=q_out)
                # 2 max(0, q): the comparison sends -0.0 and NaN to +0.0, as max() does
                c_out.fill(0.0)
                np.multiply(2.0, q_out, out=c_out, where=q_out > 0.0)
            else:  # Q = u row
                np.multiply(u, self.rows[pair][0][t], out=q_out)
                np.multiply(2.0, q_out, out=c_out)
