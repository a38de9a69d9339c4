"""Wootters concurrence for the six subsystem pairs of the lattice, on whole stacks.

``concurrence_from_entries`` is the one reader: it takes the 10 entries on
and above the diagonal that ``linalg.pair_entries`` writes (cells last) and
checks and reads every cell from them.  X-shaped cells take the fast path,
which reads the concurrence from the entries: the corner coherence competes
with the inner populations and vice versa,

    C = 2 max{0, |z| - sqrt(b c), |w| - sqrt(a d)}.

Only cells off the X pattern are built as 4x4 matrices, for the general
route.  It computes the spin-flip spectrum through a Hermitized product:
the sqrt-eigenvalues of zeta = rho rho~ (rho~ the spin-flipped matrix)
equal the singular values of sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)),
which keeps round-off out of the square roots.  A negative ``x_tol`` sends
every cell through the general route; ``GridEngine.values`` passes it on,
which is how ``jcpairs verify`` holds the two routes together.
"""

from __future__ import annotations

import numpy as np

from .linalg import SIGMA_Y, entry_matrices, sqrt_psd

PAIR_LABELS = ("AB", "ab", "Aa", "Bb", "Ab", "Ba")

_SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)


def _reject_first(bad, values, what):
    """Raise for the first cell flagged in ``bad``, naming it when there is a stack."""
    if not bad.any():
        return
    first = int(np.flatnonzero(bad)[0])
    where = ""
    if np.ndim(bad):
        where = f" at cell {tuple(int(i) for i in np.unravel_index(first, np.shape(bad)))}"
    raise ValueError(f"invalid density matrix: {what} {np.ravel(values)[first]:.3e}{where}")


def _x_entries(entries):
    """Real diagonal (a, b, c, d) and coherence moduli |rho[0,3]|, |rho[1,2]| from the 10 ``upper_entries``."""
    return (*entries[:4].real, np.abs(entries[4]), np.abs(entries[5]))


def _x_qs(entries):
    """Signed (q_corner, q_inner) of X-shaped matrices from their ``_x_entries``."""
    a, b, c, d, z, w = entries
    a, b, c, d = (np.maximum(x, 0.0) for x in (a, b, c, d))
    return z - np.sqrt(b * c), w - np.sqrt(a * d)


def _x_lowest(entries):
    """Lowest eigenvalue of Hermitian X-shaped matrices from their ``_x_entries``, via the two 2x2 blocks.

    The square roots take sums of squares rather than ``np.hypot``, which
    runs a scalar loop; density entries are at most 1, so nothing overflows.
    """
    a, b, c, d, z, w = entries
    corner = 0.5 * (a + d) - np.sqrt(np.square(0.5 * (a - d)) + np.square(z))
    inner = 0.5 * (b + c) - np.sqrt(np.square(0.5 * (b - c)) + np.square(w))
    return np.minimum(corner, inner)


def _flip_singular_values(rho):
    """Singular values of sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)), decreasing."""
    root = sqrt_psd(rho, tol=1e-12)
    flipped_root = _SIGMA_YY @ root.conj() @ _SIGMA_YY
    return np.linalg.svd(root @ flipped_root, compute_uv=False)


def concurrence_from_entries(entries, *, x_tol=1e-10, out=None):
    """Concurrence and signed Q of Hermitian densities given as their 10 upper entries (10, ...).

    ``entries`` holds the ``linalg.ENTRY_ROWS``/``ENTRY_COLS`` entries of
    each cell, as ``linalg.pair_entries`` writes them; the results have its
    trailing shape and go to ``out`` = (C, Q) when given.  Every cell's trace
    is checked, and its PSD-ness: an X cell's lowest eigenvalue is read from
    the two 2x2 blocks, which ignoring off-X entries up to ``x_tol`` moves
    by at most sqrt(12) x_tol (Weyl), far below the 1e-8 PSD tolerance.
    Cells that are X-shaped to within ``x_tol`` take their values from the
    entries, C = 2 max{0, q_corner, q_inner} and Q = max(q_corner,
    q_inner); any other cell is built as a 4x4 matrix, goes through the
    general Wootters route and gets Q = NaN.  The first invalid cell is
    named in the error.
    """
    shape = entries.shape[1:]
    conc, q = (np.empty(shape), np.empty(shape)) if out is None else out
    diag = entries[:4].real
    trace_err = np.abs(diag[0] + diag[1] + diag[2] + diag[3] - 1.0)
    _reject_first(trace_err > 1e-8, trace_err, "trace deviates from 1 by")
    general = np.array(np.abs(entries[6:]).max(axis=0) > x_tol)  # arrays also for a single matrix
    x = _x_entries(entries)
    lowest = np.array(_x_lowest(x))
    if general.any():
        off_x = entry_matrices(entries[:, general])
        lowest[general] = np.linalg.eigvalsh(off_x)[..., 0]
    _reject_first(lowest < -1e-8, lowest, "not PSD, lowest eigenvalue")
    np.maximum(*_x_qs(x), out=q)
    np.maximum(q, 0.0, out=conc)
    conc *= 2.0
    if general.any():
        sigma = _flip_singular_values(off_x)
        conc[general] = np.maximum(0.0, sigma[..., 0] - sigma[..., 1] - sigma[..., 2] - sigma[..., 3])
        q[general] = np.nan
    return conc, q
