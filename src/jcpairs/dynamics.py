"""Initial states of the two-site lattice and their time evolution on (alpha, t) grids.

Two independent engines produce the evolving pure states: an analytic
propagator that phases the dressed states of each site (restricted to the
single-excitation ladder the initial families live in,
``analytic_amplitudes``), and brute-force spectral decomposition of the full
Hamiltonian matrix (``HamiltonianPropagator.evolve_grid``).  Both use the
literal Hamiltonian's energy zero point, so they agree at the amplitude
level, not just in derived quantities.

Both evolve a whole (alpha, t) block at once and return amplitude stacks
with the cells last, shape (2, d, 2, d, n_alpha, n_t): each amplitude is one
row of n_alpha n_t values, which is what the reducer
(``linalg.pair_entries``) works on.  Given a ``linalg.Workspace``, they
write their result and their temporaries into its buffers.
"""

from __future__ import annotations

import numpy as np

from .jcmodel import dressed_data
from .linalg import Workspace, hermiticity_defect

FAMILY_KINDS = ("phi", "psi")

# (A, a, B, b) cells carrying cos(alpha) and sin(alpha) at t = 0
_INITIAL_CELLS = {
    "phi": ((0, 0, 0, 0), (1, 0, 1, 0)),  # |e,0,e,0>, |g,0,g,0>
    "psi": ((0, 0, 1, 0), (1, 0, 0, 0)),  # |e,0,g,0>, |g,0,e,0>
}


def initial_amplitudes(kind, alphas, n_max=1):
    """Initial tensors (2, n_max+1, 2, n_max+1, *alphas.shape) of the family, one per alpha."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    alphas = np.asarray(alphas, dtype=float)
    n_ph = n_max + 1
    psi = np.zeros((2, n_ph, 2, n_ph) + alphas.shape, dtype=complex)
    first, second = _INITIAL_CELLS[kind]
    psi[first] = np.cos(alphas)
    psi[second] = np.sin(alphas)
    return psi


def _site_factors(params, t):
    """Amplitude pair (f, h) for |e,0> -> f|e,0> + h|g,1>, plus the |g,0> phase.

    Uses the literal site spectrum: n=1 manifold energies omega/2 +- delta/2
    (whose eigenvectors pair the upper level with (sin, cos) of the half
    mixing angle) and ground energy -omega0/2, at every time of the array ``t``.
    """
    d = dressed_data(params, 1)
    center = 0.5 * params.omega
    e_up = np.exp(-1j * (center + 0.5 * d.splitting) * t)
    e_dn = np.exp(-1j * (center - 0.5 * d.splitting) * t)
    f = d.sin_half**2 * e_up + d.cos_half**2 * e_dn
    h = d.sin_half * d.cos_half * (e_up - e_dn)
    ground = np.exp(0.5j * params.omega0 * t)
    return f, h, ground


def analytic_amplitudes(kind, alphas, ts, params, *, work=None):
    """The family evolved to every (alpha, t) by dressed-state phases, shape (2, 2, 2, 2, n_alpha, n_t).

    Both sites share ``params``; the state stays in the single-excitation
    ladder of each site, so the stack has n_max = 1.  The products run on
    flat vectors of the n_alpha n_t cells, so each cell takes the same numpy
    loop whatever the block's shape (a one-cell block broadcast from an
    (n_alpha, 1) and an (n_t,) operand takes a loop that rounds complex
    products differently).  The stack is the ``"amplitudes"`` buffer of
    ``work`` when one is given.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    f, h, ground = (np.tile(x, alphas.size) for x in _site_factors(params, ts))
    ca, sa = (np.repeat(trig(alphas), ts.size).astype(complex) for trig in (np.cos, np.sin))
    psi = (Workspace() if work is None else work).get("amplitudes", (2, 2, 2, 2, alphas.size, ts.size))
    psi.fill(0.0)
    cells = psi.reshape(2, 2, 2, 2, -1)
    if kind == "phi":
        cells[0, 0, 0, 0] = ca * f * f
        cells[0, 0, 1, 1] = ca * f * h
        cells[1, 1, 0, 0] = ca * h * f
        cells[1, 1, 1, 1] = ca * h * h
        cells[1, 0, 1, 0] = sa * ground * ground
    else:
        cells[0, 0, 1, 0] = ca * f * ground
        cells[1, 1, 1, 0] = ca * h * ground
        cells[1, 0, 0, 0] = sa * ground * f
        cells[1, 0, 1, 1] = sa * ground * h
    return psi


class HamiltonianPropagator:
    """Exact propagator exp(-i H t) from one spectral decomposition of H."""

    def __init__(self, h, *, herm_tol=1e-12):
        h = np.asarray(h, dtype=complex)
        defect = hermiticity_defect(h)
        if defect > herm_tol:
            raise ValueError(f"Hamiltonian is not Hermitian: asymmetry {defect:.3e}")
        self._dim = h.shape[0]
        self._w, self._v = np.linalg.eigh(h)
        self._v_conj = self._v.conj()

    def evolve_grid(self, psi0, ts, *, work=None):
        """Evolve initial tensors (..., n_states) to every time in ``ts``, shape (..., n_states, n_t).

        The amplitudes are V (exp(-i Lambda t) (V^dag psi0)): the phased
        eigen-coefficients of all cells form one (cells, dim) matrix X, and
        one product X V^T gives every cell's amplitudes, which are then
        laid out with the cells last.  Both products take at least two
        rows (a lone row gets a zero row below it): OpenBLAS computes a
        one-row product by its vector kernel, whose rounding differs, and
        with two or more rows each row's bits do not depend on the others.  So a cell's
        amplitudes do not depend on how the grid is split into calls.  The
        result and the temporaries live in ``work`` (a ``Workspace``) when
        one is given.
        """
        psi0 = np.asarray(psi0, dtype=complex)
        n_states = psi0.shape[-1]
        flat = psi0.reshape(-1, n_states)
        if flat.shape[0] != self._dim:
            raise ValueError(
                f"dimension mismatch: states have {flat.shape[0]} amplitudes, "
                f"Hamiltonian is {self._dim}x{self._dim}"
            )
        if work is None:
            work = Workspace()
        ts = np.asarray(ts, dtype=float).reshape(-1)
        n_t, cells = ts.size, n_states * ts.size
        coeffs = _at_least_two_rows(flat.T) @ self._v_conj
        # the exponent -i w t written in place as (+0, t (-w)): the bits of -1j * outer(ts, w)
        phases = work.get("evolve.phases", (n_t, self._dim))
        phases.real = 0.0
        np.multiply.outer(ts, -self._w, out=phases.imag)
        np.exp(phases, out=phases)
        x = work.get("evolve.x", (max(cells, 2), self._dim))
        np.multiply(coeffs[:n_states, None, :], phases, out=x[:cells].reshape(n_states, n_t, self._dim))
        x[cells:] = 0.0
        y = np.matmul(x, self._v.T, out=work.get("evolve.y", x.shape))
        out = work.get("amplitudes", psi0.shape + (n_t,))
        np.copyto(out.reshape(self._dim, cells), y[:cells].T)
        return out


def _at_least_two_rows(rows):
    """``rows`` (n, k), with a zero row below it when n = 1."""
    return np.concatenate([rows, np.zeros_like(rows)]) if rows.shape[0] == 1 else rows
