"""Initial states of the two-site lattice and their time evolution on (alpha, t) grids.

Two independent engines produce the evolving pure states: an analytic
propagator that phases the dressed states of each site (restricted to the
single-excitation ladder the initial families live in,
``analytic_amplitudes``), and exact diagonalization of the one literal
truncated site Hamiltonian, whose propagator's Kronecker square is the
lattice's (``HamiltonianPropagator.evolve_grid``).  Both use the literal
Hamiltonian's energy zero point, so they agree at the amplitude level, not
just in derived quantities.

Both evolve a whole (alpha, t) block at once and return amplitude stacks
with the cells last, shape (2, d, 2, d, n_alpha, n_t): each amplitude is one
row of n_alpha n_t values, which is what the reducer
(``linalg.pair_entries``) works on.  Given a ``linalg.Workspace``, they
write their result and their temporaries into its buffers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import Workspace

FAMILY_KINDS = ("phi", "psi")

# (A, a, B, b) cells carrying cos(alpha) and sin(alpha) at t = 0
_INITIAL_CELLS = {
    "phi": ((0, 0, 0, 0), (1, 0, 1, 0)),  # |e,0,e,0>, |g,0,g,0>
    "psi": ((0, 0, 1, 0), (1, 0, 0, 0)),  # |e,0,g,0>, |g,0,e,0>
}


def initial_amplitudes(kind, alphas, n_max=1):
    """Initial tensors (2, n_max+1, 2, n_max+1, *alphas.shape) of the family, one per alpha, n_max >= 1."""
    alphas = np.asarray(alphas, dtype=float)
    n_ph = n_max + 1
    psi = np.zeros((2, n_ph, 2, n_ph) + alphas.shape, dtype=complex)
    first, second = _INITIAL_CELLS[kind]
    psi[first] = np.cos(alphas)
    psi[second] = np.sin(alphas)
    return psi


@functools.lru_cache(maxsize=256)
def _site_rates(params):
    """The three phase rates and the three dressed weights of ``_site_factors``, once per site."""
    half = 0.5 * math.atan2(params.rabi(1), params.detuning)  # half the n = 1 mixing angle
    sin_half, cos_half = math.sin(half), math.cos(half)
    center, split = 0.5 * params.omega, 0.5 * params.splitting
    rates = (-1j * (center + split), -1j * (center - split), 0.5j * params.omega0)
    return rates, (sin_half**2, cos_half**2, sin_half * cos_half)


def _site_factors(params, t, out, scratch):
    """Amplitude pair (f, h) for |e,0> -> f|e,0> + h|g,1>, plus the |g,0> phase, into the rows of ``out``.

    Uses the literal site spectrum: n=1 manifold energies omega/2 +- delta/2
    (whose eigenvectors pair the upper level with (sin, cos) of the half
    mixing angle) and ground energy -omega0/2, at every time of the 1-D
    array ``t``; ``out`` is (3, len(t)) and ``scratch`` (4, len(t)).
    """
    (up, down, ground), (sin2, cos2, sin_cos) = _site_rates(params)
    phases, terms = scratch[:2], scratch[2:]
    np.multiply(up, t, out=phases[0])
    np.multiply(down, t, out=phases[1])
    np.multiply(ground, t, out=out[2])
    np.exp(phases, out=phases)
    np.exp(out[2], out=out[2])
    np.multiply(sin2, phases[0], out=terms[0])
    np.multiply(cos2, phases[1], out=terms[1])
    np.add(terms[0], terms[1], out=out[0])
    np.subtract(phases[0], phases[1], out=terms[0])
    np.multiply(sin_cos, terms[0], out=out[1])


def analytic_amplitudes(kind, alphas, ts, params, *, work=None):
    """The family evolved to every (alpha, t) by dressed-state phases, shape (2, 2, 2, 2, n_alpha, n_t).

    Both sites share ``params``; the state stays in the single-excitation
    ladder of each site, so the stack has n_max = 1.  The factors cos
    alpha, sin alpha, f, h and the ground phase are written as flat rows of
    the n_alpha n_t cells (the site factors once per time, then copied to
    every alpha), and every amplitude is (weight x) y, its initial cell's
    weight times one factor of each site, each product written to a row
    that is not one of its operands: each cell takes the same numpy loop
    whatever the block's shape.  (A one-cell block broadcast from an
    (n_alpha, 1) and an (n_t,) operand, or a one-cell product written over
    its own operand, takes a loop that rounds complex products
    differently.)  The stack is the ``"amplitudes"``
    buffer of ``work`` when one is given, and the factors live there too.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    n_a, n_t = alphas.size, ts.size
    if work is None:
        work = Workspace()
    # rows: cos alpha, sin alpha, f, h, ground phase, and the partial product
    rows = work.get("analytic.factors", (6, n_a * n_t))
    by_alpha = rows.reshape(6, n_a, n_t)
    by_alpha[0] = np.cos(alphas)[:, None]
    by_alpha[1] = np.sin(alphas)[:, None]
    _site_factors(params, ts, by_alpha[2:5, 0], work.get("analytic.scratch", (4, n_t)))
    if n_a > 1:
        by_alpha[2:5, 1:] = by_alpha[2:5, :1]
    ca, sa, f, h, ground, partial = rows
    psi = work.get("amplitudes", (2, 2, 2, 2, n_a, n_t))
    psi.fill(0.0)
    cells = psi.reshape(2, 2, 2, 2, -1)
    # each site evolves on its own: |e,0> -> f|e,0> + h|g,1>, |g,0> -> ground|g,0>
    site = {(0, 0): ((f, (0, 0)), (h, (1, 1))), (1, 0): ((ground, (1, 0)),)}
    for weight, cell in zip((ca, sa), _INITIAL_CELLS[kind]):
        for x, level_a in site[cell[:2]]:
            np.multiply(weight, x, out=partial)
            for y, level_b in site[cell[2:]]:
                np.multiply(partial, y, out=cells[level_a + level_b])
    return psi


# Every product of ``evolve_grid`` takes a multiple of this many cell columns.
_COLUMN_QUANTUM = 8
_HERMITIAN_TOL = 1e-12  # the largest |H - H^dag| entry a site Hamiltonian may have


class HamiltonianPropagator:
    """Exact propagator exp(-i H t) of two isolated copies of one site, from one spectral decomposition.

    The lattice Hamiltonian is H_site (x) I + I (x) H_site, so exp(-i H t)
    is exp(-i H_site t) (x) exp(-i H_site t) exactly: the site Hamiltonian
    is diagonalized once, never the 4 (n_max + 1)^2-dimensional lattice
    matrix.
    """

    def __init__(self, h_site):
        h_site = np.asarray(h_site, dtype=complex)
        defect = float(np.max(np.abs(h_site - h_site.conj().T)))
        if defect > _HERMITIAN_TOL:
            raise ValueError(f"site Hamiltonian is not Hermitian: asymmetry {defect:.3e}")
        self._w, self._v = np.linalg.eigh(h_site)
        # C0 = V^dag P0 conj(V): the two factors that take amplitudes to eigen-coefficients
        self._to_eigen = (np.ascontiguousarray(self._v.conj().T), self._v.conj())

    def evolve_grid(self, psi0, ts, *, work=None):
        """Evolve initial tensors (d_A, d_a, d_B, d_b, n_states) to every time in ``ts``, (..., n_states, n_t).

        With the site spectrum (w, V), a state whose amplitude matrix (site
        Aa by site Bb) is P0 has eigen-coefficients C0 = V^dag P0 conj(V),
        and at time t the amplitudes V X V^T with X = C0 o (p p^T),
        p = exp(-i w t).  X of all cells is laid out with the cells last,
        (d, d, cells), so the two products V X and V (V X) leave the
        amplitudes in that layout.  OpenBLAS computes the columns of a
        product in groups of its kernel width (4 for complex products on
        x86-64) and a last group of fewer columns on another kernel, whose
        rounding differs; so the cells are padded with zero columns to a
        multiple of ``_COLUMN_QUANTUM``, and each cell's bits do not depend
        on the others: a cell's amplitudes do not depend on how the grid is
        split into calls.  The result is a view of the padded
        ``"amplitudes"`` buffer of ``work`` (a ``Workspace``; a new one
        when None), where the temporaries live too.
        """
        psi0 = np.asarray(psi0, dtype=complex)
        n_states = psi0.shape[-1]
        d = self._w.size
        if psi0.size != d * d * n_states:
            raise ValueError(
                f"dimension mismatch: states have {psi0.size // n_states} amplitudes, "
                f"the site Hamiltonian is {d}x{d}"
            )
        if work is None:
            work = Workspace()
        ts = np.asarray(ts, dtype=float).reshape(-1)
        n_t, cells = ts.size, n_states * ts.size
        cols = -(-cells // _COLUMN_QUANTUM) * _COLUMN_QUANTUM
        left, right = self._to_eigen
        p0 = np.ascontiguousarray(np.moveaxis(psi0.reshape(d, d, n_states), -1, 0))
        c0 = np.moveaxis(left @ p0 @ right, 0, -1)  # one product pair per state
        # the site phases p = exp(-i w t), their exponent written in place as
        # (+0, (-w) t): the bits of -1j * outer(w, ts)
        p = work.get("evolve.site_phases", (d, n_t))
        p.real = 0.0
        np.multiply.outer(-self._w, ts, out=p.imag)
        np.exp(p, out=p)
        # two cell-sized buffers serve in turn: "evolve.products" holds
        # p p^T and then V X, "amplitudes" holds X and then V (V X)
        products = work.get("evolve.products", (d * d * cols,))
        phases = products[:d * d * n_t].reshape(d, d, n_t)
        np.multiply(p[:, None, :], p[None, :, :], out=phases)
        x = work.get("amplitudes", (d, d, cols))
        np.multiply(c0[..., None], phases[:, :, None, :], out=x[..., :cells].reshape(d, d, n_states, n_t))
        x[..., cells:] = 0.0
        vx = np.matmul(self._v, x.reshape(d, d * cols), out=products.reshape(d, d * cols))
        out = np.matmul(self._v, vx.reshape(d, d, cols), out=x)
        return out[..., :cells].reshape(psi0.shape + (n_t,))
