"""Initial states of the two-site lattice and their time evolution on (alpha, t) grids.

Two independent engines produce the evolving pure states: an analytic
propagator that phases the dressed states of each site (restricted to the
single-excitation ladder the initial families live in,
``analytic_amplitudes``), and exact diagonalization of each literal
truncated site Hamiltonian, whose propagators multiply to the lattice's
(``HamiltonianPropagator.evolve_grid``).  Both use the literal
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

import numpy as np

from .jcmodel import dressed_data
from .linalg import Workspace

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


@functools.lru_cache(maxsize=256)
def _site_rates(params):
    """The three phase rates and the three dressed weights of ``_site_factors``, once per site."""
    d = dressed_data(params, 1)
    center = 0.5 * params.omega
    rates = (-1j * (center + 0.5 * d.splitting), -1j * (center - 0.5 * d.splitting), 0.5j * params.omega0)
    return rates, (d.sin_half**2, d.cos_half**2, d.sin_half * d.cos_half)


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
    every alpha), and every amplitude is a product of three rows, each
    product written to a row that is not one of its operands: each cell
    takes the same numpy loop whatever the block's shape.  (A one-cell
    block broadcast from an (n_alpha, 1) and an (n_t,) operand, or a
    one-cell product written over its own operand, takes a loop that rounds
    complex products differently.)  The stack is the ``"amplitudes"``
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

    def product(x, y, *z_cells):
        """cells[cell] = (x y) z for each (z, cell)."""
        np.multiply(x, y, out=partial)
        for z, cell in z_cells:
            np.multiply(partial, z, out=cells[cell])

    if kind == "phi":
        product(ca, f, (f, (0, 0, 0, 0)), (h, (0, 0, 1, 1)))
        product(ca, h, (f, (1, 1, 0, 0)), (h, (1, 1, 1, 1)))
        product(sa, ground, (ground, (1, 0, 1, 0)))
    else:
        product(ca, f, (ground, (0, 0, 1, 0)))
        product(ca, h, (ground, (1, 1, 1, 0)))
        product(sa, ground, (f, (1, 0, 0, 0)), (h, (1, 0, 1, 1)))
    return psi


# Every product of ``evolve_grid`` takes a multiple of this many cell columns.
_COLUMN_QUANTUM = 8


class HamiltonianPropagator:
    """Exact propagator exp(-i H t) of the two isolated sites, one spectral decomposition per site.

    The lattice Hamiltonian is H_Aa (x) I + I (x) H_Bb, so exp(-i H t) is
    exp(-i H_Aa t) (x) exp(-i H_Bb t) exactly: each site Hamiltonian is
    diagonalized on its own (once when the two are equal), never the
    4 (n_max + 1)^2-dimensional lattice matrix.
    """

    def __init__(self, h_aa, h_bb, *, herm_tol=1e-12):
        sites = [np.asarray(h, dtype=complex) for h in (h_aa, h_bb)]
        for label, h in zip(("Aa", "Bb"), sites):
            defect = float(np.max(np.abs(h - h.conj().T)))
            if defect > herm_tol:
                raise ValueError(f"site {label} Hamiltonian is not Hermitian: asymmetry {defect:.3e}")
        spectrum = np.linalg.eigh(sites[0])
        self._spectra = (spectrum, spectrum if np.array_equal(*sites) else np.linalg.eigh(sites[1]))
        self._dims = tuple(h.shape[0] for h in sites)
        # C0 = V_A^dag P0 conj(V_B): the two factors that take amplitudes to eigen-coefficients
        self._to_eigen = (np.ascontiguousarray(self._spectra[0][1].conj().T), self._spectra[1][1].conj())

    def evolve_grid(self, psi0, ts, *, work=None):
        """Evolve initial tensors (d_A, d_a, d_B, d_b, n_states) to every time in ``ts``, (..., n_states, n_t).

        With site spectra (w_A, V_A) and (w_B, V_B), a state whose amplitude
        matrix (site Aa by site Bb) is P0 has eigen-coefficients
        C0 = V_A^dag P0 conj(V_B), and at time t the amplitudes
        V_A X V_B^T with X = C0 o (p_A p_B^T), p = exp(-i w t) per site.
        X of all cells is laid out with the cells last, (d_Aa, d_Bb, cells),
        so the two products V_A X and V_B (V_A X) leave the amplitudes in
        that layout.  OpenBLAS computes the columns of a product in groups
        of its kernel width (4 for complex products on x86-64) and a last
        group of fewer columns on another kernel, whose rounding differs;
        so the cells are padded with zero columns to a multiple of
        ``_COLUMN_QUANTUM``, and each cell's bits do not depend on the
        others: a cell's amplitudes do not depend on how the grid is split
        into calls.  The result is a view of the padded ``"amplitudes"``
        buffer of ``work`` (a ``Workspace``; a new one when None), where the
        temporaries live too.
        """
        psi0 = np.asarray(psi0, dtype=complex)
        n_states = psi0.shape[-1]
        d_a, d_b = self._dims
        if psi0.size != d_a * d_b * n_states:
            raise ValueError(
                f"dimension mismatch: states have {psi0.size // n_states} amplitudes, "
                f"the site Hamiltonians are {d_a}x{d_a} and {d_b}x{d_b}"
            )
        if work is None:
            work = Workspace()
        ts = np.asarray(ts, dtype=float).reshape(-1)
        n_t, cells = ts.size, n_states * ts.size
        cols = -(-cells // _COLUMN_QUANTUM) * _COLUMN_QUANTUM
        (w_a, v_a), (w_b, v_b) = self._spectra
        left, right = self._to_eigen
        p0 = np.ascontiguousarray(np.moveaxis(psi0.reshape(d_a, d_b, n_states), -1, 0))
        c0 = np.moveaxis(left @ p0 @ right, 0, -1)  # one product pair per state
        site_phases = work.get("evolve.site_phases", (d_a + d_b, n_t))
        p_a = _site_phases(w_a, ts, site_phases[:d_a])
        p_b = p_a if w_b is w_a else _site_phases(w_b, ts, site_phases[d_a:])
        # two cell-sized buffers serve in turn: "evolve.products" holds
        # p_A p_B^T and then V_A X, "amplitudes" holds X and then V_B (V_A X)
        products = work.get("evolve.products", (d_a * d_b * cols,))
        phases = products[:d_a * d_b * n_t].reshape(d_a, d_b, n_t)
        np.multiply(p_a[:, None, :], p_b[None, :, :], out=phases)
        x = work.get("amplitudes", (d_a, d_b, cols))
        np.multiply(c0[..., None], phases[:, :, None, :], out=x[..., :cells].reshape(d_a, d_b, n_states, n_t))
        x[..., cells:] = 0.0
        vx = np.matmul(v_a, x.reshape(d_a, d_b * cols), out=products.reshape(d_a, d_b * cols))
        out = np.matmul(v_b, vx.reshape(d_a, d_b, cols), out=x)
        return out[..., :cells].reshape(psi0.shape + (n_t,))


def _site_phases(w, ts, out):
    """exp(-i w t), shape (len(w), len(ts)), written into ``out``.

    The exponent -i w t is written in place as (+0, (-w) t): the bits of
    -1j * outer(w, ts).
    """
    out.real = 0.0
    np.multiply.outer(-w, ts, out=out.imag)
    return np.exp(out, out=out)
