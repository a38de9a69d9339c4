"""Pairwise concurrences over an (alpha, t) grid by one of the three routes.

``GridEngine`` is the one place that chooses between the routes:

* ``closed``: the closed form on whole arrays at any detuning
  (``closed_grid``: the trigonometry once per alpha and once per t, then
  broadcasting), at resonance bit for bit the paper's scalar formulas;
* ``analytic``: dressed-state amplitude stacks (``analytic_amplitudes``);
* ``numeric``: exact diagonalization of the literal site Hamiltonian at
  the requested Fock truncation (one ``eigh``: both sites are ``params``),
  then every (alpha, t) cell from exp(-i H_site t) (x) exp(-i H_site t) by
  two matrix products (``HamiltonianPropagator.evolve_grid``); its phases
  drift by about 2 eps ||H_site|| t.

The two evolution routes evolve each block of cells once, with the cells
last (amplitudes (2, d, 2, d, n_alpha, n_t)), and read every requested pair
of it with one ``pair_values`` call.  Its reducer, ``pair_entries``, does
for each traced index one gather of the entries' amplitude rows and of their
partners' conjugate rows and one elementwise product, on rows as long as the
block, per traced dimension (one at ``n_max = 1``, three above it).  That
gives the 10 entries on and above the diagonal of every pair density,
Hermitian by construction.  ``pair_values`` then checks every cell (trace,
and PSD from the two 2x2 blocks of X cells) and reads C and Q straight from
those entries into the output; only cells off the X pattern gather their
amplitude factor for the general Wootters route.  They process the grid in
blocks of at most ``BLOCK_CELLS`` cells, so memory stays bounded for any
grid size, and every block writes into the one ``Workspace`` the engine
owns, sized by the largest block it has run: no block allocates a large
temporary of its own, and a repeated call writes into memory that is
already mapped (so one engine runs one ``values`` call at a time).  A
cell's values do not depend on how the grid is split into blocks or
calls.  The closed route keeps nothing per cell beyond
its output and evaluates the whole grid in one call.

A one-cell grid is how to get the values at one (alpha, t): every cell of a
larger call has the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import closed_grid
from .dynamics import FAMILY_KINDS, HamiltonianPropagator, analytic_amplitudes, initial_amplitudes
from .entanglement import PAIR_LABELS, pair_values
from .jcmodel import site_hamiltonian
from .linalg import Workspace

ENGINES = ("closed", "analytic", "numeric")
# A cell holds 4 (n_max + 1)^2 amplitudes on the numeric route, so one block
# of amplitudes is 400 KB at n_max = 4; larger blocks raise the peak memory
# of n_max = 4 series without being faster.
BLOCK_CELLS = 256


@dataclass(frozen=True)
class GridValues:
    """Concurrence and signed Q, shape (n_alpha, n_t, n_pairs), pairs in ``pairs`` order.

    Q is NaN on cells whose reduced matrix is not X-shaped.
    """

    pairs: tuple
    concurrence: np.ndarray
    q: np.ndarray


class GridEngine:
    """One route for one initial family and one site, evaluated on (alpha, t) grids.

    Both sites of the lattice are ``params``.  ``n_max`` is the Fock
    truncation of the numeric route, which diagonalizes
    ``site_hamiltonian(params, n_max)``.
    """

    def __init__(self, name, kind, params, *, n_max=1):
        if name not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
        if kind not in FAMILY_KINDS:
            raise ValueError(f"kind must be one of {FAMILY_KINDS}, got {kind!r}")
        self.name = name
        self.kind = kind
        self.params = params
        self.n_max = n_max
        self._work = Workspace()
        if name == "numeric":
            self._propagator = HamiltonianPropagator(site_hamiltonian(params, n_max))

    def values(self, alphas, ts, pairs=PAIR_LABELS, *, x_tol=1e-10):
        """C and Q of ``pairs`` at every (alpha, t) of the two 1-D grids.

        ``x_tol`` is the reader's X-shape tolerance (``pair_values``):
        a negative one sends every cell of the evolution routes through the
        general Wootters route.  The closed route reads no entries.
        """
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if pairs is not PAIR_LABELS:
            pairs = tuple(pairs)
            unknown = [pair for pair in pairs if pair not in PAIR_LABELS]
            if unknown:
                raise ValueError(f"unknown pairs {unknown}; expected labels from {PAIR_LABELS}")
        if self.name == "closed":
            conc, q = closed_grid(self.kind, alphas, self.params, ts)
            cols = [PAIR_LABELS.index(pair) for pair in pairs]
            return GridValues(pairs=pairs, concurrence=conc[..., cols], q=q[..., cols])
        conc = np.empty((alphas.size, ts.size, len(pairs)))
        q = np.empty_like(conc)
        t_step = max(1, min(ts.size, BLOCK_CELLS))
        a_step = max(1, BLOCK_CELLS // t_step)
        work = self._work
        for a0 in range(0, alphas.size, a_step):
            for t0 in range(0, ts.size, t_step):
                block = (slice(a0, a0 + a_step), slice(t0, t0 + t_step))
                if self.name == "analytic":
                    amps = analytic_amplitudes(self.kind, alphas[block[0]], ts[block[1]], self.params,
                                               work=work)
                else:
                    psi0 = initial_amplitudes(self.kind, alphas[block[0]], self.n_max)
                    amps = self._propagator.evolve_grid(psi0, ts[block[1]], work=work)
                pair_values(amps, pairs, x_tol=x_tol, work=work, out=(conc[block], q[block]))
        return GridValues(pairs=pairs, concurrence=conc, q=q)
