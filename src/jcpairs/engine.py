"""Pairwise concurrences over an (alpha, t) grid by one of the three routes.

``GridEngine`` is the one place that chooses between the routes:

* ``closed``: the closed form on whole arrays at any detuning
  (``closed_grid``: the trigonometry once per alpha and once per t, then
  broadcasting), at resonance bit for bit the paper's scalar formulas;
* ``analytic``: the dressed states' site factors (``dressed_factors``);
* ``numeric``: exact diagonalization of the literal one-photon site
  Hamiltonian, one ``eigh`` per excitation manifold the families
  populate, then the site factors of exp(-i H_site t) at every time
  (``HamiltonianPropagator.site_factors``); its phases drift by about
  2 eps ||H_site|| t.

It alone decides what a route can compute: it refuses an overflowing
largest phase rate (before any ``eigh``) and a site whose ``eigh`` fails
(naming the site), and each ``values`` call an unknown pair, a NaN or
infinite alpha or t, or a t whose largest phase, rate x t, overflows,
naming it.  The rate is delta/2 on the closed route and
2 (omega0/2 + omega + g), twice the site's largest energy, on the
evolution routes.

The two evolution routes are their site factors: each block of cells is
evolved once, by ``dynamics.amplitudes``, into the family's live rows with
the cells last (amplitudes (len(live_rows(kind)), n_alpha, n_t)), and every
requested pair is read from it with one ``pair_values`` call.  Blocks
hold at most ``BLOCK_CELLS`` cells and write into the calling thread's
``Workspace`` (``linalg.thread_workspace``), which every engine and the
table writer of that thread share: memory stays bounded for any grid
size, and every later block, call and engine writes into memory that is
already mapped.  So a
thread runs one ``values`` call at a time, while threads may share an
engine; the returned ``GridValues`` are arrays of their own.  A refusal
names its cell by its index in the whole grid.  The closed route
evaluates the whole grid in one call.  On every route a cell's values do
not depend on how the grid is split into blocks or calls, so a one-cell
grid gives the values at one (alpha, t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closedform import closed_grid
from .dynamics import FAMILY_KINDS, HamiltonianPropagator, amplitudes, dressed_factors, live_rows
from .entanglement import PAIR_LABELS, _CellRefusal, pair_values
from .linalg import thread_workspace

ENGINES = ("closed", "analytic", "numeric")
# A cell holds at most 5 live amplitudes (phi), so a block of them is at most 20 KB.
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

    Both sites of the lattice are ``params``.  The numeric route's
    ``HamiltonianPropagator`` diagonalizes the populated blocks of
    ``site_hamiltonian(params)``.
    """

    def __init__(self, name, kind, params):
        if name not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
        if kind not in FAMILY_KINDS:
            raise ValueError(f"kind must be one of {FAMILY_KINDS}, got {kind!r}")
        self.name = name
        self.kind = kind
        self.params = params
        if name == "closed":  # the closed form's one phase
            self._rate = 0.5 * params.splitting
            self._overflow = f"overflows the half phase delta t / 2 (delta = {params.splitting!r})"
            return
        # twice the site's largest energy bounds every phase rate of the evolution routes
        self._rate = 2.0 * (0.5 * params.omega0 + params.omega + params.g)
        rate_text = (f"the largest phase rate of the {name} route, 2 (omega0/2 + omega + g) = "
                     f"{self._rate!r} at {params!r},")
        if math.isinf(self._rate):
            raise ValueError(f"{rate_text} overflows")
        self._overflow = f"times {rate_text} overflows"
        # the route is its site factors: the dressed states' or the diagonalized site's
        self._site_factors = (HamiltonianPropagator(params).site_factors if name == "numeric"
                              else functools.partial(dressed_factors, params))
        self._live = live_rows(kind)

    def values(self, alphas, ts, pairs=PAIR_LABELS, *, x_tol=1e-10):
        """C and Q of ``pairs`` at every (alpha, t) of the two 1-D grids.

        ``x_tol`` is the reader's X-shape tolerance (``pair_values``):
        a negative one sends every cell of the evolution routes through the
        general Wootters route.  The closed route reads no entries.
        """
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        # few values (an esd step): a finite sum |alpha| + rate sum |t| in Python floats clears all
        if alphas.size + ts.size > 32 or not math.isfinite(
                sum(map(abs, alphas.tolist())) + self._rate * sum(map(abs, ts.tolist()))):
            for axis, grid in (("alpha", alphas), ("t", ts)):
                largest = float(np.maximum.reduce(np.abs(grid), initial=0.0))
                if not math.isfinite(largest):  # NaN or inf
                    raise ValueError(f"{axis} must be finite, got {float(grid[~np.isfinite(grid)][0])!r}")
            if math.isinf(self._rate * largest):  # the largest |t|
                t = next(t for t in ts.tolist() if math.isinf(self._rate * t))
                raise ValueError(f"t = {t!r} {self._overflow}")
        if pairs is not PAIR_LABELS:
            pairs = tuple(pairs)
            unknown = [pair for pair in pairs if pair not in PAIR_LABELS]
            if unknown:
                raise ValueError(f"unknown pairs {unknown}; expected labels from {PAIR_LABELS}")
        if self.name == "closed":
            return GridValues(pairs, *closed_grid(self.kind, alphas, self.params, ts, pairs))
        conc = np.empty((alphas.size, ts.size, len(pairs)))
        q = np.empty_like(conc)
        t_step = max(1, min(ts.size, BLOCK_CELLS))
        a_step = max(1, BLOCK_CELLS // t_step)
        work = thread_workspace()
        for a0 in range(0, alphas.size, a_step):
            for t0 in range(0, ts.size, t_step):
                block = (slice(a0, a0 + a_step), slice(t0, t0 + t_step))
                amps = amplitudes(self.kind, alphas[block[0]], ts[block[1]], self._site_factors, work=work)
                try:
                    pair_values(amps, pairs, live=self._live, x_tol=x_tol, work=work,
                                out=(conc[block], q[block]))
                except _CellRefusal as exc:  # name the cell in the grid, not in the block
                    head, (ia, it, *rest) = exc.parts
                    raise ValueError(f"{head} at cell {(a0 + ia, t0 + it, *rest)}") from None
        return GridValues(pairs=pairs, concurrence=conc, q=q)
