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

It alone decides what a route can compute: it refuses ``n_max < 1``, an
overflowing largest phase rate (before any ``eigh``) and a site whose
``eigh`` fails (naming ``n_max`` and the site), and each ``values`` call
a NaN or infinite alpha or t, or a t whose largest phase, rate x t,
overflows, naming it.  The rate is delta/2 on the closed route and
2 (omega0/2 + n_max omega + sqrt(n_max) g) on the evolution routes.

The two evolution routes evolve each block of cells once, with the cells
last (amplitudes (2, d, 2, d, n_alpha, n_t)), and read every requested pair
of it with one ``pair_values`` call.  Blocks hold at most ``BLOCK_CELLS``
cells and write into the one ``Workspace`` the engine owns, so memory stays
bounded for any grid size and a repeated call writes into memory that is
already mapped (so one engine runs one ``values`` call at a time).  The
closed route evaluates the whole grid in one call.  On every route a cell's
values do not depend on how the grid is split into blocks or calls, so a
one-cell grid gives the values at one (alpha, t).
"""

from __future__ import annotations

import math
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
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self.name = name
        self.kind = kind
        self.params = params
        self.n_max = n_max
        if name == "closed":  # the closed form's one phase
            self._rate = 0.5 * params.splitting
            self._overflow = f"overflows the half phase delta t / 2 (delta = {params.splitting!r})"
        else:  # twice a site's largest energy bounds every phase rate of the evolution routes
            self._rate = 2.0 * (0.5 * params.omega0 + n_max * params.omega + math.sqrt(n_max) * params.g)
            rate_text = (f"the largest phase rate of the {name} route, 2 (omega0/2 + n_max omega + "
                         f"sqrt(n_max) g) = {self._rate!r} at n_max = {n_max} and {params!r},")
            if math.isinf(self._rate):
                raise ValueError(f"{rate_text} overflows")
            self._overflow = f"times {rate_text} overflows"
        self._work = Workspace()
        if name == "numeric":
            try:
                self._propagator = HamiltonianPropagator(site_hamiltonian(params, n_max))
            except np.linalg.LinAlgError as exc:  # eigh did not converge
                raise ValueError(f"the numeric route cannot diagonalize the site Hamiltonian at "
                                 f"n_max = {n_max} and {params!r}: {exc}") from None

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
