"""Pairwise concurrences over an (alpha, t) grid by one of the three routes.

``GridEngine`` is the one place that chooses between the routes:

* ``closed``: the closed form at any detuning (``ClosedGrid``: the
  trigonometry once per alpha and once per t for the whole call, then
  each block by broadcasting), at resonance bit for bit the paper's
  scalar formulas;
* ``analytic``: the dressed states' site factors (``dressed_factors``);
* ``numeric``: exact diagonalization of the literal one-photon site
  Hamiltonian, one ``eigh`` per excitation manifold the families
  populate, then the site factors of exp(-i H_site t) at every time
  (``HamiltonianPropagator.site_factors``); its phases drift by about
  2 eps ||H_site|| t.

It alone decides what a route can compute: it refuses an overflowing
largest phase rate (before any ``eigh``) and a site whose ``eigh`` fails
(naming the site), and each ``blocks`` or ``values`` call an unknown pair,
a NaN or infinite alpha or t, or a t whose largest phase, rate x t,
overflows, naming it, before any block.  The rate is delta/2 on the
closed route and 2 (omega0/2 + omega + g), twice the site's largest
energy, on the evolution routes.

Every route is one stream of blocks (``blocks``): runs of at most
``STREAM_CELLS`` cells of the flat grid in table order, alpha-major, each
C and Q of the block in buffers of the calling thread's ``Workspace``
(``linalg.thread_workspace``), which every engine and the table writer of
that thread share.  ``values`` writes the same blocks in place into
arrays of its own; ``jcpairs sweep`` and ``evolve`` hand the stream to the
table writer as it comes, which writes every row of a block before it
draws the next, so memory stays bounded for any grid size, from the
engine to the written table, and every later block, call and engine
writes into memory that is already mapped.  A thread iterates one stream
of a route at a time, while threads may share an engine.

The two evolution routes are their site factors: each stream block is
evolved ``BLOCK_CELLS`` cells at a time, by ``dynamics.amplitudes``, into
the family's live rows with the cells last (amplitudes
(len(live_rows(kind)), n_alpha, n_t)), and every requested pair is read
from it with one ``pair_values`` call.  A reader refusal comes with the
block that holds its cell and names the cell by its index in the whole
grid.  On every route a cell's values do not depend on how the grid is
split into blocks or calls, so a one-cell grid gives the values at one
(alpha, t).

``_RouteGap`` is the one comparison of routes: ``--engine both`` feeds it
the analytic and numeric blocks, ``verify`` its whole arrays, and it names
the worst cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closedform import ClosedGrid
from .dynamics import FAMILY_KINDS, HamiltonianPropagator, amplitudes, dressed_factors, live_rows
from .entanglement import PAIR_LABELS, _CellRefusal, pair_values
from .linalg import thread_workspace

ENGINES = ("closed", "analytic", "numeric")
# A cell holds at most 5 live amplitudes (phi), so a block of them is at most 20 KB.
BLOCK_CELLS = 256
# Cells per block of ``GridEngine.blocks`` on every route, 393 KB of C and Q
# at six pairs.  A closed-form block costs some 30 numpy calls whatever its
# size, and an evolution route evolves it ``BLOCK_CELLS`` cells at a time.
# Blocks this long let the engine and the table writer each work on memory
# it has just used: handing the writer every 256-cell block made a 101 x 1025
# analytic sweep about 12% slower (2-core Xeon, 2 MB of L2 per core).
STREAM_CELLS = 4096


@dataclass(frozen=True)
class GridValues:
    """Concurrence and signed Q, shape (n_alpha, n_t, n_pairs), pairs in ``pairs`` order.

    Q is NaN on every cell of an evolution route read by the general
    Wootters route (``GridEngine.values(..., general=True)``).
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
        self._buffer = f"{name}.values"  # the workspace buffer of this route's blocks
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

    def values(self, alphas, ts, pairs=PAIR_LABELS, *, general=False):
        """C and Q of ``pairs`` at every (alpha, t) of the two 1-D grids, as arrays of their own.

        ``general`` sends every cell of the evolution routes through the
        general Wootters route, with Q = NaN (``pair_values``), instead of
        the X reader.  The closed route reads no entries.  The result holds
        the blocks of ``blocks``, each written in place.
        """
        checked = alphas, ts, pairs, _ = self._checked(alphas, ts, pairs)
        conc = np.empty((alphas.size, ts.size, len(pairs)))
        q = np.empty_like(conc)
        for a, t in _block_slices(alphas.size, ts.size, STREAM_CELLS):
            self._write(checked, a, t, conc[a, t], q[a, t], general)
        return GridValues(pairs=pairs, concurrence=conc, q=q)

    def blocks(self, alphas, ts, pairs=PAIR_LABELS):
        """C and Q of ``pairs`` over the two 1-D grids, block by block in table order.

        Refuses what the route cannot compute here, before any block, and
        returns an iterator of (a, t, C, Q): ``a`` and ``t`` slice the
        grids, and C and Q, of shape (n_a, n_t, len(pairs)), hold the
        block's cells.  The blocks run alpha-major, then t, so each is the
        next run of cells of the flat (alpha, t) grid.  C and Q are this
        thread's buffers for the route, overwritten by its next block: a
        thread iterates one ``blocks`` of a route at a time.  A reader
        refusal comes with the block that holds its cell, naming the cell
        in the whole grid.  Every cell is read by the X reader.
        """
        return self._stream(self._checked(alphas, ts, pairs))

    def _checked(self, alphas, ts, pairs):
        """The grids as 1-D float arrays, the pairs and the closed form's ``ClosedGrid``, or the refusal."""
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
        closed = ClosedGrid(self.kind, alphas, self.params, ts) if self.name == "closed" else None
        return alphas, ts, pairs, closed

    def _stream(self, checked):
        work = thread_workspace()
        alphas, ts, pairs, _ = checked
        for a, t in _block_slices(alphas.size, ts.size, STREAM_CELLS):
            conc, q = work.get(self._buffer, (2, a.stop - a.start, t.stop - t.start, len(pairs)), float)
            self._write(checked, a, t, conc, q)
            yield a, t, conc, q

    def _write(self, checked, a, t, conc, q, general=False):
        """C and Q of the cells (``a``, ``t``) of the ``_checked`` grids into ``conc`` and ``q``."""
        alphas, ts, pairs, closed = checked
        if closed is not None:
            closed.write(pairs, a, t, conc, q)
            return
        work = thread_workspace()
        for sub_a, sub_t in _block_slices(conc.shape[0], conc.shape[1], BLOCK_CELLS):  # evolve, reduce, read
            amps = amplitudes(self.kind, alphas[a][sub_a], ts[t][sub_t], self._site_factors, work=work)
            try:
                pair_values(amps, pairs, live=self._live, general=general, work=work,
                            out=(conc[sub_a, sub_t], q[sub_a, sub_t]))
            except _CellRefusal as exc:  # name the cell in the grid, not in the block
                head, (ia, it, *rest) = exc.parts
                cell = (a.start + sub_a.start + ia, t.start + sub_t.start + it, *rest)
                raise ValueError(f"{head} at cell {cell}") from None


class _RouteGap:
    """The largest |C_first - C_second| of two routes over one (alpha, t) grid so far, and its cell.

    Fed blocks or whole ``values`` arrays at grid slices (``a``, ``t``), on a tie it keeps the earlier
    call's cell, within a call the first in table order, and a NaN gap beats every number, as
    ``np.argmax`` picks.  Two streams of one route share the thread's buffer, so the routes differ.
    """

    def __init__(self, alphas, ts, pairs):
        self.gap, self.cell, self.engines, self._grid = -math.inf, None, None, (alphas, ts, pairs)

    def add(self, a, t, engines, first, second):
        """Take and return |``first`` - ``second``|, C of the two ``engines`` at the cells (``a``, ``t``)."""
        if engines[0].name == engines[1].name:
            raise ValueError(f"compare two routes, not the {engines[0].name} route with itself")
        gap = np.subtract(first, second)
        np.abs(gap, out=gap)
        flat = int(np.argmax(gap))
        value = float(gap.flat[flat])
        if value > self.gap or (math.isnan(value) and not math.isnan(self.gap)):
            ia, it, ip = np.unravel_index(flat, gap.shape)
            self.gap, self.cell, self.engines = value, (a.start + int(ia), t.start + int(it), int(ip)), engines
        return gap

    def where(self):
        """The worst cell as ``alpha = ..., t = ..., pair ...``."""
        (ia, it, ip), (alphas, ts, pairs) = self.cell, self._grid
        return f"alpha = {float(alphas[ia])!r}, t = {float(ts[it])!r}, pair {pairs[ip]}"


def _block_slices(n_alpha, n_t, cells):
    """(alpha slice, t slice) of each block of at most ``cells`` cells, alpha-major.

    A block is a run of at most ``cells`` times of one alpha, or of whole
    t rows when a row has fewer: the next cells of the flat grid either way.
    """
    if n_alpha * n_t <= cells:  # one block, or none
        return [(slice(0, n_alpha), slice(0, n_t))] if n_alpha * n_t else []
    t_step = min(n_t, cells)
    a_step = cells // t_step
    return [(slice(a0, min(a0 + a_step, n_alpha)), slice(t0, min(t0 + t_step, n_t)))
            for a0 in range(0, n_alpha, a_step) for t0 in range(0, n_t, t_step)]
