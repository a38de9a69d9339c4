"""Dense complex linear algebra for small quantum systems.

Conventions used throughout the package: matrices are numpy complex arrays;
the lattice tensor factors are ordered (A, a, B, b) = (atom, cavity, atom,
cavity); every two-level basis lists the excited level first (atoms: e then
g; cavities reduced to qubits: one photon then vacuum).

Stacks of states put the cells last: amplitudes of shape (d_A, d_a, d_B,
d_b, *cells), so each amplitude is one row as long as the stack.
``pair_entries``, the one reducer, turns them into the 10 entries on and
above the diagonal of each pair's 4x4 density, (pairs, 10, *cells), with
elementwise products on those rows, one group for each run of requested
pairs that trace the same dimension, in request order.  Each density is
M M^dag, M the 4 x k matrix of amplitudes that the reducer multiplies; the
general Wootters route reads M itself through the same index tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np

SUBSYSTEMS = ("A", "a", "B", "b")
CAVITY_SUBSYSTEMS = frozenset(("a", "b"))
_AXIS = {label: i for i, label in enumerate(SUBSYSTEMS)}

# The 10 entries on and above the diagonal of a 4x4 density, in the order
# the reducer writes them: the diagonal (a, b, c, d), the X coherences
# rho[0, 3] and rho[1, 2], then the four entries off the X pattern.
ENTRY_ROWS = np.array([0, 1, 2, 3, 0, 1, 0, 0, 1, 2])
ENTRY_COLS = np.array([0, 1, 2, 3, 3, 2, 1, 2, 3, 3])
# The most probability a kept cavity may hold above one photon in any cell.
_LEAK_TOL = 1e-10


class _CellRefusal(ValueError):
    """A refusal naming a cell of a stack; ``GridEngine`` re-raises it with the cell's grid index."""

    def __init__(self, head, cell, tail=""):
        self.parts = head, tuple(int(i) for i in cell), tail
        super().__init__(f"{head} at cell {self.parts[1]}{tail}")


class Workspace:
    """Named flat buffers that every block of a grid evaluation, and every table, reuses.

    ``get(name, shape, dtype=complex)`` returns a C-contiguous view of the
    first prod(shape) elements of type ``dtype`` of the buffer called
    ``name``, allocating it only when it is missing or too small, so a
    buffer is as large as the largest block it served and later blocks and
    requests write into memory that is already mapped.  The view of each
    (name, shape, dtype) is kept (up to 64, then they start over), so a
    repeated request costs one dictionary lookup.

    ``thread_workspace()`` gives each thread one, made on first use; the
    engine, the table writer and the formatter draw on it, so a thread runs
    one ``GridEngine.values`` call and writes one table at a time.
    """

    def __init__(self):
        self._buffers = {}
        self._views = {}  # (name, shape, dtype) -> view of the current buffer

    def get(self, name, shape, dtype=complex):
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is not None:
            return view
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, np.uint8)
            self._views = {k: v for k, v in self._views.items() if k[0] != name}
        if len(self._views) >= 64:  # a caller of many shapes: keep the dictionary small
            self._views.clear()
        view = self._views[key] = buf[:size].view(dtype).reshape(shape)
        return view


class _PerThread(threading.local):
    def __init__(self):
        self.work = Workspace()


_PER_THREAD = _PerThread()


def thread_workspace():
    """The calling thread's ``Workspace``, made on its first call."""
    return _PER_THREAD.work


def pair_entries(amps, pairs, *, work=None):
    """Reduce a stack of four-factor pure states to the upper entries of several pair densities.

    ``amps`` has shape (d_A, d_a, d_B, d_b, *cells), one amplitude tensor
    per cell of the trailing axes; the result has shape (len(pairs), 10,
    *cells) and holds the 10 entries on and above the diagonal of each
    pair's 4x4 density in ``ENTRY_ROWS``/``ENTRY_COLS`` order.  The lower
    triangle is their conjugate mirror, so the density is Hermitian by
    construction.  Each pair is an ordered pair of labels from ("A", "a",
    "B", "b") (such as ``("A", "b")`` or ``"Ab"``) and fixes the ordering of
    its output factors.

    Kept cavity factors are projected onto the zero/one photon subspace and
    reported in (one photon, vacuum) order, so every output basis lists the
    excited level first: (x1 x2) = (ee, eg, ge, gg)-like.  The projection is
    refused when a kept cavity holds more than ``_LEAK_TOL`` probability
    above one photon in any cell; the refusal names the worst cell.

    Each run of consecutive pairs that trace out the same dimension is
    reduced together, in request order (``PAIR_LABELS`` is one group at
    ``n_max = 1``; above it AB, ab and the four mixed pairs).  For each
    traced index k the group gathers, through the cached index tables of
    ``_reduction_plan``, the amplitude rows of its entries and the conjugate
    rows of their partners, and adds their product, all on rows as long as
    the block.  The buffers come from ``work`` (a ``Workspace``; a new one
    when None), and the result is a view into it.
    """
    amps = np.asarray(amps, dtype=complex)
    dims, cells = amps.shape[:4], amps.shape[4:]
    n = math.prod(cells)
    pairs = tuple(pairs)
    cavities, groups, _, max_rows = _reduction_plan(dims, pairs)
    tensor = amps.reshape(dims + (n,))
    for label, above in cavities:
        high = tensor[above]
        leak = np.einsum("ijkln,ijkln->n", high.real, high.real)
        leak += np.einsum("ijkln,ijkln->n", high.imag, high.imag)
        worst = int(np.argmax(leak)) if n else 0
        if n and leak[worst] > _LEAK_TOL:
            raise _CellRefusal(f"cavity {label} holds probability {leak[worst]:.3e} above one photon",
                               np.unravel_index(worst, cells),
                               f" (tolerance {_LEAK_TOL:.3e}); cannot reduce to a qubit")
    if work is None:
        work = Workspace()
    flat = tensor.reshape(-1, n)
    conj = np.conjugate(flat, out=work.get("reduce.conj", flat.shape))
    rows_buf = work.get("reduce.rows", (max_rows, n))
    cols_buf = work.get("reduce.cols", (max_rows, n))
    entries = work.get("reduce.entries", (len(pairs), 10, n))
    acc_all = entries.reshape(-1, n)
    for start, stop, row_index, col_index in groups:
        acc, rows, cols = acc_all[start:stop], rows_buf[:stop - start], cols_buf[:stop - start]
        for k, (row_k, col_k) in enumerate(zip(row_index, col_index)):
            conj.take(col_k, axis=0, out=cols, mode="clip")
            if k == 0:
                flat.take(row_k, axis=0, out=acc, mode="clip")
                np.multiply(acc, cols, out=acc)
            else:
                flat.take(row_k, axis=0, out=rows, mode="clip")
                np.multiply(rows, cols, out=rows)
                np.add(acc, rows, out=acc)
    # the diagonal is real: only the round-off of fused products lands in its imaginary part
    entries[:, :4].imag = 0.0
    return entries.reshape((len(pairs), 10) + cells)


@functools.lru_cache(maxsize=None)
def _reduction_plan(dims, pairs):
    """How ``pair_entries`` reduces the tuple ``pairs`` of states with factor dimensions ``dims``.

    Returns (cavities, groups, tables, max_rows).  ``cavities`` lists the
    kept cavities that can hold more than one photon, as (label, index of
    their levels above one photon in the amplitude tensor), in order of
    first appearance.  ``tables`` holds each pair's (4, traced) table of the
    flat indices of its amplitude factor M, whose rows are the pair's basis
    states: the density is M M^dag.  ``groups`` has one ``(start, stop,
    rows, cols)`` per run of consecutive pairs with the same traced
    dimension: the run's output rows in the flattened (pair, entry) axis,
    and two (traced, 10 x run pairs) tables of the flat amplitude indices
    whose products, summed over the traced index, give those entries
    (``rows`` conjugated on the right by ``cols``).  ``max_rows`` is the
    largest group's row count.
    """
    positions = np.arange(math.prod(dims)).reshape(dims)
    cavities = {}
    tables = []
    for keep in pairs:
        for label in keep:
            axis = _AXIS[label]
            if label in CAVITY_SUBSYSTEMS and dims[axis] > 2:
                cavities.setdefault(label, (slice(None),) * axis + (slice(2, None),))
        kept_axes = tuple(_AXIS[label] for label in keep)
        traced_axes = tuple(ax for ax in range(4) if ax not in kept_axes)
        # kept cavities are read at photon numbers (1, 0); atoms already index (e, g)
        select = tuple(slice(1, None, -1) if label in CAVITY_SUBSYSTEMS else slice(None) for label in keep)
        tables.append(positions.transpose(kept_axes + traced_axes)[select].reshape(4, -1))
    groups, start, max_rows = [], 0, 0
    for _, run in itertools.groupby(tables, key=lambda table: table.shape[1]):
        run = list(run)
        rows = np.concatenate([table[ENTRY_ROWS] for table in run]).T.copy()
        cols = np.concatenate([table[ENTRY_COLS] for table in run]).T.copy()
        groups.append((start, start + 10 * len(run), rows, cols))
        start += 10 * len(run)
        max_rows = max(max_rows, 10 * len(run))
    return tuple(cavities.items()), tuple(groups), tuple(tables), max_rows
