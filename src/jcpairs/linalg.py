"""Dense complex linear algebra for small quantum systems.

Conventions used throughout the package: matrices are numpy complex arrays;
the lattice tensor factors are ordered (A, a, B, b) = (atom, cavity, atom,
cavity); every two-level basis lists the excited level first (atoms: e then
g; cavities, which hold at most one photon: one photon then vacuum).

Stacks of states put the cells last: amplitudes (rows, *cells), each row
one flat (2, 2, 2, 2) lattice amplitude named beside the stack (all 16 in
a full stack, the family's live rows in an evolution route's).
``pair_entries``, the one reducer, turns them into the 6 entries of the X
pattern of each pair's 4x4 density, (pairs, 6, *cells), with elementwise
products on those rows.  Each density is M M^dag, M the 4 x 4 matrix of
amplitudes that the reducer multiplies; the general Wootters route reads M
itself through the same index tables.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

SUBSYSTEMS = ("A", "a", "B", "b")
CAVITY_SUBSYSTEMS = frozenset(("a", "b"))
_AXIS = {label: i for i, label in enumerate(SUBSYSTEMS)}

# The 6 entries of the X pattern on and above the diagonal of a 4x4 density,
# in the order the reducer writes them: the diagonal (a, b, c, d), then the
# coherences rho[0, 3] and rho[1, 2].
ENTRY_ROWS = np.array([0, 1, 2, 3, 0, 1])
ENTRY_COLS = np.array([0, 1, 2, 3, 3, 2])
# Every row of a (2, 2, 2, 2) lattice state, the rows of a full stack.
ALL_ROWS = tuple(range(16))


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


def pair_entries(amps, pairs, *, live=ALL_ROWS, work=None):
    """Reduce a stack of four-qubit pure states to the upper entries of several pair densities.

    ``amps`` has shape (len(live), *cells): row s is the flat lattice row
    ``live[s]`` (all 16 by default) of the states of the trailing axes,
    whose cavities hold at most one photon, and every other lattice
    amplitude is zero.  The result has shape (len(pairs), 6, *cells) and
    holds the 6 entries of the X pattern on and above the diagonal of each
    pair's 4x4 density in ``ENTRY_ROWS``/``ENTRY_COLS`` order.  The lower
    triangle is their conjugate mirror, so the density is Hermitian by
    construction.  No entry off the X pattern is formed.
    Each pair is an ordered pair of labels from ("A", "a", "B", "b") (such
    as ``("A", "b")`` or ``"Ab"``) and fixes the ordering of its output
    factors.  Kept cavities are reported in (one photon, vacuum) order, so
    every output basis lists the excited level first: (x1 x2) = (ee, eg,
    ge, gg)-like.

    An entry sums, over the traced index in ascending order, a row times a
    conjugate row; only the products of two rows of the stack are formed,
    and adding an exact zero leaves a sum unchanged, so every entry has the
    bits of the sum over all 16 (one with no product is 0).  Through the
    cached tables of ``_reduction_plan``, two gathers fetch every product's
    operands, one multiplication forms them, one addition per later traced
    term sums them, and one gather puts the sums in entry order, all on
    rows as long as the block, in buffers of ``work`` (a ``Workspace``; a
    new one when None); the result is a view into it.
    """
    amps = np.asarray(amps, dtype=complex)
    cells = amps.shape[1:]
    n = math.prod(cells)
    pairs, live = tuple(pairs), tuple(live)
    _, left, right, stages, place, _ = _reduction_plan(pairs, live)
    if work is None:
        work = Workspace()
    flat = amps.reshape(len(live), n)
    # row 0 of "reduce.products" is the zero of the dead entries
    products = work.get("reduce.products", (left.size + 1, n))
    conj = work.get("reduce.conj", (right.size, n))
    flat.take(left, axis=0, out=products[1:], mode="clip")
    flat.take(right, axis=0, out=conj, mode="clip")
    np.conjugate(conj, out=conj)
    np.multiply(products[1:], conj, out=products[1:])
    products[0] = 0.0
    for start, count in stages:
        np.add(products[1:1 + count], products[start:start + count], out=products[1:1 + count])
    entries = work.get("reduce.entries", (len(pairs), 6, n))
    products.take(place, axis=0, out=entries.reshape(-1, n), mode="clip")
    # the diagonal is real: only the round-off of fused products lands in its imaginary part
    entries[:, :4].imag = 0.0
    return entries.reshape((len(pairs), 6) + cells)


@functools.lru_cache(maxsize=None)
def _reduction_plan(pairs, live):
    """How ``pair_entries`` reduces the tuple ``pairs`` of stacks that hold the flat lattice rows ``live``.

    Returns (tables, left, right, stages, place, off_x).  ``tables`` holds
    each pair's (4, 4) table of the flat lattice rows of its amplitude
    factor M (rows the pair's basis states, columns the traced index): the
    density is M M^dag.  Each (pair, entry) sum has the terms
    M[r, k] conj(M[c, k]) with both rows in the stack, in ascending k.
    Sorted by their number of terms, most first, the sums with a k-th term
    are a prefix: ``left`` and ``right`` list the stack rows of every term,
    first terms first, and ``stages`` the (start, count) of each later term
    in the product rows, which start at 1.  ``place`` gives each
    (pair, entry) its sum's product row, or row 0 for a sum with no term.
    ``off_x`` is the label of the first pair with an entry off the X
    pattern that has a term (two rows of M in the stack on a shared
    column), or None: exactly, with no tolerance.
    """
    positions = np.arange(16).reshape(2, 2, 2, 2)
    stack_row = {row: s for s, row in enumerate(live)}
    tables, sums, off_x = [], [], None
    for keep in pairs:
        kept_axes = tuple(_AXIS[label] for label in keep)
        traced_axes = tuple(ax for ax in range(4) if ax not in kept_axes)
        # kept cavities are read at photon numbers (1, 0); atoms already index (e, g)
        select = tuple(slice(None, None, -1) if label in CAVITY_SUBSYSTEMS else slice(None) for label in keep)
        table = positions.transpose(kept_axes + traced_axes)[select].reshape(4, 4)
        tables.append(table)
        if off_x is None and any(r in stack_row and c in stack_row for i, j in ((0, 1), (0, 2), (1, 3), (2, 3))
                                 for r, c in zip(table[i], table[j])):  # the upper entries off X
            off_x = "".join(keep)
        sums += [[(stack_row[r], stack_row[c]) for r, c in zip(table[row], table[col])
                  if r in stack_row and c in stack_row] for row, col in zip(ENTRY_ROWS, ENTRY_COLS)]
    counts = [len(terms) for terms in sums]
    order = sorted(range(len(sums)), key=lambda i: -counts[i])
    place = np.zeros(len(sums), dtype=np.intp)
    for row, i in enumerate(order, 1):
        place[i] = row if counts[i] else 0
    left, right, stages = [], [], []
    for k in range(max(counts, default=0)):
        summing = order[:sum(count > k for count in counts)]
        if k:
            stages.append((1 + len(left), len(summing)))
        left += [sums[i][k][0] for i in summing]
        right += [sums[i][k][1] for i in summing]
    return (tuple(tables), np.array(left, dtype=np.intp), np.array(right, dtype=np.intp), tuple(stages),
            place, off_x)
