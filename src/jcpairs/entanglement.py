"""Wootters concurrence for the six subsystem pairs of the lattice, on whole stacks.

``pair_values`` is the one road from amplitudes to C and Q: it reduces a
stack of the lattice rows its caller names with ``linalg.pair_entries``
(the 10 entries on and above the diagonal of every pair density, cells
last) and checks and reads every cell.  X-shaped cells take the fast
path, which reads the concurrence from the entries: the corner coherence
competes with the inner populations and vice versa,

    C = 2 max{0, |z| - sqrt(b c), |w| - sqrt(a d)}.

Cells off the X pattern, scattered into all 16 lattice rows, take the
general Wootters route from the amplitude factor of their density.  Every
pair density is rho = M M^dag, with M the
4 x 4 matrix of the amplitudes that the reducer multiplies (rows kept,
columns traced), so rho rho~ = M M^dag (sigma_y x sigma_y) M* M^T (sigma_y
x sigma_y) has the eigenvalues of S^dag S with S = M^T (sigma_y x sigma_y)
M: the square roots lambda_i of Wootters' formula are the singular values
of S.  No eigenvalue of rho is rooted and no 4x4 density is formed.
A negative ``x_tol`` sends every cell through the general route;
``GridEngine.values`` passes it on, which is how ``jcpairs verify`` holds
the two routes together.
"""

from __future__ import annotations

import numpy as np

from .linalg import ALL_ROWS, Workspace, _reduction_plan, pair_entries

PAIR_LABELS = ("AB", "ab", "Aa", "Bb", "Ab", "Ba")

# sigma_y x sigma_y, the spin flip of the general route
_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


class _CellRefusal(ValueError):
    """A refusal naming a cell of a stack; ``GridEngine`` re-raises it with the cell's grid index."""

    def __init__(self, head, cell):
        self.parts = head, tuple(int(i) for i in cell)
        super().__init__(f"{head} at cell {self.parts[1]}")


def _reject_first(bad, values, what):
    """Raise for the first cell flagged in ``bad``, naming it when there is a stack."""
    if not bad.any():
        return
    first = int(np.flatnonzero(bad)[0])
    message = f"invalid density matrix: {what} {np.ravel(values)[first]:.3e}"
    if np.ndim(bad):
        raise _CellRefusal(message, np.unravel_index(first, np.shape(bad)))
    raise ValueError(message)


def _x_entries(entries):
    """Real diagonal (a, b, c, d) and coherence moduli |rho[0,3]|, |rho[1,2]| from the 10 upper entries."""
    return (*entries[:4].real, np.abs(entries[4]), np.abs(entries[5]))


def _x_lowest(entries):
    """Lowest eigenvalue of Hermitian X-shaped matrices from their ``_x_entries``, via the two 2x2 blocks.

    The square roots take sums of squares rather than ``np.hypot``, which
    runs a scalar loop; density entries are at most 1, so nothing overflows.
    """
    a, b, c, d, z, w = entries
    corner = 0.5 * (a + d) - np.sqrt(np.square(0.5 * (a - d)) + np.square(z))
    inner = 0.5 * (b + c) - np.sqrt(np.square(0.5 * (b - c)) + np.square(w))
    return np.minimum(corner, inner)


# A cell whose diagonal is at least -_DIAG_SLACK and whose coherences exceed
# the geometric mean of their block's (clamped) diagonal by at most
# _BLOCK_SLACK has both 2x2 blocks plus (_DIAG_SLACK + _BLOCK_SLACK) I PSD:
# its lowest eigenvalue is at least -5e-9, inside the 1e-8 tolerance by far
# more than the rounding of either test.
_DIAG_SLACK = 1e-9
_BLOCK_SLACK = 4e-9


def _x_values(entries, x_tol, conc, q):
    """Check densities given as their 10 upper entries (10, ...) and write C and Q of the X cells.

    ``entries`` holds the ``linalg.ENTRY_ROWS``/``ENTRY_COLS`` entries of
    each cell; ``conc`` and ``q`` have its trailing shape.  Every cell's
    trace is checked (a NaN trace fails).  Cells that are X-shaped to within
    ``x_tol`` (every cell when ``x_tol`` is None: no entry off the X pattern
    can be nonzero) are checked for PSD-ness (ignoring off-X entries up to
    ``x_tol`` moves the lowest eigenvalue by at most sqrt(12) x_tol, Weyl,
    far below the 1e-8 PSD tolerance), and get
    C = 2 max{0, q_corner, q_inner} and Q = max(q_corner, q_inner).  The two
    blocks are read together, as (2, ...) stacks: with the clamped diagonal
    a, b, c, d, the roots [sqrt(b c), sqrt(a d)] and the moduli [|z|, |w|]
    give both the q's and, against the reversed roots, the PSD check in its
    shifted form: a diagonal of at least -1e-9 and |z| <= sqrt(a d) + 4e-9,
    |w| <= sqrt(b c) + 4e-9 hold both blocks plus 5e-9 I PSD.  Only when
    some cell fails that (an engine's densities are PSD to rounding) is the
    lowest eigenvalue read from the blocks (``_x_lowest``), which decides
    and words the rejection of the first cell below -1e-8.  Returns the
    mask of the cells off X, whose C and Q are left for the general route
    (``np.False_`` when ``x_tol`` is None).
    """
    diag = entries[:4].real
    trace_err = np.abs(diag[0] + diag[1] + diag[2] + diag[3] - 1.0)
    trace_ok = trace_err <= 1e-8  # NaN fails it
    if not trace_ok.all():
        _reject_first(~trace_ok, trace_err, "trace deviates from 1 by")
    general = np.False_ if x_tol is None else np.array(np.abs(entries[6:]).max(axis=0) > x_tol)
    roots = np.maximum(diag, 0.0)
    roots = roots[1::-1] * roots[2:]
    np.sqrt(roots, out=roots)  # [sqrt(b c), sqrt(a d)]
    moduli = np.abs(entries[4:6])  # [|z|, |w|]
    if not (diag.min(initial=np.inf) >= -_DIAG_SLACK
            and (moduli - roots[::-1]).max(initial=-np.inf) <= _BLOCK_SLACK):
        lowest = _x_lowest(_x_entries(entries))
        _reject_first((lowest < -1e-8) & ~general, lowest, "not PSD, lowest eigenvalue")
    np.subtract(moduli, roots, out=moduli)  # [q_corner, q_inner]
    np.maximum(moduli[0], moduli[1], out=q)
    np.maximum(q, 0.0, out=conc)
    conc *= 2.0
    return general


def pair_values(amps, pairs, *, live=ALL_ROWS, x_tol=1e-10, work=None, out=None):
    """Concurrence and signed Q of ``pairs`` of a stack of four-qubit pure states.

    ``amps`` (len(live), *cells) holds the flat lattice rows ``live``
    (``linalg.pair_entries``); the results have shape (*cells, len(pairs))
    and go to ``out`` = (C, Q) when given.  The pairs are reduced by
    ``pair_entries`` (buffers from ``work``), and every cell is checked and
    its X cells read by ``_x_values`` from one contiguous copy of the
    entries with the pairs last.  A cell off the X pattern (an off-X entry
    above ``x_tol``) gets C = max{0, s1 - s2 - s3 - s4} from the decreasing
    singular values of M^T (sigma_y x sigma_y) M, M its 4 x 4 amplitude
    factor (its rows scattered into all 16 lattice rows), and Q = NaN.
    When no requested entry off the X pattern has a live product, every
    cell is X and the test is skipped, unless a negative ``x_tol`` sends
    every cell to the general route.
    """
    amps = np.asarray(amps, dtype=complex)
    pairs, live = tuple(pairs), tuple(live)
    cells = amps.shape[1:]
    shape = cells + (len(pairs),)
    conc, q = (np.empty(shape), np.empty(shape)) if out is None else out
    if work is None:
        work = Workspace()
    tables, *_, off_x = _reduction_plan(pairs, live)
    entries = pair_entries(amps, pairs, live=live, work=work)  # (pair, 10, *cells)
    # the reader's operands are whole rows of (10, *cells, pair): one contiguous copy
    by_entry = work.get("read.entries", (10,) + shape)
    np.copyto(by_entry, entries.transpose(1, *range(2, entries.ndim), 0))
    general = _x_values(by_entry, x_tol if off_x or x_tol < 0 else None, conc, q)
    if general.any():
        cell_index, pair_index = np.nonzero(general.reshape(-1, len(pairs)))
        flat = np.zeros((16, cell_index.size), dtype=complex)
        flat[list(live)] = amps.reshape(len(live), -1)[:, cell_index]
        general_c = np.empty(cell_index.size)
        for slot, table in enumerate(tables):
            mine = pair_index == slot
            if mine.any():
                factors = np.moveaxis(flat[:, mine][table], -1, 0)  # (cells, 4, 4)
                s = np.linalg.svd(factors.swapaxes(-1, -2) @ _SIGMA_YY @ factors, compute_uv=False)
                general_c[mine] = np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])
        conc[general] = general_c
        q[general] = np.nan
    return conc, q
