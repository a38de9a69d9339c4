"""Wootters concurrence for the six subsystem pairs of the lattice, on whole stacks.

``pair_values`` is the one road from amplitudes to C and Q: it reduces a
stack of the lattice rows its caller names with ``linalg.pair_entries``
(the 6 X-pattern entries of every pair density, cells last), checks every
cell and reads all of them by one route.  The X route reads C from the
entries, the corner coherence against the inner populations and vice
versa, C = 2 max{0, |z| - sqrt(b c), |w| - sqrt(a d)} (Yu & Eberly, QIC 7,
459 (2007)).  It refuses by name a pair that is not X-shaped by structure
(an entry off the X pattern has a product); no pair of either family is.

The general Wootters route (``general=True``: ``jcpairs verify`` and the
tests) reads each cell's amplitude factor M, rho = M M^dag (rows kept,
columns traced): rho rho~ has the eigenvalues of S^dag S with
S = M^T (sigma_y x sigma_y) M, so the square roots lambda_i of Wootters'
formula are the singular values of S.  No eigenvalue of rho is rooted and
no 4x4 density is formed.
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
    """Real diagonal (a, b, c, d) and coherence moduli |rho[0,3]|, |rho[1,2]| from the 6 X entries."""
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


def _check_trace(entries):
    """Refuse the first cell of the X entries (6, ...) whose trace is off 1 by more than 1e-8, or NaN."""
    diag = entries[:4].real
    trace_err = np.abs(diag[0] + diag[1] + diag[2] + diag[3] - 1.0)
    _reject_first(~(trace_err <= 1e-8), trace_err, "trace deviates from 1 by")


def _x_values(entries, conc, q):
    """Check X densities given as their 6 X entries (6, ...) and write their C and Q.

    ``entries`` holds the ``linalg.ENTRY_ROWS``/``ENTRY_COLS`` entries of
    each cell; ``conc`` and ``q`` have its trailing shape.  Every cell's
    trace (``_check_trace``) and PSD-ness are checked, and every cell gets
    C = 2 max{0, q_corner, q_inner} and Q = max(q_corner, q_inner).  The two
    blocks are read together, as (2, ...) stacks: with the clamped diagonal
    a, b, c, d, the roots [sqrt(b c), sqrt(a d)] and the moduli [|z|, |w|]
    give both the q's and, against the reversed roots, the PSD check in its
    shifted form: a diagonal of at least -1e-9 and |z| <= sqrt(a d) + 4e-9,
    |w| <= sqrt(b c) + 4e-9 hold both blocks plus 5e-9 I PSD.  Only when
    some cell fails that (an engine's densities are PSD to rounding) is the
    lowest eigenvalue read from the blocks (``_x_lowest``), which decides
    and words the rejection of the first cell below -1e-8.
    """
    _check_trace(entries)
    diag = entries[:4].real
    roots = np.maximum(diag, 0.0)
    roots = roots[1::-1] * roots[2:]
    np.sqrt(roots, out=roots)  # [sqrt(b c), sqrt(a d)]
    moduli = np.abs(entries[4:6])  # [|z|, |w|]
    if not (diag.min(initial=np.inf) >= -_DIAG_SLACK
            and (moduli - roots[::-1]).max(initial=-np.inf) <= _BLOCK_SLACK):
        lowest = _x_lowest(_x_entries(entries))
        _reject_first(lowest < -1e-8, lowest, "not PSD, lowest eigenvalue")
    np.subtract(moduli, roots, out=moduli)  # [q_corner, q_inner]
    np.maximum(moduli[0], moduli[1], out=q)
    np.maximum(q, 0.0, out=conc)
    conc *= 2.0


def pair_values(amps, pairs, *, live=ALL_ROWS, general=False, work=None, out=None):
    """Concurrence and signed Q of ``pairs`` of a stack of four-qubit pure states.

    ``amps`` (len(live), *cells) holds the flat lattice rows ``live``
    (``linalg.pair_entries``); the results have shape (*cells, len(pairs))
    and go to ``out`` = (C, Q) when given.  The pairs are reduced by
    ``pair_entries`` (buffers from ``work``) and every cell's trace is
    checked from one contiguous copy of the entries with the pairs last.
    By default the X route (``_x_values``) reads every cell; a pair with a
    product off the X pattern is refused, by name, before any cell is read.
    With ``general`` every cell gets C = max{0, s1 - s2 - s3 - s4} from the
    decreasing singular values of M^T (sigma_y x sigma_y) M, M its 4 x 4
    amplitude factor (the stack scattered into all 16 lattice rows), and
    Q = NaN.
    """
    amps = np.asarray(amps, dtype=complex)
    pairs, live = tuple(pairs), tuple(live)
    cells = amps.shape[1:]
    shape = cells + (len(pairs),)
    conc, q = (np.empty(shape), np.empty(shape)) if out is None else out
    if work is None:
        work = Workspace()
    tables, *_, off_x = _reduction_plan(pairs, live)
    if off_x is not None and not general:
        raise ValueError(f"the X reader refuses pair {off_x}: an entry off the X pattern has a product")
    entries = pair_entries(amps, pairs, live=live, work=work)  # (pair, 6, *cells)
    # the reader's operands are whole rows of (6, *cells, pair): one contiguous copy
    by_entry = work.get("read.entries", (6,) + shape)
    np.copyto(by_entry, entries.transpose(1, *range(2, entries.ndim), 0))
    if not general:
        _x_values(by_entry, conc, q)
        return conc, q
    _check_trace(by_entry)
    flat = np.zeros((16,) + cells, dtype=complex)
    flat[list(live)] = amps
    for slot, table in enumerate(tables):
        factors = np.moveaxis(flat[table].reshape(4, 4, -1), -1, 0)  # (cells, 4, 4)
        s = np.linalg.svd(factors.swapaxes(-1, -2) @ _SIGMA_YY @ factors, compute_uv=False)
        conc[..., slot] = np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3]).reshape(cells)
    q[...] = np.nan
    return conc, q
