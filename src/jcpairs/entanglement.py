"""Wootters concurrence for the six subsystem pairs of the lattice.

The general route computes the spin-flip spectrum through a Hermitized
product: the sqrt-eigenvalues of zeta = rho rho~ (rho~ the spin-flipped
matrix) equal the singular values of sqrt(rho) (sigma_y x sigma_y)
conj(sqrt(rho)), which keeps round-off out of the square roots.  A fast path
reads the concurrence of X-shaped matrices directly from their entries:
the corner coherence competes with the inner populations and vice versa,

    C = 2 max{0, |z| - sqrt(b c), |w| - sqrt(a d)}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_Y, dagger, kron, partial_trace, sqrt_psd

PAIR_LABELS = ("AB", "ab", "Aa", "Bb", "Ab", "Ba")

_SIGMA_YY = kron(SIGMA_Y, SIGMA_Y)
_X_MASK = np.zeros((4, 4), dtype=bool)
_X_MASK[np.arange(4), np.arange(4)] = True
_X_MASK[np.arange(4), np.arange(4)[::-1]] = True
_OFF_X_ROWS, _OFF_X_COLS = np.nonzero(~_X_MASK)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence with its zeta spectrum and, on X states, the signed Q pair."""

    value: float
    zeta_eigenvalues: np.ndarray
    q_corner: float | None = None
    q_inner: float | None = None

    @property
    def q(self):
        """Signed Q of the dominant branch; None when the state is not X-form."""
        if self.q_corner is None:
            return None
        return max(self.q_corner, self.q_inner)


def _reject_first(bad, values, what):
    """Raise for the first cell flagged in ``bad``, naming it when there is a stack."""
    if not bad.any():
        return
    first = int(np.flatnonzero(bad)[0])
    where = ""
    if np.ndim(bad):
        where = f" at cell {tuple(int(i) for i in np.unravel_index(first, np.shape(bad)))}"
    raise ValueError(f"invalid density matrix: {what} {np.ravel(values)[first]:.3e}{where}")


def _hermitian_part(rho, *, trace_tol=1e-8, herm_tol=1e-8):
    """Check the trace and Hermiticity of a 4x4 matrix or a (..., 4, 4) stack.

    Returns the Hermitian part 0.5 (rho + rho^dag).
    """
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    trace_err = np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0)
    _reject_first(trace_err > trace_tol, trace_err, "trace deviates from 1 by")
    # |rho - rho^dag| from the real and imaginary views, without complex temporaries
    re, im = rho.real, rho.imag
    defect = np.hypot(re - re.swapaxes(-1, -2), im + im.swapaxes(-1, -2)).max(axis=(-2, -1))
    _reject_first(defect > herm_tol, defect, "Hermiticity defect")
    herm = dagger(rho)
    herm += rho
    herm *= 0.5
    return herm


def _reject_non_psd(lowest, psd_tol=1e-8):
    _reject_first(lowest < -psd_tol, lowest, "not PSD, lowest eigenvalue")


def _validate_density(rho):
    """Check one 4x4 density matrix or every cell of a (..., 4, 4) stack."""
    _reject_non_psd(np.linalg.eigvalsh(_hermitian_part(rho))[..., 0])


def off_x_defect(rho):
    """Largest entry outside the diagonal + anti-diagonal pattern, per 4x4 cell."""
    return np.abs(rho[..., _OFF_X_ROWS, _OFF_X_COLS]).max(axis=-1)


def _x_qs(rho):
    """Signed (q_corner, q_inner) of X-shaped matrices, per 4x4 cell."""
    a, b, c, d = (np.maximum(rho[..., i, i].real, 0.0) for i in range(4))
    q_corner = np.abs(rho[..., 0, 3]) - np.sqrt(b * c)
    q_inner = np.abs(rho[..., 1, 2]) - np.sqrt(a * d)
    return q_corner, q_inner


def _x_lowest(rho):
    """Lowest eigenvalue of Hermitian X-shaped matrices, per cell, from their two 2x2 blocks."""
    a, b, c, d = (rho[..., i, i].real for i in range(4))
    corner = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(rho[..., 0, 3]))
    inner = 0.5 * (b + c) - np.hypot(0.5 * (b - c), np.abs(rho[..., 1, 2]))
    return np.minimum(corner, inner)


def _flip_singular_values(rho):
    """Singular values of sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)), decreasing."""
    root = sqrt_psd(rho, tol=1e-12)
    flipped_root = _SIGMA_YY @ root.conj() @ _SIGMA_YY
    return np.linalg.svd(root @ flipped_root, compute_uv=False)


def wootters_concurrence(rho, *, validate=True, x_tol=1e-10):
    """Concurrence of a two-qubit density matrix (general mixed states).

    Returns the zeta eigenvalues sorted in decreasing order (negative
    round-off clamped) and C = max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) -
    sqrt(l4)}.  When the matrix is X-shaped to within ``x_tol``, the signed
    corner/inner Q diagnostics are attached.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        _validate_density(rho)
    rho = 0.5 * (rho + dagger(rho))
    sigma = _flip_singular_values(rho)
    value = max(0.0, sigma[0] - sigma[1] - sigma[2] - sigma[3])
    q_corner = q_inner = None
    if off_x_defect(rho) <= x_tol:
        q_corner, q_inner = (float(q) for q in _x_qs(rho))
    return ConcurrenceResult(
        value=float(value),
        zeta_eigenvalues=np.clip(sigma**2, 0.0, None),
        q_corner=q_corner,
        q_inner=q_inner,
    )


def xstate_concurrence(rho, *, off_x_tol=1e-10, validate=True):
    """Concurrence of an X-shaped density matrix from its entries.

    With diagonal (a, b, c, d), corner coherence z = rho[0,3] and inner
    coherence w = rho[1,2]:  C = 2 max{0, |z| - sqrt(bc), |w| - sqrt(ad)}.
    Any off-X entry above ``off_x_tol`` is rejected, reporting its magnitude
    and position.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        _validate_density(rho)
    defect = float(off_x_defect(rho))
    if defect > off_x_tol:
        k = int(np.abs(rho[_OFF_X_ROWS, _OFF_X_COLS]).argmax())
        pos = (int(_OFF_X_ROWS[k]), int(_OFF_X_COLS[k]))
        raise ValueError(
            f"entry {pos} has magnitude {defect:.3e}, above the X-pattern tolerance {off_x_tol:.3e}"
        )
    q_corner, q_inner = (float(q) for q in _x_qs(rho))
    diag = np.clip(rho.diagonal().real, 0.0, None)
    a, b, c, d = diag
    z, w = abs(rho[0, 3]), abs(rho[1, 2])
    lams = np.sort(
        np.array(
            [
                (z + np.sqrt(a * d)) ** 2,
                (z - np.sqrt(a * d)) ** 2,
                (w + np.sqrt(b * c)) ** 2,
                (w - np.sqrt(b * c)) ** 2,
            ]
        )
    )[::-1]
    return ConcurrenceResult(
        value=2.0 * max(0.0, q_corner, q_inner),
        zeta_eigenvalues=lams,
        q_corner=q_corner,
        q_inner=q_inner,
    )


def concurrence_stack(rho, *, x_tol=1e-10):
    """Concurrence and signed Q of every cell of a (..., 4, 4) stack of densities.

    The stack is validated once; the first invalid cell is named in the
    error.  Cells that are X-shaped to within ``x_tol`` take their values
    from the entries, C = 2 max{0, q_corner, q_inner} and Q = max(q_corner,
    q_inner); any other cell goes through the general Wootters route and
    gets Q = NaN.  Returns arrays (C, Q) of the stack's leading shape.

    The PSD check of an X cell reads its lowest eigenvalue from the two 2x2
    blocks; ignoring off-X entries up to ``x_tol`` moves it by at most
    sqrt(12) x_tol (Weyl), far below the 1e-8 PSD tolerance.
    """
    rho = _hermitian_part(np.asarray(rho, dtype=complex))
    general = np.array(off_x_defect(rho) > x_tol)  # arrays also for a single matrix
    lowest = np.array(_x_lowest(rho))
    if general.any():
        lowest[general] = np.linalg.eigvalsh(rho[general])[..., 0]
    _reject_non_psd(lowest)
    q = np.array(np.maximum(*_x_qs(rho)))
    conc = np.array(2.0 * np.maximum(q, 0.0))
    if general.any():
        sigma = _flip_singular_values(rho[general])
        conc[general] = np.maximum(0.0, sigma[..., 0] - sigma[..., 1] - sigma[..., 2] - sigma[..., 3])
        q[general] = np.nan
    return conc, q


def all_pairwise(state, *, leak_tol=1e-10, x_tol=1e-10):
    """Concurrence of every subsystem pair, keyed by PAIR_LABELS order."""
    results = {}
    for label in PAIR_LABELS:
        rho = partial_trace(state, (label[0], label[1]), leak_tol=leak_tol)
        results[label] = wootters_concurrence(rho, x_tol=x_tol)
    return results
