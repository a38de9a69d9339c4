"""Dense complex linear algebra for small quantum systems.

Conventions used throughout the package: matrices are numpy complex arrays;
the lattice tensor factors are ordered (A, a, B, b) = (atom, cavity, atom,
cavity); every two-level basis lists the excited level first (atoms: e then
g; cavities reduced to qubits: one photon then vacuum).
"""

from __future__ import annotations

import numpy as np

SUBSYSTEMS = ("A", "a", "B", "b")
CAVITY_SUBSYSTEMS = frozenset(("a", "b"))
_AXIS = {label: i for i, label in enumerate(SUBSYSTEMS)}

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def kron(a, b):
    """Kronecker product: C[(i1,i2),(j1,j2)] = A[i1,j1] * B[i2,j2]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(m):
    """Conjugate transpose of a matrix or of every matrix in a (..., n, n) stack."""
    return m.conj().swapaxes(-1, -2)


def hermiticity_defect(m):
    """max |M - M^dag|, elementwise (over the whole stack for a stack)."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m))))


def sqrt_psd(m, tol=1e-12):
    """Hermitian PSD square root via eigendecomposition, of one matrix or a stack.

    Rejects input whose Hermiticity defect exceeds max(tol, 1e-12), and
    eigenvalues below ``-tol``, reporting the measured value.  Eigenvalues
    at or below n^2 eps times the largest one (16 eps for 4x4), which the
    eigensolver cannot tell from zero, are set to zero, so the root does not
    turn their round-off into O(1e-8) entries; every larger eigenvalue is
    kept.
    """
    m = np.asarray(m, dtype=complex)
    herm_tol = max(tol, 1e-12)
    defect = hermiticity_defect(m)
    if defect > herm_tol:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds tolerance {herm_tol:.3e}"
        )
    w, v = np.linalg.eigh(m)
    w, v = w[..., ::-1], v[..., ::-1]  # decreasing order, which fixes the root's round-off
    lowest = float(np.min(w[..., -1]))
    if lowest < -tol:
        raise ValueError(f"matrix is not PSD: eigenvalue {lowest:.3e} below -{tol:.3e}")
    cut = w.shape[-1] ** 2 * np.finfo(float).eps * w[..., :1]
    w = np.where(w <= cut, 0.0, w)
    root = (v * np.sqrt(w)[..., None, :]) @ dagger(v)
    return 0.5 * (root + dagger(root))


def partial_trace(state, keep, *, leak_tol=1e-10):
    """Reduce a four-factor pure state to the 4x4 density matrix of two factors.

    ``state`` must expose ``dims`` (the four factor dimensions) and
    ``amplitudes`` (flat vector); see ``pair_density`` for ``keep``, the
    basis order and the cavity projection.
    """
    psi = np.asarray(state.amplitudes, dtype=complex).reshape(tuple(state.dims))
    return pair_density(psi, keep, leak_tol=leak_tol)


def pair_density(psi, keep, *, leak_tol=1e-10):
    """Reduce a stack of four-factor pure states to the 4x4 densities of two factors.

    ``psi`` has shape (..., d_A, d_a, d_B, d_b), one amplitude tensor per
    cell of the leading axes; the result has shape (..., 4, 4).  ``keep`` is
    an ordered pair of labels from ("A", "a", "B", "b") and fixes the
    ordering of the output factors.

    Kept cavity factors are projected onto the zero/one photon subspace and
    reported in (one photon, vacuum) order, so every output basis lists the
    excited level first: (x1 x2) = (ee, eg, ge, gg)-like.  The projection is
    refused when a kept cavity holds more than ``leak_tol`` probability
    above one photon in any cell.
    """
    if len(keep) != 2 or keep[0] == keep[1]:
        raise ValueError(f"keep must name two distinct subsystems, got {tuple(keep)!r}")
    for label in keep:
        if label not in _AXIS:
            raise ValueError(f"unknown subsystem label {label!r}; expected one of {SUBSYSTEMS}")
    psi = np.asarray(psi, dtype=complex)
    lead = psi.ndim - 4
    keep_axes = tuple(_AXIS[label] for label in keep)
    traced_axes = tuple(ax for ax in range(4) if ax not in keep_axes)
    order = tuple(range(lead)) + tuple(lead + ax for ax in keep_axes + traced_axes)
    kept = np.transpose(psi, order)  # (..., d0, d1, traced, traced)

    select = [slice(None)] * kept.ndim  # atoms already index (e, g)
    for pos, label in enumerate(keep):
        axis = lead + pos
        if label not in CAVITY_SUBSYSTEMS:
            continue
        if kept.shape[axis] > 2:
            above = kept[(slice(None),) * axis + (slice(2, None),)]
            leak = float(np.max(np.sum(np.abs(above) ** 2, axis=(-4, -3, -2, -1))))
            if leak > leak_tol:
                raise ValueError(
                    f"cavity {label} holds probability {leak:.3e} above one photon "
                    f"(tolerance {leak_tol:.3e}); cannot reduce to a qubit"
                )
        select[axis] = slice(1, None, -1)  # photon numbers (1, 0)

    mat = kept[tuple(select)].reshape(psi.shape[:lead] + (4, -1))
    rho = mat @ dagger(mat)
    return 0.5 * (rho + dagger(rho))
