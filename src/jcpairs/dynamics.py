"""Initial states of the two-site lattice and their time evolution.

Two independent engines produce the evolving pure state: an analytic
propagator that phases the dressed states of each site (restricted to the
single-excitation ladder the initial families live in), and brute-force
spectral decomposition of the full Hamiltonian matrix.  Both use the literal
Hamiltonian's energy zero point, so they agree at the amplitude level, not
just in derived quantities.

Each engine evolves one state at one time (``evolve_analytic``,
``HamiltonianPropagator.evolve``) or a whole (alpha, t) grid at once
(``analytic_amplitudes``, ``HamiltonianPropagator.evolve_grid``), returning
amplitude stacks of shape (n_alpha, n_t, 2, d, 2, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jcmodel import dressed_data
from .linalg import hermiticity_defect

FAMILY_KINDS = ("phi", "psi")

# (A, a, B, b) cells carrying cos(alpha) and sin(alpha) at t = 0
_INITIAL_CELLS = {
    "phi": ((0, 0, 0, 0), (1, 0, 1, 0)),  # |e,0,e,0>, |g,0,g,0>
    "psi": ((0, 0, 1, 0), (1, 0, 0, 0)),  # |e,0,g,0>, |g,0,e,0>
}


@dataclass(frozen=True)
class InitialFamily:
    """Two-atom superposition family, cavities in vacuum.

    kind 'phi' pairs the doubly-excited and doubly-ground atoms,
    cos(alpha)|e e> + sin(alpha)|g g>; kind 'psi' pairs the single-excitation
    atoms, cos(alpha)|e g> + sin(alpha)|g e>.  alpha = pi/4 gives the Bell
    states.
    """

    kind: str
    alpha: float

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"kind must be one of {FAMILY_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")


@dataclass
class FourPartiteState:
    """Pure state over factors (atom A, cavity a, atom B, cavity b).

    ``dims`` = (2, n_max+1, 2, n_max+1); atoms index (e, g), cavities index
    photon number.  ``amplitudes`` is the flat row-major vector.
    """

    dims: tuple
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        expected = math.prod(self.dims)
        if self.amplitudes.size != expected:
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.size}, dims {self.dims} need {expected}"
            )


def initial_amplitudes(kind, alphas, n_max=1):
    """Initial tensors (..., 2, n_max+1, 2, n_max+1) of the family for each alpha."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    alphas = np.asarray(alphas, dtype=float)
    n_ph = n_max + 1
    psi = np.zeros(alphas.shape + (2, n_ph, 2, n_ph), dtype=complex)
    first, second = _INITIAL_CELLS[kind]
    psi[(Ellipsis, *first)] = np.cos(alphas)
    psi[(Ellipsis, *second)] = np.sin(alphas)
    return psi


def prepare_initial(family, n_max=1):
    """Initial lattice state of the chosen family at time zero."""
    psi = initial_amplitudes(family.kind, family.alpha, n_max)
    return FourPartiteState(dims=psi.shape, amplitudes=psi.reshape(-1), time=0.0)


def _site_factors(params, t):
    """Amplitude pair (f, h) for |e,0> -> f|e,0> + h|g,1>, plus the |g,0> phase.

    Uses the literal site spectrum: n=1 manifold energies omega/2 +- delta/2
    (whose eigenvectors pair the upper level with (sin, cos) of the half
    mixing angle) and ground energy -omega0/2.  ``t`` may be an array.
    """
    d = dressed_data(params, 1)
    center = 0.5 * params.omega
    e_up = np.exp(-1j * (center + 0.5 * d.splitting) * t)
    e_dn = np.exp(-1j * (center - 0.5 * d.splitting) * t)
    f = d.sin_half**2 * e_up + d.cos_half**2 * e_dn
    h = d.sin_half * d.cos_half * (e_up - e_dn)
    ground = np.exp(0.5j * params.omega0 * t)
    return f, h, ground


def _fill_evolved(psi, kind, ca, sa, f, h, ground):
    """Write the evolved family into the (..., 2, 2, 2, 2) tensor ``psi``."""
    if kind == "phi":
        psi[..., 0, 0, 0, 0] = ca * f * f
        psi[..., 0, 0, 1, 1] = ca * f * h
        psi[..., 1, 1, 0, 0] = ca * h * f
        psi[..., 1, 1, 1, 1] = ca * h * h
        psi[..., 1, 0, 1, 0] = sa * ground * ground
    else:
        psi[..., 0, 0, 1, 0] = ca * f * ground
        psi[..., 1, 1, 1, 0] = ca * h * ground
        psi[..., 1, 0, 0, 0] = sa * ground * f
        psi[..., 1, 0, 1, 1] = sa * ground * h
    return psi


def evolve_analytic(family, params, t):
    """Evolve the family's initial state to time t by dressed-state phases.

    Both sites share ``params``; the state stays in the single-excitation
    ladder of each site, so the returned state has n_max = 1.
    """
    f, h, ground = _site_factors(params, t)
    ca, sa = math.cos(family.alpha), math.sin(family.alpha)
    psi = _fill_evolved(np.zeros((2, 2, 2, 2), dtype=complex), family.kind, ca, sa, f, h, ground)
    return FourPartiteState(dims=psi.shape, amplitudes=psi.reshape(-1), time=t)


def analytic_amplitudes(kind, alphas, ts, params):
    """``evolve_analytic`` over a grid: a (n_alpha, n_t, 2, 2, 2, 2) amplitude stack."""
    alphas = np.asarray(alphas, dtype=float)
    ts = np.asarray(ts, dtype=float)
    f, h, ground = _site_factors(params, ts)
    ca, sa = np.cos(alphas)[:, None], np.sin(alphas)[:, None]
    psi = np.zeros((alphas.size, ts.size, 2, 2, 2, 2), dtype=complex)
    return _fill_evolved(psi, kind, ca, sa, f, h, ground)


class HamiltonianPropagator:
    """Exact propagator exp(-i H t) from one spectral decomposition of H."""

    def __init__(self, h, *, herm_tol=1e-12):
        h = np.asarray(h, dtype=complex)
        defect = hermiticity_defect(h)
        if defect > herm_tol:
            raise ValueError(f"Hamiltonian is not Hermitian: asymmetry {defect:.3e}")
        self._dim = h.shape[0]
        self._w, self._v = np.linalg.eigh(h)

    def evolve(self, state, t):
        amps = np.asarray(state.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self._dim:
            raise ValueError(
                f"dimension mismatch: state has {amps.size} amplitudes, Hamiltonian is {self._dim}x{self._dim}"
            )
        coeffs = self._v.conj().T @ amps
        evolved = self._v @ (np.exp(-1j * self._w * t) * coeffs)
        return FourPartiteState(dims=state.dims, amplitudes=evolved, time=state.time + t)

    def evolve_grid(self, psi0, ts):
        """Evolve a stack of initial tensors (n_states, ...) to every time in ``ts``.

        Returns shape (n_states, n_t, ...): V (exp(-i Lambda t) (V^dag psi0))
        for all states and times as one matrix product.
        """
        psi0 = np.asarray(psi0, dtype=complex)
        flat = psi0.reshape(psi0.shape[0], -1)
        if flat.shape[1] != self._dim:
            raise ValueError(
                f"dimension mismatch: states have {flat.shape[1]} amplitudes, "
                f"Hamiltonian is {self._dim}x{self._dim}"
            )
        coeffs = flat @ self._v.conj()
        phases = np.exp(-1j * np.multiply.outer(np.asarray(ts, dtype=float), self._w))
        evolved = (coeffs[:, None, :] * phases) @ self._v.T
        return evolved.reshape(psi0.shape[:1] + (phases.shape[0],) + psi0.shape[1:])

