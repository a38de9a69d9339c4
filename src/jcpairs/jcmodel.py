"""Single-site Jaynes-Cummings data and the two-site lattice Hamiltonian.

One site couples a two-level atom to one cavity mode by excitation exchange
(units with hbar = 1):

    H_site = (omega0/2) sigma_z + g (a^dag sigma_- + sigma_+ a) + omega a^dag a

The lattice is two such sites, (A, a) and (B, b), with no coupling between
them, so the total Hamiltonian is H_Aa (x) I + I (x) H_Bb.

Within the n-excitation manifold (n >= 1) the site Hamiltonian mixes
|e, n-1> and |g, n> with Rabi coupling G_n = 2 g sqrt(n) and detuning
Delta = omega - omega0; the dressed pair is split by sqrt(Delta^2 + G_n^2)
and characterized by the mixing angle theta_n with cos(theta_n) = Delta/split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import kron


@dataclass(frozen=True)
class JCParams:
    """Site parameters: atom frequency, cavity frequency, coupling (hbar = 1)."""

    omega0: float
    omega: float
    g: float

    def __post_init__(self):
        for name in ("omega0", "omega", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.g > 0 and self.omega0 > 0 and self.omega > 0):
            raise ValueError(
                f"frequencies and coupling must be positive, got omega0={self.omega0}, "
                f"omega={self.omega}, g={self.g}"
            )

    @property
    def detuning(self):
        """Cavity minus atom frequency, omega - omega0 (any sign)."""
        return self.omega - self.omega0

    def rabi(self, n=1):
        """Manifold coupling strength 2 g sqrt(n)."""
        return 2.0 * self.g * math.sqrt(n)


@dataclass(frozen=True)
class DressedData:
    """Dressed-pair record for the n-excitation manifold of one site.

    ``cos_half``/``sin_half`` are cos and sin of half the mixing angle theta_n.
    """

    n: int
    rabi: float
    cos_half: float
    sin_half: float
    splitting: float


def dressed_data(params, n=1):
    """Dressed-state data for the n-excitation manifold (n >= 1)."""
    if n < 1:
        raise ValueError(
            "n must be >= 1: the zero-excitation manifold is the bare ground state |g;0> "
            "and has no dressed pair"
        )
    delta = params.detuning
    rabi = params.rabi(n)
    splitting = math.hypot(delta, rabi)
    theta = math.atan2(rabi, delta)
    return DressedData(
        n=n,
        rabi=rabi,
        cos_half=math.cos(0.5 * theta),
        sin_half=math.sin(0.5 * theta),
        splitting=splitting,
    )


def site_hamiltonian(params, n_max=1):
    """Site Hamiltonian on {e, g} (x) {0..n_max}, Fock ladder truncated at n_max.

    Basis order is atom-major with the excited atom first: index(atom, k) =
    atom*(n_max+1) + k, atom 0 = e, 1 = g.  The exchange coupling conserves
    total excitation, so states with at most n_max excitations never connect
    out of the truncated space.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n_ph = n_max + 1
    dim = 2 * n_ph
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n_ph):
        h[k, k] = 0.5 * params.omega0 + k * params.omega
        h[n_ph + k, n_ph + k] = -0.5 * params.omega0 + k * params.omega
    for k in range(n_max):
        amp = params.g * math.sqrt(k + 1)
        h[n_ph + k + 1, k] = amp  # |e,k> -> |g,k+1>
        h[k, n_ph + k + 1] = amp
    return h


def total_hamiltonian(params_aa, params_bb, n_max=1):
    """Two-site Hamiltonian H_Aa (x) I + I (x) H_Bb on factors (A, a, B, b)."""
    h_aa = site_hamiltonian(params_aa, n_max)
    h_bb = site_hamiltonian(params_bb, n_max)
    eye = np.eye(h_aa.shape[0], dtype=complex)
    return kron(h_aa, eye) + kron(eye, h_bb)
