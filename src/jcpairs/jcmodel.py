"""Single-site Jaynes-Cummings data and Hamiltonian.

One site couples a two-level atom to one cavity mode by excitation exchange
(units with hbar = 1):

    H_site = (omega0/2) sigma_z + g (a^dag sigma_- + sigma_+ a) + omega a^dag a

The lattice is two uncoupled copies of one site, (A, a) and (B, b): the
total Hamiltonian is H_site (x) I + I (x) H_site, so its propagator is the
Kronecker square of the site propagator, and no route builds it.

Within the n-excitation manifold (n >= 1) the site Hamiltonian mixes
|e, n-1> and |g, n> with Rabi coupling G_n = 2 g sqrt(n) and detuning
Delta = omega - omega0; the dressed pair is split by sqrt(Delta^2 + G_n^2)
and characterized by the mixing angle theta_n with cos(theta_n) = Delta/split
(``JCParams.splitting`` at n = 1, where the initial families live).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        # every route takes the manifold splitting hypot(Delta, 2g) and the Rabi coupling 2g
        if not math.isfinite(self.splitting):
            raise ValueError(
                f"the manifold splitting hypot(omega - omega0, 2g) overflows for "
                f"omega0={self.omega0}, omega={self.omega}, g={self.g}"
            )

    @property
    def detuning(self):
        """Cavity minus atom frequency, omega - omega0 (any sign)."""
        return self.omega - self.omega0

    def rabi(self, n=1):
        """Manifold coupling strength 2 g sqrt(n)."""
        return 2.0 * self.g * math.sqrt(n)

    @property
    def splitting(self):
        """Splitting delta = hypot(Delta, 2g) of the one-excitation dressed pair."""
        return math.hypot(self.detuning, self.rabi(1))


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

