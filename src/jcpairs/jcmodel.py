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


def site_hamiltonian(params):
    """The one-photon site Hamiltonian, a 4x4 matrix on the levels (e,0), (e,1), (g,0), (g,1).

    The index of level (atom, photon) is 2 atom + photon, atom 0 = e,
    1 = g.  The exchange coupling conserves each site's excitation number,
    and the initial families put at most one excitation on a site, so their
    levels |g,0>, |e,0> and |g,1> never connect out of this space; (e,1),
    whose partner |g,2> lies beyond it, stands alone.
    """
    half, w, g = 0.5 * params.omega0, params.omega, params.g
    return np.array([[half, 0, 0, g], [0, half + w, 0, 0], [0, 0, -half, 0], [g, 0, 0, w - half]], dtype=complex)
