"""Pairwise concurrence dynamics of two uncoupled Jaynes-Cummings sites.

Two atom-cavity sites (A, a) and (B, b) evolve independently while the atoms
start entangled; the package follows all six pairwise Wootters concurrences
over (alpha, t) grids through three mutually cross-validating routes (closed
form, dressed-state analytics, exact diagonalization of the one-photon site
Hamiltonian) behind one interface, ``GridEngine``, and locates
entanglement-sudden-death windows.
"""

from .engine import GridEngine, GridValues
from .entanglement import PAIR_LABELS
from .esd import ZeroInterval, boundary_AB, zero_intervals
from .jcmodel import JCParams, site_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "GridEngine",
    "GridValues",
    "JCParams",
    "PAIR_LABELS",
    "ZeroInterval",
    "boundary_AB",
    "site_hamiltonian",
    "zero_intervals",
]
