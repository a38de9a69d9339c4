"""Pairwise concurrence dynamics of two uncoupled Jaynes-Cummings sites.

Two atom-cavity sites (A, a) and (B, b) evolve independently while the atoms
start entangled; the package follows all six pairwise Wootters concurrences
through three mutually cross-validating routes (closed form, dressed-state
analytics, full diagonalization) and locates entanglement-sudden-death
windows.
"""

from .closedform import (
    ClosedFormValues,
    phi_resonance,
    psi_resonance,
    q_identity_lhs,
    resonance_values,
)
from .dynamics import (
    FourPartiteState,
    HamiltonianPropagator,
    InitialFamily,
    evolve_analytic,
    prepare_initial,
)
from .engine import GridEngine, GridValues
from .entanglement import (
    PAIR_LABELS,
    ConcurrenceResult,
    all_pairwise,
    wootters_concurrence,
    xstate_concurrence,
)
from .esd import ZeroInterval, esd_boundary_phi_AB, zero_intervals
from .jcmodel import (
    DressedData,
    JCParams,
    dressed_data,
    site_hamiltonian,
    total_hamiltonian,
)
from .linalg import SUBSYSTEMS, kron, partial_trace, sqrt_psd

__version__ = "0.1.0"

__all__ = [
    "ClosedFormValues",
    "ConcurrenceResult",
    "DressedData",
    "FourPartiteState",
    "GridEngine",
    "GridValues",
    "HamiltonianPropagator",
    "InitialFamily",
    "JCParams",
    "PAIR_LABELS",
    "SUBSYSTEMS",
    "ZeroInterval",
    "all_pairwise",
    "dressed_data",
    "esd_boundary_phi_AB",
    "evolve_analytic",
    "kron",
    "partial_trace",
    "phi_resonance",
    "prepare_initial",
    "psi_resonance",
    "q_identity_lhs",
    "resonance_values",
    "site_hamiltonian",
    "sqrt_psd",
    "total_hamiltonian",
    "wootters_concurrence",
    "xstate_concurrence",
    "zero_intervals",
]
