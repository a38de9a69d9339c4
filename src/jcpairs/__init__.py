"""Pairwise concurrence dynamics of two uncoupled Jaynes-Cummings sites.

Two atom-cavity sites (A, a) and (B, b) evolve independently while the atoms
start entangled; the package follows all six pairwise Wootters concurrences
through three mutually cross-validating routes (closed form, dressed-state
analytics, full diagonalization) and locates entanglement-sudden-death
windows.
"""

from .closedform import (
    ClosedFormValues,
    OffResIngredients,
    phi_offres_ingredients,
    phi_resonance,
    psi_offres_ingredients,
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
from .esd import (
    EsdMap,
    SweepResult,
    ZeroInterval,
    esd_boundary_phi_AB,
    sweep,
    zero_intervals,
)
from .jcmodel import (
    DressedData,
    JCParams,
    bare_dressed_transform,
    dressed_data,
    site_hamiltonian,
    total_excitation_numbers,
    total_hamiltonian,
)
from .linalg import SUBSYSTEMS, Spectrum, eig_hermitian, kron, partial_trace, sqrt_psd

__version__ = "0.1.0"

__all__ = [
    "ClosedFormValues",
    "ConcurrenceResult",
    "DressedData",
    "EsdMap",
    "FourPartiteState",
    "GridEngine",
    "GridValues",
    "HamiltonianPropagator",
    "InitialFamily",
    "JCParams",
    "OffResIngredients",
    "PAIR_LABELS",
    "SUBSYSTEMS",
    "Spectrum",
    "SweepResult",
    "ZeroInterval",
    "all_pairwise",
    "bare_dressed_transform",
    "dressed_data",
    "eig_hermitian",
    "esd_boundary_phi_AB",
    "evolve_analytic",
    "kron",
    "partial_trace",
    "phi_offres_ingredients",
    "phi_resonance",
    "prepare_initial",
    "psi_offres_ingredients",
    "psi_resonance",
    "q_identity_lhs",
    "resonance_values",
    "site_hamiltonian",
    "sqrt_psd",
    "sweep",
    "total_excitation_numbers",
    "total_hamiltonian",
    "wootters_concurrence",
    "xstate_concurrence",
    "zero_intervals",
]
