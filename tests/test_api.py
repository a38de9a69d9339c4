"""The public surface: what a grid user needs, and none of the per-point layer."""

import importlib
import inspect

import jcpairs

PUBLIC = [
    "GridEngine",
    "GridValues",
    "JCParams",
    "PAIR_LABELS",
    "ZeroInterval",
    "boundary_AB",
    "site_hamiltonian",
    "zero_intervals",
]

# module -> names whose behaviour the grid functions now carry
DELETED = {
    "closedform": ["ClosedFormValues", "phi_resonance", "psi_resonance", "q_identity_lhs",
                   "resonance_values", "_resonance_pieces"],
    # the site matrix is Hermitian by construction; the propagator builds it
    # the routes build their own initial cells; the numeric route evolves
    # site factors, not matrix products over a column quantum; a route is
    # its site factors, which the one assembly ``amplitudes`` evolves
    "dynamics": ["FourPartiteState", "InitialFamily", "evolve_analytic", "prepare_initial",
                 "_HERMITIAN_TOL", "initial_amplitudes", "_COLUMN_QUANTUM", "analytic_amplitudes",
                 "_amplitudes", "_site_factors"],
    # one AB window function, at any alpha and site
    "esd": ["esd_boundary_phi_AB"],
    "entanglement": ["ConcurrenceResult", "all_pairwise", "wootters_concurrence",
                     "xstate_concurrence", "_validate_density", "concurrence_stack",
                     "_hermitian_part", "off_x_defect", "concurrence_from_entries",
                     "_flip_singular_values"],
    # the general Wootters route reads the amplitude factor; the matrix
    # helpers that only tests use live in tests/conftest.py
    "linalg": ["kron", "pair_density", "partial_trace", "pair_densities", "sqrt_psd", "SIGMA_Y",
               "entry_matrices", "upper_entries", "dagger", "hermiticity_defect", "_Plan", "_plan",
               "_LEAK_TOL"],
    # the numeric route diagonalizes the one site; the lattice matrix is the
    # tests' oracle; the n = 1 splitting is JCParams.splitting
    "jcmodel": ["total_hamiltonian", "dressed_data", "DressedData"],
    # the invariant suite reads every route through GridEngine
    "checks": ["HamiltonianPropagator", "analytic_amplitudes", "initial_amplitudes",
               "pair_densities", "concurrence_stack", "off_x_defect", "random_x_state",
               "upper_entries"],
}


def test_all_is_the_grid_surface():
    assert sorted(jcpairs.__all__) == PUBLIC
    for name in jcpairs.__all__:
        assert getattr(jcpairs, name) is not None


def test_deleted_names_are_gone():
    for module, names in DELETED.items():
        mod = importlib.import_module(f"jcpairs.{module}")
        assert [name for name in names if hasattr(mod, name)] == []
        assert [name for name in names if hasattr(jcpairs, name)] == []
    propagator = importlib.import_module("jcpairs.dynamics").HamiltonianPropagator
    assert [name for name in ("evolve", "evolve_grid") if hasattr(propagator, name)] == []
    assert not hasattr(jcpairs.GridEngine, "_evolve")


def test_grid_engine_builds_its_own_site():
    # both sites are the engine's JCParams: no Hamiltonian and no photon
    # cutoff comes from outside, and the site is the one-photon site
    assert list(inspect.signature(jcpairs.GridEngine).parameters) == ["name", "kind", "params"]
    assert list(inspect.signature(jcpairs.site_hamiltonian).parameters) == ["params"]


def test_knobs_no_caller_sets_are_gone():
    # one sudden-death threshold: a constant, not a keyword
    assert "q_tol" not in inspect.signature(jcpairs.zero_intervals).parameters
    # the window takes the site, not a ratio; the propagator builds its own site matrix
    assert list(inspect.signature(jcpairs.boundary_AB).parameters) == ["kind", "alpha", "params"]
    propagator = importlib.import_module("jcpairs.dynamics").HamiltonianPropagator
    assert list(inspect.signature(propagator).parameters) == ["params"]
    # one assembly for both evolution routes, which differ only in their site factors
    assembly = importlib.import_module("jcpairs.dynamics").amplitudes
    assert list(inspect.signature(assembly).parameters) == ["kind", "alphas", "ts", "site_factors", "work"]
    # the stream reads every cell as X: only ``values`` can ask for the general route
    assert list(inspect.signature(jcpairs.GridEngine.blocks).parameters) == ["self", "alphas", "ts", "pairs"]
    # one route per call, chosen by structure: no X tolerance
    entanglement = importlib.import_module("jcpairs.entanglement")
    for reader in (jcpairs.GridEngine.values, entanglement.pair_values):
        assert "x_tol" not in inspect.signature(reader).parameters
        assert inspect.signature(reader).parameters["general"].default is False
    assert list(inspect.signature(entanglement._x_values).parameters) == ["entries", "conc", "q"]
