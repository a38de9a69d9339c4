import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import reference
from jcpairs import GridEngine, JCParams
from jcpairs.checks import random_x_states
from jcpairs.dynamics import amplitudes, live_rows
from jcpairs.entanglement import _x_values, pair_values
from jcpairs.linalg import ENTRY_COLS, ENTRY_ROWS, pair_entries
from reference import resonance_values

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written.
settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def res_params():
    """Resonant site: omega0 = omega = 5, g = 1, so G = 2."""
    return JCParams(omega0=5.0, omega=5.0, g=1.0)


@pytest.fixture
def det_params():
    """Detuned site: Delta = 1, G = 1, splitting sqrt(2)."""
    return JCParams(omega0=5.0, omega=6.0, g=0.5)


def excitation_numbers(n_max):
    """Total excitation of every lattice basis state, in flat (A, a, B, b) index order.

    Excited atoms count one (index 0 = e), cavities their photon number.
    """
    i_a, k_a, i_b, k_b = np.indices((2, n_max + 1, 2, n_max + 1))
    return ((1 - i_a) + k_a + (1 - i_b) + k_b).reshape(-1)


def route_stack(route, kind, alphas, ts, params):
    """The live-row stack (rows, n_alpha, n_t) that ``GridEngine(route, kind, params)`` evolves, in a new workspace."""
    return amplitudes(kind, alphas, ts, GridEngine(route, kind, params)._site_factors)


def lattice_states(kind, stack):
    """The whole lattice states (2, 2, 2, 2, *cells) of the family's live-row stack, every other row zero."""
    full = np.zeros((16,) + stack.shape[1:], dtype=complex)
    full[list(live_rows(kind))] = stack
    return full.reshape((2, 2, 2, 2) + stack.shape[1:])


def closed_sampler(kind, alpha, rabi, pairs=("AB",)):
    """Array sampler of the scalar resonance formulas for ``zero_intervals``: (C, Q) per pair."""
    def sample(ts):
        values = [resonance_values(kind, alpha, rabi, t) for t in ts]
        return (
            np.array([[conc[pair] for pair in pairs] for conc, _ in values]),
            np.array([[q[pair] for pair in pairs] for _, q in values]),
        )

    return sample


def upper_entries(rho):
    """The 6 X entries (6, ...) of a 4x4 matrix or stack (..., 4, 4), in ``ENTRY_ROWS``/``ENTRY_COLS`` order."""
    return np.moveaxis(np.asarray(rho)[..., ENTRY_ROWS, ENTRY_COLS], -1, 0)


def entry_matrices(entries):
    """Hermitian X matrices (..., 4, 4) from their 6 X entries (6, ...), the lower triangle mirrored, 0 off X."""
    rho = np.zeros(entries.shape[1:] + (4, 4), dtype=complex)
    rho[..., ENTRY_ROWS, ENTRY_COLS] = np.moveaxis(entries, 0, -1)
    rho[..., ENTRY_COLS[4:], ENTRY_ROWS[4:]] = np.moveaxis(entries[4:], 0, -1).conj()
    return rho


def pair_matrices(amps, pairs, **kwargs):
    """The ``pair_entries`` of an amplitude stack (rows, *cells) as matrices (*cells, len(pairs), 4, 4)."""
    return entry_matrices(np.moveaxis(pair_entries(amps, pairs, **kwargs), 0, -1))


def x_densities(rng, count):
    """The AB densities (count, 4, 4) of ``random_x_states``: X-shaped, off-X entries exactly zero."""
    stack, rows = random_x_states(rng, count)
    full = np.zeros((16, count), dtype=complex)
    full[list(rows)] = stack
    return reference.pair_density(full.reshape(2, 2, 2, 2, count), "AB")


def factor_amplitudes(rho):
    """A full amplitude stack (16, *cells) whose AB reduction is the density or stack ``rho`` (*cells, 4, 4).

    The factor is V sqrt(w) from ``eigh``, its rows the kept (A, B) and its
    columns the traced (a, b).
    """
    w, v = np.linalg.eigh(rho)
    factor = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    n = factor.ndim - 2
    amps = np.moveaxis(factor.reshape(factor.shape[:-2] + (2, 2, 2, 2)), (n, n + 2, n + 1, n + 3), (0, 1, 2, 3))
    return amps.reshape((16,) + amps.shape[4:])


def concurrence(rho):
    """(C, Q = NaN) of a PSD 4x4 density or a (..., 4, 4) stack by the general route of ``pair_values``.

    The density is read through its factor's full 16-row stack, which the X reader refuses.
    """
    conc, q = pair_values(factor_amplitudes(rho), ["AB"], general=True)
    return conc[..., 0], q[..., 0]


def entry_values(rho):
    """(C, Q) of an X-shaped 4x4 matrix or (..., 4, 4) stack, checked and read by the X reader from its X entries.

    The lower triangle is not read: the reader takes it as the conjugate
    mirror, as the reducer writes it.
    """
    entries = upper_entries(rho)
    conc, q = np.empty(entries.shape[1:]), np.empty(entries.shape[1:])
    _x_values(entries, conc, q)
    return conc, q
