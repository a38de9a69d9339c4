import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jcpairs import JCParams
from jcpairs.checks import random_x_state  # noqa: F401  (test modules import it from here)
from jcpairs.entanglement import concurrence_from_entries
from jcpairs.linalg import entry_matrices, pair_entries, upper_entries
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


def closed_sampler(kind, alpha, rabi, pairs=("AB",)):
    """Array sampler of the scalar resonance formulas for ``zero_intervals``: (C, Q) per pair."""
    def sample(ts):
        values = [resonance_values(kind, alpha, rabi, t) for t in ts]
        return (
            np.array([[conc[pair] for pair in pairs] for conc, _ in values]),
            np.array([[q[pair] for pair in pairs] for _, q in values]),
        )

    return sample


def pair_matrices(amps, pairs, **kwargs):
    """The ``pair_entries`` of amplitudes (d_A, d_a, d_B, d_b, *cells) as matrices (*cells, len(pairs), 4, 4)."""
    return entry_matrices(np.moveaxis(pair_entries(amps, pairs, **kwargs), 0, -1))


def concurrence(rho, x_tol=1e-10):
    """(C, Q) of a 4x4 density or a (..., 4, 4) stack, read from its 10 upper entries.

    The lower triangle is not read: the reader takes it as the conjugate
    mirror, as the reducer writes it.
    """
    return concurrence_from_entries(upper_entries(rho), x_tol=x_tol)
