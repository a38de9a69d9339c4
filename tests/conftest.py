import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jcpairs import JCParams, resonance_values
from jcpairs.checks import random_x_state  # noqa: F401  (test modules import it from here)

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
    """Array sampler of the resonance formulas for ``zero_intervals``: (C, Q) per pair."""
    def sample(ts):
        values = [resonance_values(kind, alpha, rabi, t) for t in ts]
        return (
            np.array([[v.concurrence[pair] for pair in pairs] for v in values]),
            np.array([[v.q_for(pair) for pair in pairs] for v in values]),
        )

    return sample
