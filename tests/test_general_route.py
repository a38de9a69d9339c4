"""The general Wootters route against 50-digit arithmetic on random amplitude factors.

``pair_values(..., general=True)`` reads every cell from its amplitude factor M
(rho = M M^dag) as the singular values s_i of S = M^T (sigma_y x sigma_y) M.
The reference here is the textbook formula in ``mpmath`` at 50 digits: rho
and rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y) from the same float
M, and the decreasing square roots of the eigenvalues of rho rho~.
"""

import math

import mpmath
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from jcpairs.entanglement import pair_values

EPS = np.finfo(float).eps
_FLIP = [(0, 3, -1), (1, 2, 1), (2, 1, 1), (3, 0, -1)]  # (row, column, sign) of sigma_y x sigma_y


def wootters_50_digits(factor):
    """C = max{0, l1 - l2 - l3 - l4} of rho = M M^dag in 50-digit arithmetic, M a float (4, k) factor."""
    with mpmath.workdps(50):
        m = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in factor])
        rho = m * m.transpose_conj()
        flipped = mpmath.zeros(4, 4)
        for i, a, sign_a in _FLIP:
            for j, b, sign_b in _FLIP:
                flipped[i, j] = sign_a * sign_b * mpmath.conj(rho[a, b])
        eigenvalues = mpmath.eig(rho * flipped, left=False, right=False)
        roots = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in eigenvalues), reverse=True)
        return float(max(0, roots[0] - roots[1] - roots[2] - roots[3]))


@given(rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       shrink=st.lists(st.floats(0.0, 8.0), min_size=4, max_size=4))
def test_factor_route_matches_50_digit_wootters(rank, seed, shrink):
    # M = U V of rank <= 4 with k = 4 columns, the traced (a, b) of the AB
    # pair, each column scaled by 10^-shrink (down to 1e-8), then
    # normalized.  Forming S rounds each entry by about k eps ||M||^2 and the
    # SVD moves each singular value by about eps ||S||, with ||S|| <= ||M||_F^2
    # = 1, so C, a signed sum of four of them, moves by at most about
    # 4 (k + 4) eps.
    d, k = 2, 4
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    v = rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k))
    factor = (u @ v) * 10.0 ** -np.array(shrink[:k])
    factor /= np.linalg.norm(factor)
    # the AB pair keeps (A, B) and traces (a, b): M[(A, B), (a, b)] = amps[A, a, B, b]
    amps = factor.reshape(2, 2, d, d).transpose(0, 2, 1, 3).reshape(16)
    conc, q = pair_values(amps, ["AB"], general=True)
    assert math.isnan(q[0])
    assert abs(conc[0] - wootters_50_digits(factor)) <= 4 * (k + 4) * EPS

