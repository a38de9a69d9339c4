"""Reference oracles that share no code with ``jcpairs``: each cell on its own, numpy and ``math`` only.

* the scalar resonance formulas of both families (Yonac, Yu & Eberly,
  J. Phys. B 40, S45 (2007)), in the operation order that
  ``closedform.closed_grid`` broadcasts, so the grid has their bits;
* the textbook Wootters concurrence from the eigenvalues of
  rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y) (PRL 80, 2245 (1998)),
  the largest entry off the X pattern, and the signed Q of an X-shaped
  density from its entries;
* the lattice Hamiltonian H_Aa (x) I + I (x) H_Bb of two Jaynes-Cummings
  sites, built entry by entry, and V exp(-i w t) V^dag psi0 from ``eigh``
  of a Hamiltonian: on the lattice, the full-lattice oracle of the numeric
  route, whose eigenvalues carry round-off of about eps ||H||;
* the pair density of one amplitude tensor by ``einsum``.
"""

import math
from collections import namedtuple

import numpy as np

SUBSYSTEMS = ("A", "a", "B", "b")
_SIGMA_YY = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)

# C and signed Q of all six pairs at one cell, each a dict keyed by pair label
Resonance = namedtuple("Resonance", "concurrence q")


def _pieces(alpha, rabi, t):
    half = 0.5 * rabi * t
    sin_h, cos_h = math.sin(half), math.cos(half)
    s2, c2 = sin_h * sin_h, cos_h * cos_h
    root = abs(sin_h * cos_h)  # = |f||h| = |sin(G t)| / 2
    u = abs(math.sin(alpha) * math.cos(alpha))
    k = math.cos(alpha) ** 2
    return u, k, s2, c2, root


def _with_mirrors(conc, q):
    """``Resonance`` of all six pairs: Ba's Q mirrors Ab's, Bb's is C_Bb / 2 (never negative)."""
    q["Ba"] = q["Ab"]
    q["Bb"] = 0.5 * conc["Bb"]
    return Resonance(conc, q)


def phi_resonance(alpha, rabi, t):
    """``Resonance`` of the (ee, gg) family.

    Q^AB = cos^2(a) cos^2(Gt/2) [tan(a) - sin^2(Gt/2)] and its (Gt -> Gt+pi)
    mirror for the cavity pair; the cross pair carries
    Q^Ab = (1/4) cos^2(a) |sin Gt| (2|tan a| - |sin Gt|); the local pairs give
    C^Aa = C^Bb = cos^2(a) |sin Gt|.  Each C is 2 max{0, Q}.
    """
    u, k, s2, c2, root = _pieces(alpha, rabi, t)
    q = {"AB": c2 * (u - k * s2), "ab": s2 * (u - k * c2), "Ab": root * (u - k * root), "Aa": k * root}
    c_aa = 2.0 * k * root
    conc = {
        "AB": 2.0 * max(0.0, q["AB"]),
        "ab": 2.0 * max(0.0, q["ab"]),
        "Aa": c_aa,
        "Bb": c_aa,
        "Ab": 2.0 * max(0.0, q["Ab"]),
        "Ba": 2.0 * max(0.0, q["Ab"]),
    }
    return _with_mirrors(conc, q)


def psi_resonance(alpha, rabi, t):
    """``Resonance`` of the (eg, ge) family.

    C^AB = |sin 2a| cos^2(Gt/2), C^ab = |sin 2a| sin^2(Gt/2) (their sum is the
    initial concurrence |sin 2a|); C^Ab = C^Ba = |sin a cos a| |sin Gt| with
    maximum 1/2; C^Aa = cos^2(a)|sin Gt| and C^Bb = sin^2(a)|sin Gt|.  No Q
    can go negative, so no pair suffers sudden death.
    """
    u, k, s2, c2, root = _pieces(alpha, rabi, t)
    q = {"AB": u * c2, "ab": u * s2, "Ab": u * root, "Aa": k * root}
    conc = {
        "AB": 2.0 * q["AB"],
        "ab": 2.0 * q["ab"],
        "Aa": 2.0 * q["Aa"],
        "Bb": 2.0 * (math.sin(alpha) ** 2) * root,
        "Ab": 2.0 * q["Ab"],
        "Ba": 2.0 * q["Ab"],
    }
    return _with_mirrors(conc, q)


def resonance_values(kind, alpha, rabi, t):
    """The family's ``Resonance`` at one cell, ``kind`` 'phi' or 'psi'."""
    return {"phi": phi_resonance, "psi": psi_resonance}[kind](alpha, rabi, t)


def wootters(rho):
    """C = max{0, l1 - l2 - l3 - l4}, l_i the decreasing square roots of the eigenvalues of rho rho~."""
    rho = np.asarray(rho, dtype=complex)
    eigenvalues = np.linalg.eigvals(rho @ _SIGMA_YY @ rho.conj() @ _SIGMA_YY)
    roots = np.sort(np.sqrt(np.clip(eigenvalues.real, 0.0, None)))[::-1]
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def off_x(rho):
    """Largest modulus among the 8 entries of a 4x4 matrix off its diagonal and anti-diagonal."""
    return max(abs(rho[i, j]) for i in range(4) for j in range(4) if j not in (i, 3 - i))


def x_state_q(rho):
    """Signed Q = max{|rho_03| - sqrt(rho_11 rho_22), |rho_12| - sqrt(rho_00 rho_33)} of an X-shaped density."""
    a, b, c, d = np.clip(np.diagonal(rho).real, 0.0, None)
    return max(abs(rho[0, 3]) - math.sqrt(b * c), abs(rho[1, 2]) - math.sqrt(a * d))


def site_hamiltonian(params, n_max):
    """(omega0/2) sigma_z + g (a^dag sigma_- + sigma_+ a) + omega a^dag a on {e, g} (x) {0..n_max}, atom-major."""
    n_ph = n_max + 1
    h = np.zeros((2 * n_ph, 2 * n_ph), dtype=complex)
    for k in range(n_ph):
        h[k, k] = 0.5 * params.omega0 + k * params.omega  # |e, k>
        h[n_ph + k, n_ph + k] = -0.5 * params.omega0 + k * params.omega  # |g, k>
        if k:  # |e, k-1> <-> |g, k>
            h[k - 1, n_ph + k] = h[n_ph + k, k - 1] = params.g * math.sqrt(k)
    return h


def total_hamiltonian(params_aa, params_bb, n_max=1):
    """The two-site lattice Hamiltonian H_Aa (x) I + I (x) H_Bb on factors (A, a, B, b)."""
    h_aa, h_bb = site_hamiltonian(params_aa, n_max), site_hamiltonian(params_bb, n_max)
    eye = np.eye(h_aa.shape[0], dtype=complex)
    return np.kron(h_aa, eye) + np.kron(eye, h_bb)


def evolve(h, psi0, t):
    """exp(-i H t) psi0 for a flat state, from the spectral decomposition of H."""
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))


def pair_density(psi, keep):
    """Densities (*cells, 4, 4) of the factors ``keep`` of amplitudes (d_A, d_a, d_B, d_b, *cells).

    Kept cavities are read at photon numbers (1, 0), so every basis lists
    the excited level first; the other two factors are traced by ``einsum``.
    """
    axes = ["ABCD"[SUBSYSTEMS.index(label)] for label in keep]
    for label, axis in zip(keep, axes):
        if label in ("a", "b"):
            psi = np.take(psi, [1, 0], axis="ABCD".index(axis))
    bra = "".join({axes[0]: "w", axes[1]: "x"}.get(c, c) for c in "ABCD")
    ket = "".join({axes[0]: "y", axes[1]: "z"}.get(c, c) for c in "ABCD")
    rho = np.einsum(f"{bra}...,{ket}...->...wxyz", psi, psi.conj())
    return rho.reshape(rho.shape[:-4] + (4, 4))
