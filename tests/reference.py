"""Reference oracles that share no code with ``jcpairs``: each cell on its own, numpy and ``math`` only.

* the scalar resonance formulas of both families (Yonac, Yu & Eberly,
  J. Phys. B 40, S45 (2007)), in the operation order that
  ``closedform.ClosedGrid`` broadcasts, so the grid has their bits;
* the textbook Wootters concurrence from the eigenvalues of
  rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y) (PRL 80, 2245 (1998)),
  the largest entry off the X pattern, and the signed Q of an X-shaped
  density from its entries;
* the initial tensors of both families, cos(alpha) |e,0,e,0> + sin(alpha)
  |g,0,g,0> (phi) and cos(alpha) |e,0,g,0> + sin(alpha) |g,0,e,0> (psi);
* the lattice Hamiltonian H_Aa (x) I + I (x) H_Bb of two Jaynes-Cummings
  sites, built entry by entry, and V exp(-i w t) V^dag psi0 from ``eigh``
  of a Hamiltonian: on the lattice, the full-lattice oracle of the numeric
  route, whose eigenvalues carry round-off of about eps ||H||;
* the pair density of one amplitude tensor by ``einsum``;
* the X reader's trace and PSD rejection of one density, from its entries;
* ``zero_intervals`` as a per-curve run scan and an ITP loop that gathers
  and scatters the pending edges' state by index every step: the sampled
  times and edges that ``jcpairs.esd`` must reproduce bit for bit.
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


def initial_amplitudes(kind, alphas):
    """Initial tensors (2, 2, 2, 2, *alphas.shape) of the family, one per alpha."""
    alphas = np.asarray(alphas, dtype=float)
    psi = np.zeros((2, 2, 2, 2) + alphas.shape, dtype=complex)
    first, second = {"phi": ((0, 0, 0, 0), (1, 0, 1, 0)), "psi": ((0, 0, 1, 0), (1, 0, 0, 0))}[kind]
    psi[first] = np.cos(alphas)
    psi[second] = np.sin(alphas)
    return psi


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


def _columns(sample, ts):
    """(C, Q) of ``sample(ts)`` as (len(ts), n_curves) arrays."""
    c, q = sample(ts)
    c = np.asarray(c, dtype=float).reshape(ts.size, -1)
    return c, np.asarray(q, dtype=float).reshape(c.shape)


def _signed(c, q, rows, curve, on_q, tol):
    """g of column ``curve[e]`` at row ``rows[e]`` (Q on a Q edge, C - tol otherwise), and whether it is inside."""
    c, q = c[rows, curve], q[rows, curve]
    return np.where(on_q, q, c - tol), np.where(on_q, ~(q > 0.0), c <= tol)


def itp(sample, curve, on_q, t_out, t_in, g_out, g_in, tol, resolution):
    """Lockstep ITP refinement of zero-region edges, one ``sample`` call per step, written edge by index.

    Every step gathers the pending edges' state from whole-length arrays by
    fancy indexing and scatters it back.  Interpolate (regula falsi),
    truncate toward the midpoint, project into bisection's range (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020; kappa1 = 0.2 / initial width,
    kappa2 = 2, n0 = 1); the midpoint where g is not finite or the point is
    not strictly inside.  An edge stops once its bracket is no wider than
    ``resolution`` or its midpoint rounds onto an endpoint.  The oracle of
    the sampled times and edges of ``jcpairs.esd``.
    """
    t_out, t_in = np.array(t_out, dtype=float), np.array(t_in, dtype=float)
    g_out, g_in = np.array(g_out, dtype=float), np.array(g_in, dtype=float)
    width0 = np.abs(t_in - t_out)
    eps = 0.5 * resolution
    n_max = np.ceil(np.log2(np.maximum(width0 / resolution, 1.0))) + 1.0
    pending = np.arange(t_out.size)
    step = 0
    while True:
        out, inn = t_out[pending], t_in[pending]
        mid = 0.5 * (out + inn)
        width = np.abs(inn - out)
        moving = (width > resolution) & (mid != out) & (mid != inn)
        pending = pending[moving]
        if not pending.size:
            break
        out, inn, mid, width = out[moving], inn[moving], mid[moving], width[moving]
        with np.errstate(all="ignore"):
            ga, gb = g_out[pending], g_in[pending]
            x = out + (inn - out) * (ga / (ga - gb))  # interpolate: regula falsi
            sigma = np.sign(mid - x)
            delta = np.maximum(0.2 * width**2 / width0[pending], eps)
            x = np.where(delta <= np.abs(mid - x), x + sigma * delta, mid)  # truncate
            r = np.maximum(eps * 2.0 ** (n_max[pending] - step) - 0.5 * width, 0.0)
            x = np.where(np.abs(x - mid) <= r, x, mid - sigma * r)  # project
            strictly_inside = (np.minimum(out, inn) < x) & (x < np.maximum(out, inn))
        x = np.where(strictly_inside, x, mid)  # NaN compares False: midpoint
        c, q = _columns(sample, x)
        g, inside = _signed(c, q, np.arange(pending.size), curve[pending], on_q[pending], tol)
        t_in[pending[inside]], g_in[pending[inside]] = x[inside], g[inside]
        t_out[pending[~inside]], g_out[pending[~inside]] = x[~inside], g[~inside]
        step += 1
    return 0.5 * (t_out + t_in)


def zero_intervals(sample, t_min, t_max, *, tol=1e-12, samples=2049, q_tol=1e-9):
    """(t_lo, t_hi, kind) zero runs per sampled curve: one sampling call, a per-curve run scan, then ``itp``.

    A run of samples with C <= tol is sudden death when Q drops below
    -q_tol in it (edges on Q's sign), a touch otherwise (edges on
    C <= tol), and degenerate when it covers every sample.
    """
    ts = np.linspace(t_min, t_max, samples)
    cs, qs = _columns(sample, ts)
    runs, edges = [], []
    for k in range(cs.shape[1]):
        zero = cs[:, k] <= tol
        if zero.all():
            runs.append((k, None, None, "degenerate"))
            continue
        flips = np.flatnonzero(np.diff(np.concatenate(([False], zero, [False]))))
        for i, j in zip(flips[::2].tolist(), (flips[1::2] - 1).tolist()):
            kind, on_q, in_lo, in_hi = "touch", False, i, j
            negatives = np.flatnonzero(qs[i : j + 1, k] < -q_tol)
            if negatives.size:
                kind, on_q, in_lo, in_hi = "sudden_death", True, i + negatives[0], i + negatives[-1]
            lo_edge = hi_edge = None
            if i > 0:
                lo_edge = len(edges)
                edges.append((k, on_q, i - 1, in_lo))
            if j < samples - 1:
                hi_edge = len(edges)
                edges.append((k, on_q, j + 1, in_hi))
            runs.append((k, lo_edge, hi_edge, kind))
    refined = []
    if edges:
        curve, on_q, out, inn = (np.array(column) for column in zip(*edges))
        g_out, _ = _signed(cs, qs, out, curve, on_q, tol)
        g_in, _ = _signed(cs, qs, inn, curve, on_q, tol)
        resolution = 4.0 * float(np.spacing(max(abs(t_min), abs(t_max))))
        refined = itp(sample, curve, on_q, ts[out], ts[inn], g_out, g_in, tol, resolution).tolist()
    intervals = [[] for _ in range(cs.shape[1])]
    for k, lo_edge, hi_edge, kind in runs:
        lo = float(t_min) if lo_edge is None else refined[lo_edge]
        hi = float(t_max) if hi_edge is None else refined[hi_edge]
        intervals[k].append((lo, hi, kind))
    return intervals


def x_rejection(entries):
    """The error of the X reader's checks of one X density given as its 6 X entries, None when it passes.

    The trace check (|a + b + c + d - 1| > 1e-8), then the PSD check from
    the lower eigenvalue of each 2x2 block,
    0.5 (a + d) - sqrt((0.5 (a - d))^2 + |z|^2) and its inner twin, below
    -1e-8: the reader's tests, in its operation order, one cell at a time.
    """
    entries = np.asarray(entries, dtype=complex)
    a, b, c, d = entries[:4].real
    trace_err = abs(a + b + c + d - 1.0)
    if trace_err > 1e-8:
        return f"invalid density matrix: trace deviates from 1 by {trace_err:.3e}"
    z, w = np.abs(entries[4]), np.abs(entries[5])
    corner = 0.5 * (a + d) - np.sqrt(np.square(0.5 * (a - d)) + np.square(z))
    inner = 0.5 * (b + c) - np.sqrt(np.square(0.5 * (b - c)) + np.square(w))
    lowest = np.minimum(corner, inner)
    if lowest < -1e-8:
        return f"invalid density matrix: not PSD, lowest eigenvalue {lowest:.3e}"
    return None
