"""The two-site lattice's initial families and their time evolution on (alpha, t) grids.

``amplitudes`` evolves a family over a whole (alpha, t) block from the site
factors of one of two independent site propagators: the dressed states in
closed form (``dressed_factors``), and exact diagonalization of the literal
one-photon site Hamiltonian, one ``eigh`` per excitation manifold the
families populate (``HamiltonianPropagator``).  The lattice propagator is
the site's Kronecker square, so every amplitude is an initial weight times
one site factor per site.  Both use the literal Hamiltonian's energy zero
point, so they agree at the amplitude level, not just in derived
quantities.  The families put at most one excitation on each site, which
the coupling conserves, so only 5 (phi) or 4 (psi) of the 16 lattice
amplitudes can be nonzero: the stack, cells last, holds just those, the
family's ``live_rows``, which the reducer (``linalg.pair_entries``) reads.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .jcmodel import site_hamiltonian
from .linalg import Workspace

FAMILY_KINDS = ("phi", "psi")

# (A, a, B, b) cells carrying cos(alpha) and sin(alpha) at t = 0
_INITIAL_CELLS = {
    "phi": ((0, 0, 0, 0), (1, 0, 1, 0)),  # |e,0,e,0>, |g,0,g,0>
    "psi": ((0, 0, 1, 0), (1, 0, 0, 0)),  # |e,0,g,0>, |g,0,e,0>
}

# The site levels (atom, photon) each initial site level reaches, and each
# step of a site in the order of the site factor rows:
# |e,0> -> f|e,0> + h|g,1>, |g,0> -> ground|g,0>
_SITE_REACH = {(0, 0): ((0, 0), (1, 1)), (1, 0): ((1, 0),)}
_SITE_STEPS = tuple((j, i) for j, reached in _SITE_REACH.items() for i in reached)


@functools.lru_cache(maxsize=None)
def _stack_rows(kind):
    """Each amplitude the family can fill, one per stack row: (flat row, weight, A step, B step).

    One initial cell reaches it on both sites; every other amplitude stays
    exactly zero.  The flat rows 8 A + 4 a + 2 B + b ascend; the weight is
    the slot of cos alpha or sin alpha and a step its slot in ``_SITE_STEPS``.
    """
    return tuple(sorted((8 * a[0] + 4 * a[1] + 2 * b[0] + b[1], weight,
                         _SITE_STEPS.index((cell[:2], a)), _SITE_STEPS.index((cell[2:], b)))
                        for weight, cell in enumerate(_INITIAL_CELLS[kind])
                        for a in _SITE_REACH[cell[:2]] for b in _SITE_REACH[cell[2:]]))


def live_rows(kind):
    """Flat indices, ascending, of the (2, 2, 2, 2) lattice rows the family can fill: the rows of its stack."""
    return tuple(row for row, *_ in _stack_rows(kind))


@functools.lru_cache(maxsize=256)
def _site_rates(params):
    """The three phase rates and the three dressed weights of ``dressed_factors``, once per site."""
    half = 0.5 * math.atan2(params.rabi(1), params.detuning)  # half the n = 1 mixing angle
    sin_half, cos_half = math.sin(half), math.cos(half)
    center, split = 0.5 * params.omega, 0.5 * params.splitting
    rates = (-1j * (center + split), -1j * (center - split), 0.5j * params.omega0)
    return rates, (sin_half**2, cos_half**2, sin_half * cos_half)


def dressed_factors(params, t, out, scratch):
    """Amplitude pair (f, h) for |e,0> -> f|e,0> + h|g,1>, plus the |g,0> phase, into the rows of ``out``.

    Uses the literal site spectrum: n=1 manifold energies omega/2 +- delta/2
    (whose eigenvectors pair the upper level with (sin, cos) of the half
    mixing angle) and ground energy -omega0/2, at every time of the 1-D
    array ``t``; ``out`` is (3, len(t)) and ``scratch`` (4, len(t)).
    """
    (up, down, ground), (sin2, cos2, sin_cos) = _site_rates(params)
    phases, terms = scratch[:2], scratch[2:]
    np.multiply(up, t, out=phases[0])
    np.multiply(down, t, out=phases[1])
    np.multiply(ground, t, out=out[2])
    np.exp(phases, out=phases)
    np.exp(out[2], out=out[2])
    np.multiply(sin2, phases[0], out=terms[0])
    np.multiply(cos2, phases[1], out=terms[1])
    np.add(terms[0], terms[1], out=out[0])
    np.subtract(phases[0], phases[1], out=terms[0])
    np.multiply(sin_cos, terms[0], out=out[1])


def amplitudes(kind, alphas, ts, site_factors, *, work=None):
    """The family's live rows at every (alpha, t) by one site propagator, shape (rows, n_alpha, n_t).

    Row r is the lattice amplitude ``live_rows(kind)[r]``.
    ``site_factors(t, out, scratch)`` (``dressed_factors`` with its site
    bound, or ``HamiltonianPropagator.site_factors``) writes the factors f,
    h and ground (``_SITE_STEPS``) at every time of the 1-D ``t`` into the
    rows of ``out`` (3, len(t)), with ``scratch`` (4, len(t)).  The factors
    cos alpha, sin alpha, f, h and ground are flat rows of the n_alpha n_t
    cells (the site factors once per time, then copied to every alpha), and
    every amplitude is (weight x) y, its initial cell's weight times one
    factor of each site, each product written to a row that is not one of
    its operands: each cell takes the same numpy loop whatever the block's
    shape.  (A one-cell block broadcast from an (n_alpha, 1) and an (n_t,)
    operand, or a one-cell product written over its own operand, takes a
    loop that rounds complex products differently.)  The stack and the
    factors are buffers of ``work`` (a ``Workspace``; a new one when None).
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    n_a, n_t = alphas.size, ts.size
    if work is None:
        work = Workspace()
    # rows: cos alpha, sin alpha, f, h, ground phase, and the partial product
    rows = work.get("evolve.factors", (6, n_a * n_t))
    by_alpha = rows.reshape(6, n_a, n_t)
    by_alpha[0] = np.cos(alphas)[:, None]
    by_alpha[1] = np.sin(alphas)[:, None]
    site_factors(ts, by_alpha[2:5, 0], work.get("evolve.scratch", (4, n_t)))
    if n_a > 1:
        by_alpha[2:5, 1:] = by_alpha[2:5, :1]
    weights, steps, partial = rows[:2], rows[2:5], rows[5]
    plan = _stack_rows(kind)
    stack = work.get("amplitudes", (len(plan), n_a, n_t))
    done = None
    for out, (_, weight, a, b) in zip(stack.reshape(len(plan), -1), plan):
        if (weight, a) != done:  # the A-site product, once for the rows that share it
            done = weight, a
            np.multiply(weights[weight], steps[a], out=partial)
        np.multiply(partial, steps[b], out=out)
    return stack


class HamiltonianPropagator:
    """Exact propagator exp(-i H_site t) of the site ``params``, from one ``eigh`` per populated manifold.

    The coupling conserves each site's excitation number, so the one-photon
    ``site_hamiltonian(params)`` is block-diagonal by manifold, and the
    initial cells populate two blocks: |g,0> alone and {|e,0>, |g,1>}.
    A site that couples a populated block to any other level (an entry
    that is not exactly 0), which the route would not see, is refused, and
    so is a failed ``eigh``, naming the site.  Each block is diagonalized
    on its own, and the spectrum (w, V) is assembled on the levels (e,0),
    (e,1), (g,0), (g,1) with exact zeros outside the blocks; (e,1), in no
    populated manifold, has a zero row and column.  The site factors are
    <i|U(t)|j> = sum_k V[i,k] conj(V[j,k]) exp(-i w_k t) over the block of
    j, for each step j -> i of ``_SITE_STEPS``; the lattice propagator is
    their Kronecker square.
    """

    def __init__(self, params):
        h_site = site_hamiltonian(params)
        self._w, self._v = np.zeros(4), np.zeros((4, 4), dtype=complex)
        # one eigh per manifold of an initial site level; level (atom, photon) is row 2 atom + photon
        for manifold in sorted({1 - atom + photon for atom, photon in _SITE_REACH}):
            block = [2 * atom + photon for atom in (0, 1) for photon in (0, 1) if 1 - atom + photon == manifold]
            others = [level for level in range(4) if level not in block]
            if h_site[np.ix_(block, others)].any() or h_site[np.ix_(others, block)].any():
                raise ValueError(f"the numeric route cannot evolve the site Hamiltonian at {params!r}: it "
                                 f"couples the populated levels {block} (2 atom + photon) to another level")
            try:
                self._w[block], self._v[np.ix_(block, block)] = np.linalg.eigh(h_site[np.ix_(block, block)])
            except np.linalg.LinAlgError as exc:  # eigh did not converge
                raise ValueError(f"the numeric route cannot diagonalize the site Hamiltonian at "
                                 f"{params!r}: {exc}") from None
        eigen = np.flatnonzero(self._v.any(axis=0))  # the populated eigenstates
        self._rates = -1j * self._w[eigen]
        # (V[i,k] conj(V[j,k]), slot of k in eigen) over the block of j, for each factor row j -> i
        v = {(atom, photon): self._v[2 * atom + photon, eigen] for atom in (0, 1) for photon in (0, 1)}
        self._terms = [[(v[i][slot] * v[j][slot].conjugate(), slot) for slot in np.flatnonzero(v[j])]
                       for j, i in _SITE_STEPS]

    def site_factors(self, t, out, scratch):
        """The site factors f, h and ground at every time of ``t`` into ``out``, as ``amplitudes`` asks."""
        phases, term = scratch[:len(self._rates)], scratch[-1]
        for rate, phase in zip(self._rates, phases):
            np.multiply(rate, t, out=phase)
        np.exp(phases, out=phases)
        for row, terms in zip(out, self._terms):
            for m, (weight, slot) in enumerate(terms):
                np.multiply(weight, phases[slot], out=term if m else row)
                if m:
                    np.add(row, term, out=row)
