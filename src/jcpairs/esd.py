"""Zero-interval detection on concurrence curves and (alpha, t) region maps.

A concurrence curve can vanish three ways: over a finite window (sudden
death), at isolated roots (touch), or identically (degenerate, e.g. product
initial states).  When the signed Q behind the curve is available the
classifier uses its sign -- a touch has Q >= 0 throughout, sudden death means
Q dips genuinely negative -- because interval width alone cannot separate a
flat (quartic) touch from a short death window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import GridEngine
from .jcmodel import dressed_data


@dataclass(frozen=True)
class ZeroInterval:
    """Maximal window on which a concurrence curve vanishes."""

    t_lo: float
    t_hi: float
    kind: str  # "sudden_death", "touch", or "degenerate"


@dataclass(frozen=True)
class EsdMap:
    """Boolean zero-region map over an (alpha, t) grid.

    ``boundary`` rows are (alpha, Gt_lo, Gt_hi) samples of the analytic
    death-window boundary; attached only for the phi family's atom-atom pair.
    """

    alpha_grid: np.ndarray
    t_grid: np.ndarray
    zero_mask: np.ndarray
    boundary: np.ndarray | None = None


@dataclass(frozen=True)
class SweepResult:
    esd_map: EsdMap
    concurrence: np.ndarray
    q: np.ndarray


def _refine_edge(curve, t_out, t_in, tol, iters=80):
    """Boundary of the region curve(t) <= tol between an outside and an inside point."""
    for _ in range(iters):
        mid = 0.5 * (t_out + t_in)
        if curve(mid) <= tol:
            t_in = mid
        else:
            t_out = mid
    return 0.5 * (t_out + t_in)


def _refine_sign_change(q_curve, t_pos, t_neg, iters=80):
    """Root of the signed Q between a positive and a negative sample."""
    for _ in range(iters):
        mid = 0.5 * (t_pos + t_neg)
        if q_curve(mid) > 0.0:
            t_pos = mid
        else:
            t_neg = mid
    return 0.5 * (t_pos + t_neg)


def pair_curves(engine, alpha, pair):
    """(concurrence(t), signed_q(t)) samplers of one pair, one grid cell per call.

    ``engine`` is a ``GridEngine``; the samplers suit ``zero_intervals``.
    """
    alphas, pairs = [alpha], (pair,)

    def curve(t):
        return float(engine.values(alphas, [t], pairs).concurrence[0, 0, 0])

    def q_curve(t):
        return float(engine.values(alphas, [t], pairs).q[0, 0, 0])

    return curve, q_curve


def zero_intervals(
    curve,
    t_min,
    t_max,
    *,
    tol=1e-12,
    min_width=None,
    samples=2049,
    q_curve=None,
    q_tol=1e-9,
):
    """Maximal sub-windows of [t_min, t_max] where curve(t) <= tol.

    Endpoints are polished by bisection; with ``q_curve`` supplied, sudden
    death is recognized by the signed Q dropping below ``-q_tol`` inside the
    window and its endpoints are polished on the Q sign change.  Without a Q
    sampler the classification falls back to interval width against
    ``min_width`` (default: 1e-6 of the window).

    Detection is sample-limited: an isolated touch whose C <= tol plateau is
    narrower than the grid spacing goes unseen unless a sample lands on it.
    """
    if not t_max > t_min:
        raise ValueError(f"need t_max > t_min, got [{t_min}, {t_max}]")
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    if min_width is None:
        min_width = 1e-6 * (t_max - t_min)
    ts = np.linspace(t_min, t_max, samples)
    cs = np.array([float(curve(t)) for t in ts])
    if not np.all(np.isfinite(cs)):
        bad = int(np.flatnonzero(~np.isfinite(cs))[0])
        raise ValueError(f"curve returned a non-finite value at t = {ts[bad]!r}")

    zero = cs <= tol
    if zero.all():
        return [ZeroInterval(t_lo=float(t_min), t_hi=float(t_max), kind="degenerate")]

    intervals = []
    i = 0
    while i < samples:
        if not zero[i]:
            i += 1
            continue
        j = i
        while j + 1 < samples and zero[j + 1]:
            j += 1

        t_lo = float(t_min) if i == 0 else _refine_edge(curve, ts[i - 1], ts[i], tol)
        t_hi = float(t_max) if j == samples - 1 else _refine_edge(curve, ts[j + 1], ts[j], tol)

        if q_curve is not None:
            run_qs = np.array([float(q_curve(t)) for t in ts[i : j + 1]])
            negatives = np.flatnonzero(run_qs < -q_tol)
            if negatives.size:
                kind = "sudden_death"
                if i > 0:
                    t_lo = _refine_sign_change(q_curve, ts[i - 1], ts[i + negatives[0]])
                if j < samples - 1:
                    t_hi = _refine_sign_change(q_curve, ts[j + 1], ts[i + negatives[-1]])
            else:
                kind = "touch"
        else:
            kind = "sudden_death" if (t_hi - t_lo) > min_width else "touch"

        intervals.append(ZeroInterval(t_lo=float(t_lo), t_hi=float(t_hi), kind=kind))
        i = j + 1
    return intervals


def esd_boundary_phi_AB(alpha, ratio=1.0):
    """Death-window endpoints (in Gt) of the phi family's atom-atom pair.

    ``ratio`` is delta/G, the manifold splitting delta = hypot(Delta, G) over
    the resonant Rabi splitting G (1 at resonance).  With
    Q_AB = |f|^2 (u - k |h|^2) and |h|^2 = sin^2(theta) sin^2(delta t/2), the
    window exists iff tan(alpha) < G^2/delta^2, with edges at
    delta t = 2 arcsin(sqrt(tan alpha) delta/G) and its mirror about
    delta t = pi; they are returned in units of Gt.  For larger alpha (up to
    pi/2) the curve only touches zero or stays positive, and None is
    returned.  Outside (0, pi/2) the caller should map back by symmetry
    first: the window depends on alpha only through |tan alpha|.
    """
    if not 0.0 < alpha < 0.5 * math.pi:
        raise ValueError(f"alpha must lie in (0, pi/2), got {alpha!r}")
    if not (math.isfinite(ratio) and ratio >= 1.0):
        raise ValueError(f"ratio delta/G must be finite and >= 1, got {ratio!r}")
    if alpha >= math.atan(1.0 / ratio**2):
        return None
    edge = 2.0 * math.asin(min(1.0, math.sqrt(math.tan(alpha)) * ratio))
    return edge / ratio, (2.0 * math.pi - edge) / ratio


def boundary_AB(kind, alpha, params):
    """The phi family's AB death window (Gt_lo, Gt_hi) at any alpha and detuning.

    Folds alpha into (0, pi/2) by |tan alpha| first; None for the psi family
    and wherever no window exists.
    """
    if kind != "phi":
        return None
    if not 0.0 < alpha < 0.5 * math.pi:
        alpha = math.atan(abs(math.tan(alpha)))
        if not 0.0 < alpha < 0.5 * math.pi:
            return None
    dressed = dressed_data(params, 1)
    return esd_boundary_phi_AB(alpha, dressed.splitting / dressed.rabi)


def _require_grid(name, grid):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


def sweep(kind, pair, alpha_grid, t_grid, params, engine="closed", *, zero_tol=1e-12):
    """Concurrence of one pair over an (alpha, t) grid by the selected engine.

    Engines: "closed" evaluates the resonance formulas (requires zero
    detuning), "analytic" the dressed-state propagator, "numeric" full matrix
    diagonalization (``GridEngine`` takes other Fock truncations).  The zero
    mask marks cells with C <= zero_tol; for (phi, AB) the analytic
    death-window boundary is attached.
    """
    alpha_grid = _require_grid("alpha_grid", alpha_grid)
    t_grid = _require_grid("t_grid", t_grid)
    values = GridEngine(engine, kind, params).values(alpha_grid, t_grid, (pair,))
    conc = values.concurrence[..., 0]

    boundary = None
    if pair == "AB":
        rows = []
        for alpha in alpha_grid.tolist():
            window = boundary_AB(kind, alpha, params)
            if window is not None:
                rows.append((alpha, *window))
        if rows:
            boundary = np.array(rows)

    esd_map = EsdMap(
        alpha_grid=alpha_grid,
        t_grid=t_grid,
        zero_mask=conc <= zero_tol,
        boundary=boundary,
    )
    return SweepResult(esd_map=esd_map, concurrence=conc, q=values.q[..., 0])
