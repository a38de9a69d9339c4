"""Zero-interval detection on concurrence curves and the analytic ESD boundary.

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

from .jcmodel import dressed_data


@dataclass(frozen=True)
class ZeroInterval:
    """Maximal window on which a concurrence curve vanishes."""

    t_lo: float
    t_hi: float
    kind: str  # "sudden_death", "touch", or "degenerate"


def _columns(sample, ts):
    """(C, Q) of ``sample(ts)`` as (len(ts), n_curves) arrays; Q may be None."""
    c, q = sample(ts)
    c = np.asarray(c, dtype=float).reshape(ts.size, -1)
    if q is not None:
        q = np.asarray(q, dtype=float).reshape(c.shape)
    return c, q


def _signed(c, q, rows, curve, on_q, tol):
    """g of column ``curve[e]`` at row ``rows[e]``, and whether that point is inside.

    g is Q on a Q edge (``on_q``) and C - tol on a C edge, positive outside
    the zero region.  A Q edge counts a point as inside unless Q > 0 (NaN is
    inside); a C edge when C <= tol.
    """
    c = c[rows, curve]
    g, inside = c - tol, c <= tol
    if q is not None:
        q = q[rows, curve]
        g = np.where(on_q, q, g)
        inside = np.where(on_q, ~(q > 0.0), inside)
    return g, inside


def _itp(sample, curve, on_q, t_out, t_in, g_out, g_in, tol, resolution):
    """Refine every edge in lockstep by ITP steps, one ``sample`` call per step.

    Edge e brackets the boundary of column ``curve[e]`` between ``t_out[e]``
    (outside the zero region) and ``t_in[e]`` (inside), where its ``_signed``
    g is ``g_out[e]`` and ``g_in[e]``.  Each step interpolates (regula
    falsi), truncates toward the midpoint and projects into the range that
    keeps bisection's pace (Oliveira & Takahashi, ACM TOMS 47(1), 2020;
    kappa1 = 0.2 / initial width, kappa2 = 2, n0 = 1), so an edge takes at
    most ceil(log2(width / resolution)) + 1 steps, one more than bisection.
    The truncation moves at least resolution / 2, so a root that rounding
    noise puts next to an endpoint ends its edge in one more step.  Where g
    is not finite or the ITP point is not strictly inside, the step takes
    the midpoint.  An edge stops once its bracket is no wider than
    ``resolution``, or its midpoint rounds onto an endpoint.
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


def zero_intervals(
    sample,
    t_min,
    t_max,
    *,
    tol=1e-12,
    min_width=None,
    samples=2049,
    q_tol=1e-9,
):
    """Maximal sub-windows of [t_min, t_max] where each sampled curve is <= tol.

    ``sample(ts)`` takes a 1-D array of times and returns ``(C, Q)``, arrays
    of shape (len(ts), n_curves) with one column per curve (a 1-D array is
    one curve); Q is the signed Q behind C, or None when there is none.
    Returns one list of ``ZeroInterval`` per column.

    The curves are sampled once on ``samples`` equally spaced times.  A zero
    run whose Q drops below ``-q_tol`` is sudden death and its edges are the
    Q sign changes; any other run is a touch with edges where C crosses
    ``tol``.  Without Q the kind falls back to interval width against
    ``min_width`` (default: 1e-6 of the window).  All edges of all curves are
    then refined together by ITP steps, one ``sample`` call per step, each
    edge to a bracket no wider than 4 ulp of the window's larger end: at most
    ceil(log2(bracket / resolution)) + 1 steps, 42 for one-spacing brackets
    at 1025 samples over [0, 2 pi].

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
    cs, qs = _columns(sample, ts)
    finite = np.isfinite(cs).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"curve returned a non-finite value at t = {ts[bad]!r}")

    # runs: (curve, lo edge, hi edge, kind); an edge is an index into ``edges``,
    # or None where the run reaches t_min or t_max; edges hold sample indices
    runs, edges = [], []
    for k in range(cs.shape[1]):
        zero = cs[:, k] <= tol
        if zero.all():
            runs.append((k, None, None, "degenerate"))
            continue
        flips = np.flatnonzero(np.diff(np.concatenate(([False], zero, [False]))))
        for i, j in zip(flips[::2].tolist(), (flips[1::2] - 1).tolist()):
            kind, on_q, in_lo, in_hi = None, False, i, j
            if qs is not None:
                negatives = np.flatnonzero(qs[i : j + 1, k] < -q_tol)
                kind = "sudden_death" if negatives.size else "touch"
                if negatives.size:
                    on_q, in_lo, in_hi = True, i + negatives[0], i + negatives[-1]
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
        refined = _itp(sample, curve, on_q, ts[out], ts[inn], g_out, g_in, tol, resolution).tolist()

    intervals = [[] for _ in range(cs.shape[1])]
    for k, lo_edge, hi_edge, kind in runs:
        lo = float(t_min) if lo_edge is None else refined[lo_edge]
        hi = float(t_max) if hi_edge is None else refined[hi_edge]
        if kind is None:
            kind = "sudden_death" if (hi - lo) > min_width else "touch"
        intervals[k].append(ZeroInterval(t_lo=lo, t_hi=hi, kind=kind))
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
