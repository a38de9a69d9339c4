"""Zero-interval detection on concurrence curves and the analytic ESD boundary.

A concurrence curve can vanish three ways: over a finite window (sudden
death), at isolated roots (touch), or identically (degenerate, e.g. product
initial states).  The classifier takes the kind from the sign of the signed
Q behind the curve, which every sampler returns with C -- a touch has
Q >= 0 throughout, sudden death means Q dips genuinely negative -- because
interval width alone cannot separate a flat (quartic) touch from a short
death window.

``scan_report`` is ``jcpairs esd``: one engine's scan of all six pairs at
one alpha, as the report dict, which ``report_json`` writes with the bytes
of ``json.dumps(report, indent=2)``.  A scan is one sampling call and then
one call per ITP step, each on one alpha and the few times of the pending
edges, so its cost is the fixed cost of a small engine call (60-70 us
for 1 x 8 cells on the analytic route in a tight loop, 2-core Xeon) plus the step's own
array operations: each step does its work in a fixed set of whole-array
operations on the packed state of the pending edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FAMILY_KINDS
from .entanglement import PAIR_LABELS


# How far below zero Q must dip for a zero run to count as sudden death.
_Q_TOL = 1e-9


@dataclass(frozen=True)
class ZeroInterval:
    """Maximal window on which a concurrence curve vanishes."""

    t_lo: float
    t_hi: float
    kind: str  # "sudden_death", "touch", or "degenerate"


def _columns(sample, ts):
    """(C, Q) of ``sample(ts)`` as (len(ts), n_curves) arrays."""
    c, q = sample(ts)
    c = np.asarray(c, dtype=float).reshape(ts.size, -1)
    return c, np.asarray(q, dtype=float).reshape(c.shape)


def _signed(c, q, cells, on_q, tol):
    """g of edge e at the flat index ``cells[e]`` of ``c`` and ``q``, and whether that point is inside.

    g is Q on a Q edge (``on_q``) and C - tol on a C edge, positive outside
    the zero region.  A Q edge counts a point as inside unless Q > 0 (NaN is
    inside); a C edge when C <= tol.
    """
    c, q = c.take(cells), q.take(cells)
    return np.where(on_q, q, c - tol), np.where(on_q, ~(q > 0.0), c <= tol)


def _itp(sample, columns, curve, on_q, t_out, t_in, g_out, g_in, tol, resolution):
    """Refine every edge in lockstep by ITP steps, one ``sample`` call per step.

    Edge e brackets the boundary of column ``curve[e]`` (of the ``columns``
    that ``sample`` returns) between ``t_out[e]`` (outside the zero region)
    and ``t_in[e]`` (inside), where its ``_signed`` g is ``g_out[e]`` and
    ``g_in[e]``.  Each step interpolates (regula falsi), truncates toward
    the midpoint and projects into the range that keeps bisection's pace
    (Oliveira & Takahashi, ACM TOMS 47(1), 2020; kappa1 = 0.2 / initial
    width, kappa2 = 2, n0 = 1), so an edge takes at most
    ceil(log2(width / resolution)) + 1 steps, one more than bisection.
    The truncation moves at least resolution / 2, so a root that rounding
    noise puts next to an endpoint ends its edge in one more step.  Where g
    is not finite or the ITP point is not strictly inside, the step takes
    the midpoint.  An edge stops once its bracket is no wider than
    ``resolution``, or its midpoint rounds onto an endpoint.

    The state of the pending edges is kept packed, one array per quantity,
    and is compacted only on a step where some edge stops; a step is then
    a fixed set of whole-array operations on the pending edges, with the
    operation order (and so the bits of every sampled time) of one edge
    refined alone.
    """
    t_out, t_in = np.array(t_out, dtype=float), np.array(t_in, dtype=float)
    g_out, g_in = np.array(g_out, dtype=float), np.array(g_in, dtype=float)
    width0 = np.abs(t_in - t_out)
    eps = 0.5 * resolution
    # 2^(n_1/2 - step) of the projection, halved after every step (exactly: it stays normal)
    reach = 2.0 ** (np.ceil(np.log2(np.maximum(width0 / resolution, 1.0))) + 1.0)
    edges = np.arange(t_out.size)  # the input index of each pending edge
    cells = edges * columns + curve  # the flat index of each pending edge's (row, curve) in a sample
    refined = np.empty(t_out.size)
    while edges.size:
        span = t_in - t_out
        mid = 0.5 * (t_out + t_in)
        width = np.abs(span)
        moving = (width > resolution) & (mid != t_out) & (mid != t_in)
        if not moving.all():
            refined[edges[~moving]] = mid[~moving]
            edges = edges[moving]
            if not edges.size:
                break
            t_out, t_in, g_out, g_in, width0, reach, curve, on_q, span, mid, width = (
                a[moving] for a in (t_out, t_in, g_out, g_in, width0, reach, curve, on_q, span, mid, width))
            cells = np.arange(edges.size) * columns + curve
        with np.errstate(all="ignore"):
            x = t_out + span * (g_out / (g_out - g_in))  # interpolate: regula falsi
            shift = mid - x
            sigma = np.sign(shift)
            delta = np.maximum(0.2 * width**2 / width0, eps)
            x = np.where(delta <= np.abs(shift), x + sigma * delta, mid)  # truncate
            r = np.maximum(eps * reach - 0.5 * width, 0.0)
            x = np.where(np.abs(x - mid) <= r, x, mid - sigma * r)  # project
            strictly_inside = (np.minimum(t_out, t_in) < x) & (x < np.maximum(t_out, t_in))
        x = np.where(strictly_inside, x, mid)  # NaN compares False: midpoint
        g, inside = _signed(*_columns(sample, x), cells, on_q, tol)
        t_in, g_in = np.where(inside, x, t_in), np.where(inside, g, g_in)
        t_out, g_out = np.where(inside, t_out, x), np.where(inside, g_out, g)
        reach *= 0.5
    return refined


def zero_intervals(sample, t_min, t_max, *, tol=1e-12, samples=2049):
    """Maximal sub-windows of [t_min, t_max] where each sampled curve is <= tol.

    ``sample(ts)`` takes a 1-D array of times and returns ``(C, Q)``, arrays
    of shape (len(ts), n_curves) with one column per curve (a 1-D array is
    one curve); Q is the signed Q behind C, NaN where there is none (a cell
    whose reduction is not X-shaped).  Returns one list of ``ZeroInterval``
    per column.

    The curves are sampled once on ``samples`` equally spaced times.  A zero
    run whose Q drops below ``-_Q_TOL`` is sudden death and its edges are the
    Q sign changes; any other run is a touch with edges where C crosses
    ``tol``.  All edges of all curves are then refined together by ITP
    steps, one ``sample`` call per step, each edge to a bracket no wider than
    4 ulp of the window's larger end: at most ceil(log2(bracket /
    resolution)) + 1 steps, 42 for one-spacing brackets at 1025 samples over
    [0, 2 pi].

    Detection is sample-limited: an isolated touch whose C <= tol plateau is
    narrower than the grid spacing goes unseen unless a sample lands on it.
    """
    if not t_max > t_min:
        raise ValueError(f"need t_max > t_min, got [{t_min}, {t_max}]")
    if samples < 3:
        raise ValueError(f"need at least 3 samples, got {samples}")
    ts = np.linspace(t_min, t_max, samples)
    cs, qs = _columns(sample, ts)
    finite = np.isfinite(cs).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"curve returned a non-finite value at t = {float(ts[bad])!r}")

    # every zero run of every curve, curve by curve: it starts where C <= tol
    # turns on and ends just before it turns off
    zero = np.zeros((cs.shape[1], samples + 2), dtype=bool)
    zero[:, 1:-1] = (cs <= tol).T
    run_curve, flips = np.nonzero(zero[:, 1:] != zero[:, :-1])
    run_curve, lo, hi = run_curve[::2], flips[::2], flips[1::2] - 1
    # the first negative Q at or after each sample and the last at or before it
    negative = (qs < -_Q_TOL).T
    index = np.arange(samples)
    first_negative = np.minimum.accumulate(np.where(negative, index, samples)[:, ::-1], axis=1)[:, ::-1]
    last_negative = np.maximum.accumulate(np.where(negative, index, -1), axis=1)
    first_negative, last_negative = first_negative[run_curve, lo], last_negative[run_curve, hi]

    # runs: (curve, lo edge, hi edge, kind); an edge is an index into ``edges``,
    # or None where the run reaches t_min or t_max; edges hold sample indices
    runs, edges = [], []
    for k, i, j, first, last in zip(run_curve.tolist(), lo.tolist(), hi.tolist(),
                                    first_negative.tolist(), last_negative.tolist()):
        if i == 0 and j == samples - 1:
            runs.append((k, None, None, "degenerate"))
            continue
        kind, on_q, in_lo, in_hi = "touch", False, i, j
        if first <= j:
            kind, on_q, in_lo, in_hi = "sudden_death", True, first, last
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
        g_out, _ = _signed(cs, qs, out * cs.shape[1] + curve, on_q, tol)
        g_in, _ = _signed(cs, qs, inn * cs.shape[1] + curve, on_q, tol)
        resolution = 4.0 * float(np.spacing(max(abs(t_min), abs(t_max))))
        refined = _itp(sample, cs.shape[1], curve, on_q, ts[out], ts[inn], g_out, g_in, tol,
                       resolution).tolist()

    intervals = [[] for _ in range(cs.shape[1])]
    for k, lo_edge, hi_edge, kind in runs:
        lo = float(t_min) if lo_edge is None else refined[lo_edge]
        hi = float(t_max) if hi_edge is None else refined[hi_edge]
        intervals[k].append(ZeroInterval(t_lo=lo, t_hi=hi, kind=kind))
    return intervals


def boundary_AB(kind, alpha, params):
    """The phi family's AB death window (Gt_lo, Gt_hi) at the site ``params``; None where there is none.

    With Q_AB = |f|^2 (u - k |h|^2) and |h|^2 = (G/delta)^2 sin^2(delta t/2),
    the window depends on alpha only through |tan alpha|: it exists iff
    0 < |tan alpha| < (G/delta)^2, with edges at delta t =
    2 arcsin(sqrt|tan alpha| delta/G) and their mirror about delta t = pi.
    The psi family has none.  Refuses a non-finite alpha and an unknown ``kind``.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"kind must be one of {FAMILY_KINDS}, got {kind!r}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if kind != "phi":
        return None
    if not 0.0 < alpha < 0.5 * math.pi:
        alpha = math.atan(abs(math.tan(alpha)))
    coupled = params.rabi(1) / params.splitting  # G/delta <= 1, so its square cannot overflow
    if not 0.0 < alpha < math.atan(coupled * coupled):
        return None
    ratio = params.splitting / params.rabi(1)  # finite, as (G/delta)^2 > 0
    sin_half = math.sqrt(math.tan(alpha)) * ratio  # sin(delta t / 2) at the first edge
    if not sin_half < 1.0:  # alpha within rounding of the critical angle: the window has no width
        return None
    edge = 2.0 * math.asin(sin_half)
    return edge / ratio, (2.0 * math.pi - edge) / ratio


def scan_report(engine, alpha, t_max, *, zero_tol=1e-12, samples=2049):
    """The ``jcpairs esd`` report of ``engine`` (a ``GridEngine``) at one ``alpha``, as a dict.

    Every pair's zero intervals over [0, t_max] (``zero_intervals`` on
    ``samples`` times, then one engine call per ITP step), with their ends
    in t and in Gt, and the phi family's analytic AB window
    (``boundary_AB``) in Gt, None where there is none.  The keys are in
    the order of the JSON report (``report_json``).
    """
    params = engine.params
    rabi = params.rabi(1)

    def sample(ts):
        values = engine.values([alpha], ts)
        return values.concurrence[0], values.q[0]

    per_pair = zero_intervals(sample, 0.0, t_max, tol=zero_tol, samples=samples)
    window = boundary_AB(engine.kind, alpha, params)
    return {
        "family": engine.kind,
        "alpha": alpha,
        "omega0": params.omega0,
        "omega": params.omega,
        "g": params.g,
        "rabi": rabi,
        "t_max": t_max,
        "zero_tol": zero_tol,
        "pairs": {
            pair: [{"t_lo": iv.t_lo, "t_hi": iv.t_hi, "gt_lo": rabi * iv.t_lo, "gt_hi": rabi * iv.t_hi,
                    "kind": iv.kind} for iv in intervals]
            for pair, intervals in zip(PAIR_LABELS, per_pair)
        },
        "boundary_AB": None if window is None else {"gt_lo": window[0], "gt_hi": window[1]},
    }


def _json(value):
    """``json.dumps`` of one report value; a finite float is its repr."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


_HEAD_KEYS = ("family", "alpha", "omega0", "omega", "g", "rabi", "t_max", "zero_tol")
_INTERVAL_KEYS = ("t_lo", "t_hi", "gt_lo", "gt_hi", "kind")
# one interval object: a str.format template of its values' texts in _INTERVAL_KEYS order
_INTERVAL = "      {{\n" + ",\n".join(f'        "{key}": {{}}' for key in _INTERVAL_KEYS) + "\n      }}"


def report_json(report):
    """The text of ``json.dumps(report, indent=2) + "\\n"`` for a ``scan_report`` dict.

    The report's shape is fixed: the values of ``_HEAD_KEYS``, then
    ``pairs`` (each label's list of interval objects with the keys of
    ``_INTERVAL_KEYS``), then ``boundary_AB`` (null or an object with
    ``gt_lo`` and ``gt_hi``).  So it is written from templates, without
    the pure-Python indenting encoder; each value's text is json's (the
    repr of a finite float; NaN, Infinity and -Infinity otherwise).
    """
    head = "".join(f'  "{key}": {_json(report[key])},\n' for key in _HEAD_KEYS)
    blocks = []
    for label, intervals in report["pairs"].items():
        rows = [_INTERVAL.format(*[_json(iv[key]) for key in _INTERVAL_KEYS]) for iv in intervals]
        blocks.append(f'    "{label}": ' + ("[\n" + ",\n".join(rows) + "\n    ]" if rows else "[]"))
    window = report["boundary_AB"]
    boundary = "null"
    if window is not None:
        boundary = f'{{\n    "gt_lo": {_json(window["gt_lo"])},\n    "gt_hi": {_json(window["gt_hi"])}\n  }}'
    return f'{{\n{head}  "pairs": {{\n' + ",\n".join(blocks) + f'\n  }},\n  "boundary_AB": {boundary}\n}}\n'
