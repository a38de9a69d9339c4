"""Output checks for benchmark requests, derived from the paper.

None of these re-run package code: the expected values come from the
closed-form relations of the double Jaynes-Cummings model.

* ``sweep --engine closed``: row count; psi C_AB + C_ab = |sin 2 alpha|;
  C_Ab = C_Ba; phi C_Aa = C_Bb; every C in [0, 1].
* ``sweep --engine both`` and ``evolve``: exit code 0 (the CLI exits 3 when
  the engines disagree) and row count.
* ``esd``, phi: the AB sudden-death window exists iff |tan alpha| < G^2/delta^2,
  with edges at delta t = 2 arcsin(sqrt|tan alpha| delta/G) and its mirror,
  repeating with period 2 pi/delta; ``boundary_AB`` is the first such window
  in units of Gt, or null when there is none.  psi: no pair reports
  sudden death.

``check`` returns a list of failure codes, empty when the request passed.
Three codes name defects the seed is known to have; every other code is an
unexpected failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

KNOWN_DEFECTS = {
    "boundary_resonance_formula_under_detuning":
        "esd reports the resonance boundary_AB at nonzero detuning",
    "boundary_null_outside_first_quadrant":
        "esd reports a null boundary_AB for alpha outside (0, pi/2) although a window exists",
    "engine_disagreement_long_time":
        "evolve --engine both exits 3 at t-max >= 1e6 (eigh phase error grows with t)",
}

_C_TOL = 1e-12
_EDGE_TOL = 1e-9  # relative to the Rabi period
_LONG_TIME = 1e6


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _sweep_closed(request, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != request["rows"]:
        return ["row_count"]
    codes = set()
    cells = {}
    for row in rows:
        c = float(row["C"])
        if not 0.0 <= c <= 1.0 + _C_TOL:
            codes.add("c_range")
        cells.setdefault((row["alpha"], row["t"]), {})[row["pair"]] = c
    for (alpha, _), c in cells.items():
        if abs(c["Ab"] - c["Ba"]) > _C_TOL:
            codes.add("pair_symmetry")
        if request["family"] == "phi" and abs(c["Aa"] - c["Bb"]) > _C_TOL:
            codes.add("local_symmetry")
        if request["family"] == "psi" and abs(c["AB"] + c["ab"] - abs(math.sin(2.0 * float(alpha)))) > _C_TOL:
            codes.add("psi_conservation")
    return sorted(codes)


def _row_count(request, text):
    return [] if text.count("\n") - 1 == request["rows"] else ["row_count"]


def _expected_windows(request):
    """AB death windows (t_lo, t_hi) inside [0, t_max] from the window condition."""
    big_g = 2.0 * request["g"]
    delta = math.hypot(request["omega"] - request["omega0"], big_g)
    ratio = abs(math.tan(request["alpha"])) * delta**2 / big_g**2
    if ratio >= 1.0:
        return []
    edge = 2.0 * math.asin(math.sqrt(ratio))
    windows = []
    k = 0
    while (edge + 2.0 * math.pi * k) / delta < request["t_max"]:
        lo = (edge + 2.0 * math.pi * k) / delta
        hi = (2.0 * math.pi - edge + 2.0 * math.pi * k) / delta
        windows.append((lo, min(hi, request["t_max"]), hi))
        k += 1
    return windows


def _resonance_boundary(alpha):
    """The boundary a resonance-only formula gives: 2 arcsin sqrt(tan alpha) and mirror."""
    if not 0.0 < alpha < 0.25 * math.pi:
        return None
    lo = 2.0 * math.asin(math.sqrt(math.tan(alpha)))
    return lo, 2.0 * math.pi - lo


def _esd(request, text):
    report = json.loads(text)
    deaths = {pair: [(iv["t_lo"], iv["t_hi"]) for iv in ivs if iv["kind"] == "sudden_death"]
              for pair, ivs in report["pairs"].items()}
    if request["family"] == "psi":
        return ["psi_sudden_death"] if any(deaths.values()) else []

    big_g = 2.0 * request["g"]
    tol = _EDGE_TOL * 2.0 * math.pi / big_g
    spacing = request["t_max"] / request["steps"]
    expected = _expected_windows(request)
    codes = []
    # every detected window is a predicted one; every predicted window wider
    # than four samples is detected
    detected = deaths["AB"]
    unmatched = list(detected)
    for lo, hi, _ in expected:
        hit = [w for w in unmatched if abs(w[0] - lo) <= tol and abs(w[1] - hi) <= tol]
        if hit:
            unmatched.remove(hit[0])
        elif hi - lo > 4.0 * spacing:
            codes.append("ab_window_missing")
    if unmatched:
        codes.append("ab_window_unexpected")

    boundary = report["boundary_AB"]
    want = None
    if expected:
        lo, _, hi = expected[0]
        want = (big_g * lo, big_g * hi)
    got = None if boundary is None else (boundary["gt_lo"], boundary["gt_hi"])
    if want is None and got is None:
        return codes
    if want is not None and got is not None and all(abs(a - b) <= _EDGE_TOL * 2.0 * math.pi
                                                    for a, b in zip(want, got)):
        return codes
    alpha = request["alpha"]
    if got is None and not 0.0 < alpha < 0.5 * math.pi:
        codes.append("boundary_null_outside_first_quadrant")
    elif request["omega"] != request["omega0"] and got == _resonance_boundary(alpha):
        codes.append("boundary_resonance_formula_under_detuning")
    else:
        codes.append("boundary_mismatch")
    return codes


def check(request, exit_code, stderr, text):
    """Failure codes for one request's exit code, stderr and output text."""
    if exit_code != 0:
        t_max = request.get("t_max", 0.0)
        if (request["command"] == "evolve" and exit_code == 3 and t_max >= _LONG_TIME
                and "engine disagreement" in stderr):
            return ["engine_disagreement_long_time"]
        return [f"exit_{exit_code}"]
    try:
        if request["command"] == "esd":
            return _esd(request, text)
        if _arg(request["argv"], "--engine") == "closed":
            return _sweep_closed(request, text)
        return _row_count(request, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable:{type(exc).__name__}"]
