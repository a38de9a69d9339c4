"""Command-line interface.

Subcommands: ``evolve`` (concurrence time series), ``sweep`` ((alpha, t)
tables), ``esd`` (zero-interval report), ``verify`` (self-check suite).
Outputs are deterministic: CSV gets LF line endings and 17-significant-digit
floats, JSON uses fixed key order.  Exit codes: 0 success, 1 usage error,
2 I/O error, 3 verification failure.

Every setting is one entry of ``_SETTINGS``: a flag of the commands that
take it and a key of the config file, ``key = value`` lines (# comments
allowed).  Explicit flags override the file, which overrides the defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .checks import run_checks
from .dynamics import FAMILY_KINDS
from .engine import GridEngine
from .entanglement import PAIR_LABELS
from .esd import boundary_AB, zero_intervals
from .floatfmt import g17_bytes
from .jcmodel import JCParams

_C_COLUMNS = ["C_AB", "C_ab", "C_Aa", "C_Bb", "C_Ab", "C_Ba"]
_Q_PAIRS = ("AB", "ab", "Aa", "Ab")
_Q_COLUMNS = [f"Q_{pair}" for pair in _Q_PAIRS]
_EVOLVE_COLUMNS = ["t", "Gt", "alpha"] + _C_COLUMNS + _Q_COLUMNS
_SWEEP_COLUMNS = ["alpha", "t", "Gt", "pair", "C", "Q", "is_zero"]

_RUNS = ("evolve", "sweep", "esd")
_ALL = _RUNS + ("verify",)

# Every setting, in --help order: key -> (type, default, commands, choices,
# help).  The key names it in a config file; its flag is --key with - for _.
# A default of None means unset, or derived in _merged from the other
# settings.  engine's choices depend on the command.
_SETTINGS = {
    "family": (str, "phi", _RUNS, FAMILY_KINDS, "initial-state family"),
    "alpha": (float, 0.25 * math.pi, ("evolve", "esd"), None, "superposition angle (radians)"),
    "alpha_deg": (float, None, ("evolve", "esd"), None, "superposition angle (degrees)"),
    "omega0": (float, 5.0, _ALL, None, "atomic frequency"),
    "omega": (float, 5.0, _ALL, None, "cavity frequency"),
    "g": (float, 1.0, _ALL, None, "atom-cavity coupling"),
    "n_max": (int, 1, _RUNS, None, "Fock-space truncation (numeric engine)"),
    "alpha_min": (float, 0.0, ("sweep",), None, "first angle of the grid (radians)"),
    "alpha_max": (float, 0.5 * math.pi, ("sweep",), None, "last angle of the grid (radians)"),
    "alpha_points": (int, 9, ("sweep",), None, "number of angles in the grid"),
    "t_max": (float, None, _RUNS, None, "last time (default: two Rabi periods)"),
    "steps": (int, None, _RUNS, None, "time steps (default: 512 per Rabi period)"),
    "engine": (str, "analytic", _RUNS, {"evolve": ("analytic", "numeric", "both"),
                                        "sweep": ("closed", "analytic", "numeric", "both"),
                                        "esd": ("closed", "analytic", "numeric")},
               "evolution route; both runs analytic and numeric and compares them"),
    "pair": (str, None, ("sweep",), PAIR_LABELS, "restrict to one pair"),
    "tol": (float, 1e-9, ("evolve", "sweep", "verify"), None,
            "largest engine gap that passes (exit 3 above it)"),
    "zero_tol": (float, 1e-12, ("sweep", "esd"), None, "largest C that counts as zero"),
    "min_width": (float, None, ("esd",), None,
                  "width below which a zero run without Q is a touch (default: 1e-6 Rabi periods)"),
    "format": (str, "csv", ("evolve", "sweep"), ("csv", "json"), "table format"),
    "json": (bool, False, ("verify",), None, "write the checks as JSON"),
    "inject_fault": (bool, False, ("verify",), None,
                     "perturb one Hamiltonian entry (negative control)"),
    "output": (str, "-", _ALL, None, "output file (default: stdout)"),
}
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class UsageError(ValueError):
    """A request the settings rule out (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _choices(key, command):
    choices = _SETTINGS[key][3]
    return choices[command] if isinstance(choices, dict) else choices


@functools.cache  # built on the first request, then reused: argparse keeps no per-parse state
def _build_parser():
    parser = _Parser(prog="jcpairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, handler in _HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="key = value file of defaults")
        for key, (kind, _, commands, _, text) in _SETTINGS.items():
            if command not in commands:
                continue
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, help=text)
            else:
                p.add_argument(flag, type=kind, choices=_choices(key, command), help=text)
    return parser


def _read_config_file(path, command):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, text = line.split("=", 1)
            key = key.strip().lower().replace("-", "_")
            if key not in _SETTINGS or command not in _SETTINGS[key][2]:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r} for command {command!r}")
            values[key] = _config_value(command, key, text.strip(), where=f"{path}:{lineno}")
    if "alpha_deg" in values:
        if "alpha" in values:
            raise UsageError(f"{path}: give alpha or alpha_deg, not both")
        values["alpha"] = math.radians(values.pop("alpha_deg"))
    return values


def _config_value(command, key, text, *, where):
    choices = _choices(key, command)
    if choices is not None and text not in choices:
        raise UsageError(f"{where}: bad value for {key}: {text!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    kind = _SETTINGS[key][0]
    try:
        return _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"{where}: bad value for {key}: {text!r}") from exc


def _merged(args, command):
    """Every setting by key, flag over config file over default, and the site's ``params``.

    A setting the command does not take holds its default, which passes
    every check.
    """
    config = _read_config_file(args.config, command) if args.config else {}
    # the angle is one setting: a flag in either unit beats the file's value
    if getattr(args, "alpha_deg", None) is not None:
        if args.alpha is not None:
            raise UsageError("give --alpha or --alpha-deg, not both")
        args.alpha, args.alpha_deg = math.radians(args.alpha_deg), None

    cfg = argparse.Namespace(command=command)
    for key, (kind, default, *_) in _SETTINGS.items():
        value = getattr(args, key, None)
        value = config.get(key, default) if value is None else value
        # every float setting is finite before any default is derived from them
        if kind is float and value is not None and not math.isfinite(value):
            raise UsageError(f"{key.replace('_', '-')} must be finite, got {value}")
        setattr(cfg, key, value)

    cfg.params = JCParams(omega0=cfg.omega0, omega=cfg.omega, g=cfg.g)
    period = 2.0 * math.pi / cfg.params.rabi(1)
    if cfg.t_max is None:  # two Rabi periods, where verify's grid ends too
        cfg.t_max = 2.0 * period
        if math.isinf(cfg.t_max):
            raise UsageError(f"two Rabi periods, 2 pi / g, overflow for g={cfg.g}; raise g")
    if cfg.steps is None:
        steps = 512 * cfg.t_max / period
        if steps > sys.maxsize:  # also inf, which round() cannot convert
            raise UsageError(f"t-max {cfg.t_max} is too long for the default of 512 steps "
                             "per Rabi period; give --steps")
        cfg.steps = max(1, round(steps))

    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.steps < 1:
        raise UsageError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.command == "esd" and cfg.steps < 2:
        raise UsageError("steps must be >= 2 for esd")
    if not cfg.t_max > 0:
        raise UsageError(f"t-max must be positive, got {cfg.t_max}")
    if cfg.n_max < 1:
        raise UsageError(f"n-max must be >= 1, got {cfg.n_max}")
    # twice a site's largest energy bounds every phase rate a route takes
    rate = 2.0 * (0.5 * cfg.omega0 + cfg.n_max * cfg.omega + math.sqrt(cfg.n_max) * cfg.g)
    if not math.isfinite(rate * cfg.t_max):
        span, advice = (("verify's largest t, 4 pi/G =", "lower omega0 or omega, or raise g")
                        if cfg.command == "verify" else ("t-max", "lower t-max, omega0, omega or g"))
        raise UsageError(f"{span} {cfg.t_max} times the largest phase rate, 2 (omega0/2 + "
                         f"n_max omega + sqrt(n_max) g) = {rate}, overflows; {advice}")
    if cfg.alpha_points < 1:
        raise UsageError(f"alpha-points must be >= 1, got {cfg.alpha_points}")
    if cfg.alpha_points > 1 and not cfg.alpha_max > cfg.alpha_min:
        raise UsageError("alpha-max must exceed alpha-min")
    if not cfg.tol > 0:
        raise UsageError(f"tol must be positive, got {cfg.tol}")
    if cfg.zero_tol < 0:
        raise UsageError(f"zero-tol must be >= 0, got {cfg.zero_tol}")


# Rows per block: each block is formatted as one byte matrix and written
# before the next is built, so the whole table never exists as text at once.
_ROW_BLOCK = 2048


def _text_matrix(texts):
    """ASCII texts as a NUL-padded uint8 matrix, one row per text."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


def _label_cells(fmt, labels):
    """Cells of text labels: the labels in CSV, JSON strings in JSON."""
    return _text_matrix(labels if fmt == "csv" else [json.dumps(label) for label in labels])


def _number_cells(fmt, values):
    """Cells of float values: '%.17g' text in CSV, ``json.dumps`` numbers (NaN as null) in JSON."""
    values = np.asarray(values, dtype=float)
    if fmt == "csv":
        return g17_bytes(values)
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = json.dumps(None if math.isnan(values[i]) else float(values[i]))
    return _text_matrix(texts)


def _table_chunks(fmt, columns, shape, data):
    """Text of a table as chunks for ``_write_output``, one per block of ``_ROW_BLOCK`` rows.

    Row r is the cell ``np.unravel_index(r, shape)`` of the table.  ``data``
    has one entry per column: a float array that reshapes to ``shape``,
    formatted a block at a time, or a pair ``(cells, key)`` of ready cells
    (``_label_cells``, ``_number_cells``) and the row of ``cells`` at each
    table cell: its index along the axis ``key``, or ``key[cell]`` for an
    integer array of ``shape``.  Each block is one byte matrix of cells and
    separators, written without its NUL padding; JSON has the bytes of
    ``json.dumps(..., indent=2)``.
    """
    n = math.prod(shape)
    if fmt == "json":
        head = json.dumps(list(columns), indent=2).replace("\n", "\n  ")
        yield '{\n  "columns": ' + head + ',\n  "rows": ['
        # every row opens with ",\n"; the first row's comma is dropped
        opening, separator, closing = ",\n    [\n      ", ",\n      ", "\n    ]"
    else:
        yield ",".join(columns) + "\n"
        opening, separator, closing = "", ",", "\n"
    opening, separator, closing = (np.tile(np.frombuffer(text.encode(), np.uint8), (_ROW_BLOCK, 1))
                                   for text in (opening, separator, closing))
    floats = [col.reshape(shape) for col in data if not isinstance(col, tuple)]
    for start in range(0, n, _ROW_BLOCK):
        axes = np.unravel_index(np.arange(start, min(n, start + _ROW_BLOCK)), shape)
        # one formatter call for all float columns of the block
        numbers = _number_cells(fmt, np.concatenate([col[axes] for col in floats]))
        numbers = iter(np.split(numbers, len(floats)))
        parts = [opening]
        for col in data:
            if isinstance(col, tuple):
                table, key = col
                index = axes[key] if isinstance(key, int) else key[axes]
                parts.append(np.take(table, index, axis=0))
            else:
                parts.append(next(numbers))
            parts.append(separator)
        parts[-1] = closing
        block = np.concatenate([part[:axes[0].size] for part in parts], axis=1)
        text = block[block != 0].tobytes().decode("ascii")
        yield text[1:] if fmt == "json" and not start else text
    if fmt == "json":
        yield ("\n  ]" if n else "]") + "\n}\n"


def _write_output(path, chunks):
    """Write text chunks to ``path`` ('-' or None for stdout) as they come."""
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def _engines(cfg, params):
    """The requested engines, primary first ("both" runs analytic, then numeric)."""
    names = ("analytic", "numeric") if cfg.engine == "both" else (cfg.engine,)
    return [GridEngine(name, cfg.family, params, n_max=cfg.n_max) for name in names]


def _disagreement_exit(results, alpha_grid, t_grid, pairs, cfg):
    """Exit code 3 when two engines' concurrences differ by more than ``cfg.tol``.

    The stderr message names the worst cell: its alpha, t and pair.
    """
    if len(results) < 2:
        return 0
    gap = np.abs(results[0].concurrence - results[1].concurrence)
    ia, it, ip = np.unravel_index(np.argmax(gap), gap.shape)
    worst = float(gap[ia, it, ip])
    if worst > cfg.tol:
        print(f"engine disagreement {worst:.3e} exceeds tolerance {cfg.tol:.3e} "
              f"at alpha = {float(alpha_grid[ia])!r}, t = {float(t_grid[it])!r}, "
              f"pair {pairs[ip]}", file=sys.stderr)
        return 3
    return 0


def _cmd_evolve(args):
    """concurrence time series"""
    cfg = _merged(args, "evolve")
    params = cfg.params
    rabi = params.rabi(1)
    ts = np.array([cfg.t_max * i / cfg.steps for i in range(cfg.steps + 1)])

    results = [engine.values([cfg.alpha], ts) for engine in _engines(cfg, params)]
    conc = results[0].concurrence[0]
    q = results[0].q[0]

    columns = list(_EVOLVE_COLUMNS)
    data = [ts, rabi * ts, (_number_cells(cfg.format, [cfg.alpha]), 0)]
    data += [conc[:, i] for i in range(len(PAIR_LABELS))]
    data += [q[:, PAIR_LABELS.index(pair)] for pair in _Q_PAIRS]
    if cfg.engine == "both":
        columns.append("max_engine_disagreement")
        data.append(np.max(np.abs(conc - results[1].concurrence[0]), axis=1))

    _write_output(cfg.output, _table_chunks(cfg.format, columns, (1, ts.size), data))
    return _disagreement_exit(results, [cfg.alpha], ts, PAIR_LABELS, cfg)


def _cmd_sweep(args):
    """(alpha, t) concurrence table"""
    cfg = _merged(args, "sweep")
    params = cfg.params
    rabi = params.rabi(1)
    alpha_grid = np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_points)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    pairs = [cfg.pair] if cfg.pair else list(PAIR_LABELS)

    results = [engine.values(alpha_grid, t_grid, pairs) for engine in _engines(cfg, params)]
    conc = results[0].concurrence
    # rows run over (alpha, t, pair); the per-axis cells are formatted once
    data = [
        (_number_cells(cfg.format, alpha_grid), 0),
        (_number_cells(cfg.format, t_grid), 1),
        (_number_cells(cfg.format, rabi * t_grid), 1),
        (_label_cells(cfg.format, pairs), 2),
        conc,
        results[0].q,
        (_label_cells(cfg.format, ["false", "true"]), (conc <= cfg.zero_tol).view(np.uint8)),
    ]
    _write_output(cfg.output, _table_chunks(cfg.format, _SWEEP_COLUMNS, conc.shape, data))
    return _disagreement_exit(results, alpha_grid, t_grid, pairs, cfg)


def _cmd_esd(args):
    """zero-interval report (JSON)"""
    cfg = _merged(args, "esd")
    params = cfg.params
    rabi = params.rabi(1)
    min_width = cfg.min_width if cfg.min_width is not None else 1e-6 * (2.0 * math.pi / rabi)

    (engine,) = _engines(cfg, params)

    def sample(ts):
        values = engine.values([cfg.alpha], ts, PAIR_LABELS)
        return values.concurrence[0], values.q[0]

    per_pair = zero_intervals(
        sample, 0.0, cfg.t_max, tol=cfg.zero_tol, min_width=min_width, samples=cfg.steps + 1,
    )
    pairs_report = {}
    for pair, intervals in zip(PAIR_LABELS, per_pair):
        pairs_report[pair] = [
            {
                "t_lo": iv.t_lo,
                "t_hi": iv.t_hi,
                "gt_lo": rabi * iv.t_lo,
                "gt_hi": rabi * iv.t_hi,
                "kind": iv.kind,
            }
            for iv in intervals
        ]

    boundary = None
    window = boundary_AB(cfg.family, cfg.alpha, params)
    if window is not None:
        boundary = {"gt_lo": window[0], "gt_hi": window[1]}

    report = {
        "family": cfg.family,
        "alpha": cfg.alpha,
        "omega0": cfg.omega0,
        "omega": cfg.omega,
        "g": cfg.g,
        "rabi": rabi,
        "t_max": cfg.t_max,
        "zero_tol": cfg.zero_tol,
        "min_width": min_width,
        "pairs": pairs_report,
        "boundary_AB": boundary,
    }
    _write_output(cfg.output, [json.dumps(report, indent=2) + "\n"])
    return 0


def _cmd_verify(args):
    """run the invariant self-checks"""
    cfg = _merged(args, "verify")
    checks = run_checks(cfg.params, cfg.tol, cfg.inject_fault)
    if cfg.json:
        payload = [{"name": name, "passed": bool(ok), "detail": detail} for name, ok, detail in checks]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks]
        text = "\n".join(lines) + "\n"
    _write_output(cfg.output, [text])
    if all(ok for _, ok, _ in checks):
        return 0
    failed = ", ".join(name for name, ok, _ in checks if not ok)
    print(f"verification failed: {failed}", file=sys.stderr)
    return 3


_HANDLERS = {
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "esd": _cmd_esd,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(f"missing subcommand ({', '.join(_HANDLERS)})")
        return _HANDLERS[args.command](args)
    except ValueError as exc:  # a UsageError, or a library's rejection of a setting
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
