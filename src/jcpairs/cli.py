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

from .dynamics import FAMILY_KINDS
from .engine import GridEngine
from .entanglement import PAIR_LABELS
from .esd import report_json, scan_report
from .jcmodel import JCParams
from .tablefmt import label_cells, number_cells, table_chunks

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
    "steps": (int, None, _RUNS, None,
              "time steps (default: 512 per Rabi period, at least 1, or 2 for esd, "
              "at most 2**24)"),
    "engine": (str, "analytic", _RUNS, {"evolve": ("analytic", "numeric", "both"),
                                        "sweep": ("closed", "analytic", "numeric", "both"),
                                        "esd": ("closed", "analytic", "numeric")},
               "evolution route; both runs analytic and numeric and compares them"),
    "pair": (str, None, ("sweep",), PAIR_LABELS, "restrict to one pair"),
    "tol": (float, 1e-9, ("evolve", "sweep", "verify"), None,
            "largest engine gap that passes (exit 3 above it)"),
    "zero_tol": (float, 1e-12, ("sweep", "esd"), None, "largest C that counts as zero"),
    "format": (str, "csv", ("evolve", "sweep"), ("csv", "json"), "table format"),
    "json": (bool, False, ("verify",), None, "write the checks as JSON"),
    "inject_fault": (bool, False, ("verify",), None,
                     "run the numeric route at omega0 + 2e-3 (negative control)"),
    "output": (str, "-", _ALL, None, "output file (default: stdout)"),
}
# The most time steps a derived default may ask for: a larger grid is asked
# for with --steps, never by a long --t-max alone.
_MAX_DEFAULT_STEPS = 2**24
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
        if math.isinf(period):  # with t-max given: 512 steps per period would be none
            raise UsageError(f"the Rabi period, pi / g, overflows for g={cfg.g}; give --steps")
        steps = 512 * cfg.t_max / period
        if steps > _MAX_DEFAULT_STEPS:  # also inf, which round() cannot convert
            raise UsageError(f"t-max {cfg.t_max} is too long for the default of 512 steps "
                             f"per Rabi period: {steps:.3g} steps, more than {_MAX_DEFAULT_STEPS} "
                             "(2**24); give --steps")
        cfg.steps = max(_least_steps(command), round(steps))

    _validate(cfg)
    return cfg


def _least_steps(command):
    """The fewest time steps ``command`` takes: esd brackets a zero between two samples."""
    return 2 if command == "esd" else 1


def _validate(cfg):
    if cfg.steps < 1:
        raise UsageError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.steps < _least_steps(cfg.command):
        raise UsageError("steps must be >= 2 for esd")
    if not cfg.t_max > 0:
        raise UsageError(f"t-max must be positive, got {cfg.t_max}")
    # GridEngine refuses what no route can compute; the Gt column is the CLI's own
    if math.isinf(cfg.params.rabi(1) * cfg.t_max):
        raise UsageError(f"Gt = 2g t overflows at t-max {cfg.t_max}, g={cfg.g}; lower t-max or g")
    if cfg.alpha_points < 1:
        raise UsageError(f"alpha-points must be >= 1, got {cfg.alpha_points}")
    if cfg.alpha_points > 1 and not cfg.alpha_max > cfg.alpha_min:
        raise UsageError("alpha-max must exceed alpha-min")
    if not cfg.tol > 0:
        raise UsageError(f"tol must be positive, got {cfg.tol}")
    if cfg.zero_tol < 0:
        raise UsageError(f"zero-tol must be >= 0, got {cfg.zero_tol}")


def _write_output(path, chunks):
    """Write byte chunks (bytes or uint8 arrays) to ``path`` ('-' or None for stdout) as they come."""
    if path in (None, "-"):
        sys.stdout.flush()  # what the text layer holds goes first
        sys.stdout.buffer.writelines(chunks)
        return
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _engines(cfg, params):
    """The requested engines, primary first ("both" runs analytic, then numeric).

    Each is built when the caller asks for it, so an engine that is done
    (and its workspace) is gone before the next one runs.
    """
    for name in ("analytic", "numeric") if cfg.engine == "both" else (cfg.engine,):
        yield GridEngine(name, cfg.family, params, n_max=cfg.n_max)


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
    # t-max * steps may overflow where no time does: then scale by an exact power of two
    scale = 1.0 if math.isfinite(cfg.t_max * cfg.steps) else 2.0 ** math.frexp(cfg.steps)[1]
    ts = cfg.t_max / scale * np.arange(cfg.steps + 1) / cfg.steps * scale

    results = [engine.values([cfg.alpha], ts) for engine in _engines(cfg, params)]
    conc = results[0].concurrence[0]
    q = results[0].q[0]

    columns = list(_EVOLVE_COLUMNS)
    # alpha is a float column of the one run, so a block takes one formatter call
    data = [ts, rabi * ts, np.full(ts.size, cfg.alpha)]
    data += [conc[:, i] for i in range(len(PAIR_LABELS))]
    data += [q[:, PAIR_LABELS.index(pair)] for pair in _Q_PAIRS]
    if cfg.engine == "both":
        columns.append("max_engine_disagreement")
        data.append(np.max(np.abs(conc - results[1].concurrence[0]), axis=1))

    # one slot per row: the rows of a series share no values
    _write_output(cfg.output, table_chunks(cfg.format, columns, (1, ts.size, 1), data))
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
    # rows run over (alpha, t, pair); the per-axis cells are formatted once, in one call
    axes = number_cells(cfg.format, np.concatenate([alpha_grid, t_grid, rabi * t_grid]))
    alpha_cells, t_cells, gt_cells = np.split(axes, [alpha_grid.size, alpha_grid.size + t_grid.size])
    data = [
        (alpha_cells, 0),
        (t_cells, 1),
        (gt_cells, 1),
        (label_cells(cfg.format, pairs), 2),
        conc,
        results[0].q,
        (label_cells(cfg.format, ["false", "true"]), (conc <= cfg.zero_tol).view(np.uint8)),
    ]
    _write_output(cfg.output, table_chunks(cfg.format, _SWEEP_COLUMNS, conc.shape, data))
    return _disagreement_exit(results, alpha_grid, t_grid, pairs, cfg)


def _cmd_esd(args):
    """zero-interval report (JSON)"""
    cfg = _merged(args, "esd")
    (engine,) = _engines(cfg, cfg.params)
    report = scan_report(engine, cfg.alpha, cfg.t_max, zero_tol=cfg.zero_tol, samples=cfg.steps + 1)
    _write_output(cfg.output, [report_json(report).encode()])
    return 0


def _cmd_verify(args):
    """run the invariant self-checks"""
    from .checks import run_checks  # only verify runs the invariant suite

    cfg = _merged(args, "verify")
    checks = run_checks(cfg.params, cfg.tol, cfg.inject_fault)
    if cfg.json:
        payload = [{"name": name, "passed": bool(ok), "detail": detail} for name, ok, detail in checks]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks]
        text = "\n".join(lines) + "\n"
    _write_output(cfg.output, [text.encode()])
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
