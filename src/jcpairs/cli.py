"""Command-line interface.

Subcommands: ``evolve`` (concurrence time series), ``sweep`` ((alpha, t)
tables), ``esd`` (zero-interval report), ``verify`` (self-check suite).
Outputs are deterministic: CSV gets LF line endings and 17-significant-digit
floats, JSON uses fixed key order.  Exit codes: 0 success, 1 usage error,
2 I/O error, 3 verification failure.

A config file of ``key = value`` lines (# comments allowed) supplies
defaults; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

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


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    family: str = "phi"
    alpha: float = 0.25 * math.pi
    omega0: float = 5.0
    omega: float = 5.0
    g: float = 1.0
    n_max: int = 1
    t_max: float | None = None
    steps: int | None = None
    engine: str = "analytic"
    tol: float = 1e-9
    zero_tol: float = 1e-12
    fmt: str = "csv"
    output: str = "-"
    min_width: float | None = None
    alpha_min: float = 0.0
    alpha_max: float = 0.5 * math.pi
    alpha_points: int = 9
    pair: str | None = None
    as_json: bool = False
    inject_fault: bool = False

    def params(self):
        try:
            return JCParams(omega0=self.omega0, omega=self.omega, g=self.g)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


_ENGINES = {
    "evolve": ("analytic", "numeric", "both"),
    "sweep": ("closed", "analytic", "numeric", "both"),
    "esd": ("closed", "analytic", "numeric"),
}
# the allowed values of a setting (engine's per command above), for its flag
# and its config-file key alike
_CHOICES = {"family": FAMILY_KINDS, "format": ("csv", "json"), "pair": PAIR_LABELS}

_FLOAT_KEYS = (
    "alpha", "alpha_deg", "omega0", "omega", "g", "t_max", "tol", "zero_tol",
    "min_width", "alpha_min", "alpha_max",
)
_INT_KEYS = {"n_max", "steps", "alpha_points"}
_BOOL_KEYS = {"json", "inject_fault"}

_COMMAND_KEYS = {
    "evolve": {"family", "alpha", "alpha_deg", "omega0", "omega", "g", "n_max",
               "t_max", "steps", "engine", "tol", "format", "output"},
    "sweep": {"family", "omega0", "omega", "g", "n_max", "t_max",
              "steps", "engine", "tol", "zero_tol", "format", "output",
              "alpha_min", "alpha_max", "alpha_points", "pair"},
    "esd": {"family", "alpha", "alpha_deg", "omega0", "omega", "g", "n_max",
            "t_max", "steps", "engine", "zero_tol", "min_width", "output"},
    "verify": {"omega0", "omega", "g", "tol", "output", "json", "inject_fault"},
}


@functools.cache  # built on the first request, then reused: argparse keeps no per-parse state
def _build_parser():
    parser = _Parser(prog="jcpairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p, *, with_alpha=True):
        p.add_argument("--config", help="key = value file of defaults")
        p.add_argument("--family", choices=_CHOICES["family"])
        if with_alpha:
            p.add_argument("--alpha", type=float, help="superposition angle (radians)")
            p.add_argument("--alpha-deg", type=float, help="superposition angle (degrees)")
        p.add_argument("--omega0", type=float, help="atomic frequency")
        p.add_argument("--omega", type=float, help="cavity frequency")
        p.add_argument("--g", type=float, help="atom-cavity coupling")
        p.add_argument("--n-max", type=int, help="Fock-space truncation (numeric engine)")

    p_evolve = sub.add_parser("evolve", help="concurrence time series")
    add_common(p_evolve)
    p_evolve.add_argument("--t-max", type=float)
    p_evolve.add_argument("--steps", type=int)
    p_evolve.add_argument("--engine", choices=_ENGINES["evolve"])
    p_evolve.add_argument("--tol", type=float, help="engine-agreement tolerance for --engine both")
    p_evolve.add_argument("--format", choices=_CHOICES["format"])
    p_evolve.add_argument("--output")

    p_sweep = sub.add_parser("sweep", help="(alpha, t) concurrence table")
    add_common(p_sweep, with_alpha=False)
    p_sweep.add_argument("--alpha-min", type=float)
    p_sweep.add_argument("--alpha-max", type=float)
    p_sweep.add_argument("--alpha-points", type=int)
    p_sweep.add_argument("--t-max", type=float)
    p_sweep.add_argument("--steps", type=int)
    p_sweep.add_argument("--engine", choices=_ENGINES["sweep"])
    p_sweep.add_argument("--pair", choices=_CHOICES["pair"], help="restrict to one pair")
    p_sweep.add_argument("--tol", type=float)
    p_sweep.add_argument("--zero-tol", type=float)
    p_sweep.add_argument("--format", choices=_CHOICES["format"])
    p_sweep.add_argument("--output")

    p_esd = sub.add_parser("esd", help="zero-interval report (JSON)")
    add_common(p_esd)
    p_esd.add_argument("--t-max", type=float)
    p_esd.add_argument("--steps", type=int)
    p_esd.add_argument("--engine", choices=_ENGINES["esd"])
    p_esd.add_argument("--zero-tol", type=float)
    p_esd.add_argument("--min-width", type=float)
    p_esd.add_argument("--output")

    p_verify = sub.add_parser("verify", help="run the invariant self-checks")
    p_verify.add_argument("--config", help="key = value file of defaults")
    p_verify.add_argument("--omega0", type=float)
    p_verify.add_argument("--omega", type=float)
    p_verify.add_argument("--g", type=float)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--json", action="store_true", default=None)
    p_verify.add_argument("--inject-fault", action="store_true", default=None,
                          help="perturb one Hamiltonian entry (negative control)")
    p_verify.add_argument("--output")

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
            if key not in _COMMAND_KEYS[command]:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r} for command {command!r}")
            values[key] = _coerce_config_value(command, key, text.strip(), where=f"{path}:{lineno}")
    if "alpha_deg" in values:
        if "alpha" in values:
            raise UsageError(f"{path}: give alpha or alpha_deg, not both")
        values["alpha"] = math.radians(values.pop("alpha_deg"))
    return values


def _coerce_config_value(command, key, text, *, where):
    choices = _ENGINES[command] if key == "engine" else _CHOICES.get(key)
    if choices is not None and text not in choices:
        raise UsageError(f"{where}: bad value for {key}: {text!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    try:
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _INT_KEYS:
            return int(text)
        if key in _BOOL_KEYS:
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return text
    except ValueError as exc:
        raise UsageError(f"{where}: bad value for {key}: {text!r}") from exc


def _merged(args, command):
    """Flags override config-file values, which override built-in defaults."""
    config = _read_config_file(args.config, command) if getattr(args, "config", None) else {}

    def pick(key, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in config:
            return config[key]
        return default

    # the angle is one setting: a flag in either unit beats the file's value
    if getattr(args, "alpha_deg", None) is not None:
        if args.alpha is not None:
            raise UsageError("give --alpha or --alpha-deg, not both")
        args.alpha = math.radians(args.alpha_deg)

    cfg = RunConfig(command=command)
    cfg.family = pick("family", cfg.family)
    cfg.alpha = pick("alpha", cfg.alpha)
    cfg.omega0 = pick("omega0", cfg.omega0)
    cfg.omega = pick("omega", cfg.omega)
    cfg.g = pick("g", cfg.g)
    cfg.n_max = pick("n_max", cfg.n_max)
    cfg.engine = pick("engine", "analytic")
    cfg.tol = pick("tol", cfg.tol)
    cfg.zero_tol = pick("zero_tol", cfg.zero_tol)
    cfg.fmt = pick("format", cfg.fmt)
    cfg.output = pick("output", cfg.output)
    cfg.min_width = pick("min_width", None)
    cfg.alpha_min = pick("alpha_min", cfg.alpha_min)
    cfg.alpha_max = pick("alpha_max", cfg.alpha_max)
    cfg.alpha_points = pick("alpha_points", cfg.alpha_points)
    cfg.pair = pick("pair", None)
    cfg.as_json = bool(pick("json", False))
    cfg.inject_fault = bool(pick("inject_fault", False))
    cfg.t_max = pick("t_max")
    cfg.steps = pick("steps")

    # every float setting is finite before any default is derived from them
    for name in _FLOAT_KEYS:
        value = getattr(cfg, name, None)  # alpha_deg is already folded into alpha
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{name.replace('_', '-')} must be finite, got {value}")
    period = 2.0 * math.pi / cfg.params().rabi(1)
    if cfg.t_max is None:
        cfg.t_max = 2.0 * period
    if cfg.steps is None:
        steps = 512 * cfg.t_max / period
        if steps > sys.maxsize:  # also inf, which round() cannot convert
            raise UsageError(f"t-max {cfg.t_max} is too long for the default of 512 steps "
                             "per Rabi period; give --steps")
        cfg.steps = max(1, round(steps))

    _validate(cfg)
    return cfg


def _validate(cfg):
    if cfg.command != "verify":
        if cfg.steps < 1:
            raise UsageError(f"steps must be >= 1, got {cfg.steps}")
        if cfg.command == "esd" and cfg.steps < 2:
            raise UsageError("steps must be >= 2 for esd")
        if not cfg.t_max > 0:
            raise UsageError(f"t-max must be positive, got {cfg.t_max}")
        if cfg.n_max < 1:
            raise UsageError(f"n-max must be >= 1, got {cfg.n_max}")
        # twice a site's largest energy bounds every phase rate a route takes
        params = cfg.params()
        rate = 2.0 * (0.5 * params.omega0 + cfg.n_max * params.omega + math.sqrt(cfg.n_max) * params.g)
        if not math.isfinite(rate * cfg.t_max):
            raise UsageError(f"t-max {cfg.t_max} times the largest phase rate, 2 (omega0/2 + "
                             f"n_max omega + sqrt(n_max) g) = {rate}, overflows; lower t-max, "
                             "omega0, omega or g")
    if cfg.command == "sweep":
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
    cfg = _merged(args, "evolve")
    params = cfg.params()
    rabi = params.rabi(1)
    ts = np.array([cfg.t_max * i / cfg.steps for i in range(cfg.steps + 1)])

    results = [engine.values([cfg.alpha], ts) for engine in _engines(cfg, params)]
    conc = results[0].concurrence[0]
    q = results[0].q[0]

    columns = list(_EVOLVE_COLUMNS)
    data = [ts, rabi * ts, (_number_cells(cfg.fmt, [cfg.alpha]), 0)]
    data += [conc[:, i] for i in range(len(PAIR_LABELS))]
    data += [q[:, PAIR_LABELS.index(pair)] for pair in _Q_PAIRS]
    if cfg.engine == "both":
        columns.append("max_engine_disagreement")
        data.append(np.max(np.abs(conc - results[1].concurrence[0]), axis=1))

    _write_output(cfg.output, _table_chunks(cfg.fmt, columns, (1, ts.size), data))
    return _disagreement_exit(results, [cfg.alpha], ts, PAIR_LABELS, cfg)


def _cmd_sweep(args):
    cfg = _merged(args, "sweep")
    params = cfg.params()
    rabi = params.rabi(1)
    alpha_grid = np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_points)
    t_grid = np.linspace(0.0, cfg.t_max, cfg.steps + 1)
    pairs = [cfg.pair] if cfg.pair else list(PAIR_LABELS)

    try:
        results = [engine.values(alpha_grid, t_grid, pairs) for engine in _engines(cfg, params)]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    conc = results[0].concurrence
    # rows run over (alpha, t, pair); the per-axis cells are formatted once
    data = [
        (_number_cells(cfg.fmt, alpha_grid), 0),
        (_number_cells(cfg.fmt, t_grid), 1),
        (_number_cells(cfg.fmt, rabi * t_grid), 1),
        (_label_cells(cfg.fmt, pairs), 2),
        conc,
        results[0].q,
        (_label_cells(cfg.fmt, ["false", "true"]), (conc <= cfg.zero_tol).view(np.uint8)),
    ]
    _write_output(cfg.output, _table_chunks(cfg.fmt, _SWEEP_COLUMNS, conc.shape, data))
    return _disagreement_exit(results, alpha_grid, t_grid, pairs, cfg)


def _cmd_esd(args):
    cfg = _merged(args, "esd")
    params = cfg.params()
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
    cfg = _merged(args, "verify")
    checks = run_checks(cfg.params(), cfg.tol, cfg.inject_fault)
    if cfg.as_json:
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
            raise UsageError("missing subcommand (evolve, sweep, esd, verify)")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # config-induced library rejections
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
