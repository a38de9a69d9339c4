import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jcpairs.checks as checks
import jcpairs.cli as cli
import jcpairs.engine as engine_module
import jcpairs.floatfmt as floatfmt
import jcpairs.tablefmt as tablefmt
from jcpairs import PAIR_LABELS, GridEngine, JCParams
from jcpairs.cli import main

EVOLVE_HEADER = "t,Gt,alpha,C_AB,C_ab,C_Aa,C_Bb,C_Ab,C_Ba,Q_AB,Q_ab,Q_Aa,Q_Ab"


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_evolve_csv_initial_bell_row(tmp_path):
    out = tmp_path / "evolve.csv"
    code = run(
        "evolve", "--family", "phi", "--alpha", "0.785398", "--steps", "100",
        "--t-max", "6.283185", "--g", "1", "--omega0", "5", "--omega", "5",
        "--output", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == EVOLVE_HEADER
    rows = read_csv(out)
    assert len(rows) == 101
    first = rows[0]
    assert float(first["t"]) == 0.0
    assert float(first["Gt"]) == 0.0
    assert float(first["C_AB"]) == pytest.approx(1.0, abs=1e-6)  # alpha is only pi/4 to 6 digits
    assert float(first["C_ab"]) == pytest.approx(0.0, abs=1e-6)


def test_evolve_psi_product_state_remote_pairs_zero(tmp_path):
    # alpha = 0 leaves the atoms unentangled: every remote pair stays at zero,
    # though the excited atom still entangles with its own cavity (C_Aa = |sin Gt|)
    out = tmp_path / "flat.csv"
    assert run("evolve", "--family", "psi", "--alpha", "0", "--steps", "32",
               "--t-max", "3.0", "--output", str(out)) == 0
    rows = read_csv(out)
    for row in rows:
        for col in ("C_AB", "C_ab", "C_Ab", "C_Ba", "C_Bb"):
            assert float(row[col]) <= 1e-12
        assert float(row["C_Aa"]) == pytest.approx(abs(math.sin(float(row["Gt"]))), abs=1e-12)


def test_evolve_phi_ground_state_all_zero(tmp_path):
    # alpha = pi/2 prepares |g g> with empty cavities: nothing ever evolves
    out = tmp_path / "ground.csv"
    assert run("evolve", "--family", "phi", "--alpha", str(math.pi / 2), "--steps", "32",
               "--t-max", "3.0", "--output", str(out)) == 0
    for row in read_csv(out):
        for col in ("C_AB", "C_ab", "C_Aa", "C_Bb", "C_Ab", "C_Ba"):
            assert float(row[col]) <= 1e-12


def test_evolve_engine_both_agreement(tmp_path):
    out = tmp_path / "both.csv"
    assert run("evolve", "--family", "phi", "--alpha", "0.5", "--engine", "both",
               "--steps", "64", "--t-max", "6.0", "--output", str(out)) == 0
    rows = read_csv(out)
    assert all(float(r["max_engine_disagreement"]) <= 1e-9 for r in rows)


def test_engine_disagreement_names_the_worst_cell(tmp_path, capsys):
    # a long-time detuned psi request where the engines drift apart (exit 3);
    # at resonance both round their phases alike and agree
    out = tmp_path / "long.csv"
    site = JCParams(omega0=5.3, omega=5.6, g=0.9)
    assert run("evolve", "--engine", "both", "--family", "psi", "--t-max", "1e9", "--omega0", "5.3",
               "--omega", "5.6", "--g", "0.9", "--steps", "8", "--output", str(out)) == 3
    ts = [1e9 * i / 8 for i in range(9)]
    analytic, numeric = (GridEngine(name, "psi", site).values([math.pi / 4], ts)
                         for name in ("analytic", "numeric"))
    gaps = np.abs(analytic.concurrence - numeric.concurrence)[0]
    it, ip = np.unravel_index(np.argmax(gaps), gaps.shape)
    column = [float(row["max_engine_disagreement"]) for row in read_csv(out)]
    assert max(column) == gaps[it, ip]
    assert capsys.readouterr().err == (
        f"engine disagreement {gaps[it, ip]:.3e} exceeds tolerance 1.000e-09 "
        f"at alpha = {math.pi / 4!r}, t = {ts[it]!r}, pair {PAIR_LABELS[ip]}\n"
    )


def test_evolve_json_output(tmp_path):
    out = tmp_path / "evolve.json"
    assert run("evolve", "--steps", "8", "--t-max", "1.0", "--format", "json",
               "--output", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == EVOLVE_HEADER.split(",")
    assert len(payload["rows"]) == 9


def test_evolve_numeric_engine_matches_analytic(tmp_path):
    a_out, n_out = tmp_path / "a.csv", tmp_path / "n.csv"
    args = ["evolve", "--family", "psi", "--alpha", "0.7", "--steps", "16", "--t-max", "2.0"]
    assert run(*args, "--engine", "analytic", "--output", str(a_out)) == 0
    assert run(*args, "--engine", "numeric", "--output", str(n_out)) == 0
    for ra, rn in zip(read_csv(a_out), read_csv(n_out)):
        for col in ("C_AB", "C_ab", "C_Aa", "C_Bb", "C_Ab", "C_Ba"):
            assert float(ra[col]) == pytest.approx(float(rn[col]), abs=1e-9)


def test_sweep_single_pair_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = [
        "sweep", "--family", "phi", "--pair", "AB", "--alpha-min", "0",
        "--alpha-max", "1.5", "--alpha-points", "3", "--steps", "2",
        "--t-max", "3.0", "--engine", "closed",
    ]
    assert run(*args, "--output", str(out1)) == 0
    assert run(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert len(rows) == 9
    # alpha-major, then t
    alphas = [float(r["alpha"]) for r in rows]
    assert alphas == sorted(alphas)


def test_sweep_row_order_and_pairs(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--alpha-points", "2", "--alpha-max", "0.8", "--steps", "1",
               "--t-max", "1.0", "--engine", "closed", "--output", str(out)) == 0
    rows = read_csv(out)
    assert [r["pair"] for r in rows[:6]] == ["AB", "ab", "Aa", "Bb", "Ab", "Ba"]
    assert len(rows) == 2 * 2 * 6


def test_sweep_touch_cell_flagged_zero(tmp_path):
    out = tmp_path / "touch.csv"
    assert run("sweep", "--family", "phi", "--pair", "AB",
               "--alpha-min", str(math.pi / 4), "--alpha-max", str(math.pi / 4),
               "--alpha-points", "1", "--steps", "2", "--t-max", str(math.pi),
               "--engine", "closed", "--output", str(out)) == 0
    rows = read_csv(out)
    mid = rows[1]  # Gt = pi at g = 1 means t = pi/2
    assert float(mid["Gt"]) == pytest.approx(math.pi, abs=1e-12)
    assert float(mid["C"]) == pytest.approx(0.0, abs=1e-15)
    assert mid["is_zero"] == "true"


def test_sweep_engine_both_passes(tmp_path):
    out = tmp_path / "both.csv"
    assert run("sweep", "--pair", "Ab", "--alpha-points", "3", "--steps", "4",
               "--t-max", "2.0", "--engine", "both", "--output", str(out)) == 0


def test_esd_report_death_window(tmp_path):
    out = tmp_path / "esd.json"
    assert run("esd", "--family", "phi", "--alpha", str(math.pi / 8), "--steps", "1024",
               "--t-max", str(2 * math.pi / 2.0), "--output", str(out)) == 0
    report = json.loads(out.read_text())
    deaths = [iv for iv in report["pairs"]["AB"] if iv["kind"] == "sudden_death"]
    assert len(deaths) == 1
    assert deaths[0]["gt_lo"] == pytest.approx(1.398370, abs=1e-6)
    assert deaths[0]["gt_hi"] == pytest.approx(4.884815, abs=1e-6)
    assert report["boundary_AB"]["gt_lo"] == pytest.approx(1.398370, abs=1e-6)


@pytest.mark.parametrize("alpha, omega", [(math.pi - 0.3927, "5"), (0.3927, "5.6"), (2.9, "4.5")])
def test_esd_report_boundary_matches_detected_window(tmp_path, alpha, omega):
    out = tmp_path / "esd.json"
    assert run("esd", "--family", "phi", "--alpha", str(alpha), "--omega", omega,
               "--steps", "512", "--output", str(out)) == 0
    report = json.loads(out.read_text())
    deaths = [iv for iv in report["pairs"]["AB"] if iv["kind"] == "sudden_death"]
    assert deaths
    assert report["boundary_AB"]["gt_lo"] == pytest.approx(deaths[0]["gt_lo"], abs=1e-6)
    assert report["boundary_AB"]["gt_hi"] == pytest.approx(deaths[0]["gt_hi"], abs=1e-6)


@pytest.mark.parametrize("engine", ["closed", "analytic", "numeric"])
def test_esd_runs_where_delta_over_g_overflows(engine, capsys):
    # delta/G = 1e10 / 2e-300 is inf, yet every route computes the scan: the
    # report has no AB window (G/delta squares to 0) and exits 0
    assert run("esd", "--engine", engine, "--omega0", "1", "--omega", "1e10", "--g", "1e-300",
               "--alpha", "0.3", "--t-max", "1e-5", "--steps", "8") == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and report["boundary_AB"] is None
    assert set(report["pairs"]) == set(PAIR_LABELS)


def test_esd_report_touch_only_for_bell(tmp_path):
    out = tmp_path / "bell.json"
    assert run("esd", "--family", "phi", "--alpha", str(math.pi / 4), "--steps", "1024",
               "--t-max", str(2 * math.pi), "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["boundary_AB"] is None
    kinds = {iv["kind"] for iv in report["pairs"]["AB"]}
    assert kinds == {"touch"}


def test_esd_report_psi_no_sudden_death(tmp_path):
    out = tmp_path / "psi.json"
    assert run("esd", "--family", "psi", "--alpha", str(math.pi / 8), "--steps", "1024",
               "--t-max", str(2 * math.pi), "--output", str(out)) == 0
    report = json.loads(out.read_text())
    for intervals in report["pairs"].values():
        assert all(iv["kind"] != "sudden_death" for iv in intervals)


def test_verify_passes(capsys):
    assert run("verify") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines)


def test_verify_json(capsys):
    assert run("verify", "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert {entry["name"] for entry in report} >= {
        "engine_agreement", "psi_conservation", "c_Ab_bound", "q_identity",
        "shift_symmetry", "x_form",
    }
    assert all(entry["passed"] for entry in report)


def test_verify_injected_fault_fails(capsys):
    # the numeric route runs off its site: only the two agreement checks see it
    assert run("verify", "--inject-fault") == 3
    verdicts = [line.split(":")[0].split(" ") for line in capsys.readouterr().out.splitlines()]
    assert sorted(name for verdict, name in verdicts if verdict == "FAIL") == [
        "closed_form_agreement", "engine_agreement"]
    assert [verdict for verdict, _ in verdicts].count("PASS") == 5 and len(verdicts) == 7


def test_verify_refuses_a_detuned_site():
    with pytest.raises(ValueError, match="^verify runs at resonance; set omega = omega0$"):
        checks.run_checks(JCParams(5, 6, 1), 1e-9)


def test_cli_import_leaves_the_invariant_suite_out():
    # only verify runs the checks, so no other command loads them
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, jcpairs.cli; print('jcpairs.checks' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "False\n"


class _NumericWithNaN(GridEngine):
    def values(self, alphas, ts, pairs=PAIR_LABELS, **kwargs):
        values = super().values(alphas, ts, pairs, **kwargs)
        if self.name == "numeric":
            values.concurrence[0, 1, 0] = math.nan
        return values


class _ClosedQWithNaN(GridEngine):
    def values(self, alphas, ts, pairs=PAIR_LABELS, **kwargs):
        values = super().values(alphas, ts, pairs, **kwargs)
        if self.name == "closed":
            values.q[0, 1, 0] = math.nan
        return values


@pytest.mark.parametrize("stand_in, failing", [
    (_NumericWithNaN, {"engine_agreement", "closed_form_agreement", "x_form"}),
    (_ClosedQWithNaN, {"q_identity"}),
], ids=["numeric-C", "closed-Q"])
def test_a_nan_gap_fails_its_check(monkeypatch, stand_in, failing):
    # one NaN cell: folding the gaps with Python's max would drop it and pass
    monkeypatch.setattr(checks, "GridEngine", stand_in)
    results = checks.run_checks(PARAMS, 1e-9)
    assert {check for check, ok, _ in results if not ok} == failing
    assert all("nan" in detail for check, ok, detail in results if check in failing)


class _NumericOffX(GridEngine):
    """The numeric route with Q = NaN, the mark of a cell off the X pattern, at one cell."""

    def values(self, alphas, ts, pairs=PAIR_LABELS, *, x_tol=1e-10):
        values = super().values(alphas, ts, pairs, x_tol=x_tol)
        if self.name == "numeric" and x_tol >= 0:
            values.q[0, 1, 0] = math.nan
        return values


def test_an_off_x_cell_fails_x_form(monkeypatch):
    # one cell per family, and no other check reads the evolution routes' Q
    monkeypatch.setattr(checks, "GridEngine", _NumericOffX)
    results = checks.run_checks(PARAMS, 1e-9)
    assert [check for check, ok, _ in results if not ok] == ["x_form"]
    (detail,) = [detail for check, _, detail in results if check == "x_form"]
    assert detail.startswith("off-X cells (entry above 1e-10) = 2; ")


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run("evolve", "--steps", "0") == 1
    assert run("evolve", "--engine", "warp") == 1
    assert run("evolve", "--alpha", "0.1", "--alpha-deg", "10") == 1
    assert run("evolve", "--g", "-1") == 1
    assert run("esd", "--steps", "1") == 1  # too few samples for interval detection
    assert run("nonsense") == 1
    assert run() == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--g", "--omega0", "--omega"])
def test_non_finite_parameter_is_a_usage_error(flag, capsys):
    for value in ("inf", "nan"):
        assert run("evolve", flag, value) == 1
        assert "must be finite" in capsys.readouterr().err


def test_io_error_exits_two(tmp_path):
    assert run("evolve", "--steps", "4", "--t-max", "1.0",
               "--output", str(tmp_path / "no" / "such" / "dir.csv")) == 2
    missing = tmp_path / "missing.conf"
    assert run("evolve", "--config", str(missing)) == 2


def test_config_file_defaults_and_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("alpha = 0.3\nsteps = 4\nt_max = 1.0  # comment\n")
    out_conf = tmp_path / "c.csv"
    assert run("evolve", "--config", str(conf), "--output", str(out_conf)) == 0
    rows = read_csv(out_conf)
    assert len(rows) == 5
    assert float(rows[0]["alpha"]) == pytest.approx(0.3)
    out_flag = tmp_path / "f.csv"
    assert run("evolve", "--config", str(conf), "--alpha", "0.5",
               "--output", str(out_flag)) == 0
    assert float(read_csv(out_flag)[0]["alpha"]) == pytest.approx(0.5)


def test_config_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("alfa = 0.3\n")
    assert run("evolve", "--config", str(conf)) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command, conf_line, allowed", [
    ("evolve", "format = xml", "'csv', 'json'"),
    ("esd", "engine = both", "'closed', 'analytic', 'numeric'"),
    ("evolve", "engine = closed", "'analytic', 'numeric', 'both'"),
    ("sweep", "family = chi", "'phi', 'psi'"),
], ids=["format-xml", "esd-engine-both", "evolve-engine-closed", "family-chi"])
def test_config_value_outside_the_flag_choices_is_a_usage_error(tmp_path, capsys, command,
                                                                 conf_line, allowed):
    # a config value must be one the flag accepts, with the same message for every key
    conf = tmp_path / "run.conf"
    conf.write_text(f"steps = 2\n{conf_line}\n")
    out = tmp_path / "out"
    assert run(command, "--config", str(conf), "--output", str(out)) == 1
    key, value = (part.strip() for part in conf_line.split("="))
    assert capsys.readouterr().err == (
        f"error: {conf}:2: bad value for {key}: {value!r} (choose from {allowed})\n")
    assert not out.exists()


@pytest.mark.parametrize("conf_line, flags, expected", [
    ("alpha_deg = 10", ["--alpha", "0.2"], 0.2),
    ("alpha = 0.3", ["--alpha-deg", "45"], math.pi / 4),
    ("alpha_deg = 10", [], math.radians(10)),
], ids=["radian-flag-over-degree-key", "degree-flag-over-radian-key", "degree-key-alone"])
def test_angle_flag_beats_config_file(tmp_path, conf_line, flags, expected):
    conf = tmp_path / "run.conf"
    conf.write_text(conf_line + "\nsteps = 2\nt_max = 1.0\n")
    out = tmp_path / "out.csv"
    assert run("evolve", "--config", str(conf), *flags, "--output", str(out)) == 0
    assert float(read_csv(out)[0]["alpha"]) == expected


def test_config_with_both_angle_keys_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "both.conf"
    conf.write_text("alpha = 0.3\nalpha_deg = 10\n")
    assert run("evolve", "--config", str(conf), "--alpha", "0.2") == 1
    assert capsys.readouterr().err == f"error: {conf}: give alpha or alpha_deg, not both\n"


_SMALL = {"evolve": ["--steps", "2"], "sweep": ["--steps", "2", "--alpha-points", "1"],
          "esd": ["--steps", "2"], "verify": []}


@pytest.mark.parametrize("command, flag, value", [
    ("evolve", "--t-max", "inf"),
    ("evolve", "--t-max", "nan"),
    ("evolve", "--alpha", "inf"),
    ("evolve", "--alpha-deg", "nan"),
    ("evolve", "--tol", "nan"),
    ("sweep", "--alpha-max", "inf"),
    ("sweep", "--alpha-min", "nan"),
    ("sweep", "--zero-tol", "nan"),
    ("esd", "--zero-tol", "nan"),
    ("verify", "--tol", "inf"),
])
def test_non_finite_setting_is_a_usage_error(command, flag, value, capsys):
    assert run(command, flag, value, *_SMALL[command]) == 1
    name = "alpha" if flag == "--alpha-deg" else flag[2:]
    assert capsys.readouterr().err == f"error: {name} must be finite, got {float(value)}\n"


@pytest.mark.parametrize("command, t_max, steps", [
    ("evolve", "1e308", "inf"), ("sweep", "1e308", "inf"), ("esd", "1e308", "inf"),
    # 512 t-max / pi = 1.6e11 steps: the process would grow until killed
    ("evolve", "1e9", "1.63e+11"), ("sweep", "1e9", "1.63e+11"), ("esd", "1e9", "1.63e+11"),
], ids=["evolve", "sweep", "esd", "evolve-1e9", "sweep-1e9", "esd-1e9"])
def test_default_steps_of_a_huge_t_max_is_a_usage_error(command, t_max, steps, monkeypatch, capsys):
    message = (f"t-max {float(t_max)} is too long for the default of 512 steps per Rabi period: "
               f"{steps} steps, more than 16777216 (2**24); give --steps")
    argv = [command, "--t-max", t_max] + (["--engine", "both", "--n-max", "4"] if command == "evolve" else [])
    # refused with the settings, before any grid or engine exists
    with pytest.raises(cli.UsageError) as refused:
        cli._merged(cli._build_parser().parse_args(argv), command)
    assert str(refused.value) == message

    def refuse(*args, **kwargs):
        raise AssertionError("a grid or an engine was built")

    for name in ("arange", "linspace"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(cli, "GridEngine", refuse)
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["evolve", "sweep", "esd"])
def test_default_steps_may_reach_the_ceiling(command):
    # at g = 1 the period is pi, so t-max = 2**15 pi asks for exactly 2**24 steps
    def merged(t_max):
        return cli._merged(cli._build_parser().parse_args([command, "--t-max", repr(t_max)]), command)

    assert merged(2**15 * math.pi).steps == 2**24
    with pytest.raises(cli.UsageError, match=r"more than 16777216 \(2\*\*24\); give --steps"):
        merged(math.nextafter(2**15 * math.pi, math.inf))


@pytest.mark.parametrize("argv, message", [
    # 2g overflows, so the Rabi period would be 0
    (["evolve", "--g", "1e308"],
     "error: the manifold splitting hypot(omega - omega0, 2g) overflows for "
     "omega0=5.0, omega=5.0, g=1e+308\n"),
    # the engine refuses what no route can compute, naming the route's largest phase rate
    (["sweep", "--engine", "closed", "--omega", "1e308", "--alpha-points", "1", "--steps", "2"],
     "error: t = 6.283185307179586 overflows the half phase delta t / 2 (delta = 1e+308)\n"),
    (["esd", "--omega", "1e308", "--steps", "8"],
     "error: the largest phase rate of the analytic route, 2 (omega0/2 + omega + g) = inf at "
     "JCParams(omega0=5.0, omega=1e+308, g=1.0), overflows\n"),
    (["sweep", "--t-max", "1.5e307", "--steps", "3", "--n-max", "2"],
     "error: t = 1.5e+307 times the largest phase rate of the analytic route, "
     "2 (omega0/2 + omega + g) = 17.0 at JCParams(omega0=5.0, omega=5.0, g=1.0), overflows\n"),
    # verify's own grid ends at 4 pi/G: its phases overflow, or were NaN and passed every check
    (["verify", "--omega0", "1e308", "--omega", "1e308"],
     "error: the largest phase rate of the analytic route, 2 (omega0/2 + omega + g) = inf at "
     "JCParams(omega0=1e+308, omega=1e+308, g=1.0), overflows\n"),
    (["verify", "--g", "1e-300", "--omega0", "1e10", "--omega", "1e10"],
     "error: t = 3.9269908169872414e+299 times the largest phase rate of the analytic route, "
     "2 (omega0/2 + omega + g) = 30000000000.0 at "
     "JCParams(omega0=10000000000.0, omega=10000000000.0, g=1e-300), overflows\n"),
    # the closed route's half phase, 1e308, is finite; the Gt column, 2e308, is not
    (["sweep", "--engine", "closed", "--t-max", "1e308", "--steps", "3"],
     "error: Gt = 2g t overflows at t-max 1e+308, g=1.0; lower t-max or g\n"),
    (["esd", "--engine", "closed", "--t-max", "1e308", "--steps", "3"],
     "error: Gt = 2g t overflows at t-max 1e+308, g=1.0; lower t-max or g\n"),
    (["evolve", "--n-max", "0"], "error: n_max must be >= 1, got 0\n"),
    # the default t-max, two Rabi periods, would be inf
    (["evolve", "--g", "1e-308"], "error: two Rabi periods, 2 pi / g, overflow for g=1e-308; raise g\n"),
    (["sweep", "--g", "1e-308"], "error: two Rabi periods, 2 pi / g, overflow for g=1e-308; raise g\n"),
    (["esd", "--g", "1e-308"], "error: two Rabi periods, 2 pi / g, overflow for g=1e-308; raise g\n"),
    # with t-max given, 512 steps per overflowing Rabi period would be none
    (["evolve", "--g", "1e-308", "--t-max", "1e300"],
     "error: the Rabi period, pi / g, overflows for g=1e-308; give --steps\n"),
    (["sweep", "--g", "1e-308", "--t-max", "1"],
     "error: the Rabi period, pi / g, overflows for g=1e-308; give --steps\n"),
    (["esd", "--g", "1e-308", "--t-max", "1"],
     "error: the Rabi period, pi / g, overflows for g=1e-308; give --steps\n"),
], ids=["evolve-g", "sweep-omega", "esd-omega", "sweep-t-max", "verify-omega", "verify-tiny-g",
        "sweep-closed-gt", "esd-closed-gt", "evolve-n-max", "evolve-tiny-g", "sweep-tiny-g",
        "esd-tiny-g", "evolve-tiny-g-t-max", "sweep-tiny-g-t-max", "esd-tiny-g-t-max"])
def test_overflowing_rates_or_phases_are_usage_errors(argv, message):
    # a fresh process, so that a numpy warning or a traceback would show on stderr
    assert _fresh_process(argv) == (1, "", message)


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--t-max", "-1"], "t-max must be positive, got -1.0"),
    (["evolve", "--tol", "0"], "tol must be positive, got 0.0"),
    (["esd", "--zero-tol", "-1"], "zero-tol must be >= 0, got -1.0"),
    (["evolve", "--g", "1e-308"], "two Rabi periods, 2 pi / g, overflow for g=1e-308; raise g"),
    (["sweep", "--g", "1e-308", "--t-max", "1"],
     "the Rabi period, pi / g, overflows for g=1e-308; give --steps"),
    (["evolve", "--config", "{conf}"], "{conf}:1: expected 'key = value', got 'alpha 0.3'"),
], ids=["t-max", "tol", "zero-tol", "two-periods", "period", "config-line"])
def test_settings_refusals_in_process(tmp_path, capsys, argv, message):
    conf = tmp_path / "bad.conf"
    conf.write_text("alpha 0.3\n")
    assert run(*[arg.format(conf=conf) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(conf=conf)}\n")


def test_closed_route_takes_every_time_whose_half_phase_and_gt_are_finite(tmp_path):
    # the evolution routes' bound, 2 (5/2 + 5 + 1) t = 2.55e308, does not apply to the closed form
    out = tmp_path / "closed.csv"
    assert run("sweep", "--engine", "closed", "--t-max", "1.5e307", "--alpha-points", "1",
               "--steps", "3", "--output", str(out)) == 0
    rows = read_csv(out)
    ts = np.linspace(0.0, 1.5e307, 4)
    values = GridEngine("closed", "phi", PARAMS).values([0.0], ts)
    assert [float(row["t"]) for row in rows] == np.repeat(ts, 6).tolist()
    assert [float(row["C"]) for row in rows] == values.concurrence.reshape(-1).tolist()


def test_n_max_is_checked_and_changes_no_byte(tmp_path):
    # --n-max reaches no route: at --n-max 2 the evolution routes' rate is
    # still 17, so t = 1e307 computes (a cutoff of 2 in the rate, 27.8, would
    # overflow), with the bytes of --n-max 1
    tables = []
    for n_max in ("1", "2"):
        out = tmp_path / f"sweep{n_max}.csv"
        assert run("sweep", "--t-max", "1e307", "--steps", "3", "--n-max", n_max, "--output", str(out)) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_a_huge_n_max_takes_the_memory_and_the_bytes_of_n_max_1(tmp_path):
    # a cutoff that reached the site matrix would ask for (2e9 + 2)^2 entries;
    # the request after a warm-up peaks at 27 KB (tracemalloc sees numpy's data)
    argv = ["evolve", "--engine", "numeric", "--steps", "8"]
    assert run(*argv, "--n-max", "1", "--output", str(tmp_path / "one.csv")) == 0
    tracemalloc.start()
    try:
        assert run(*argv, "--n-max", "1000000000", "--output", str(tmp_path / "huge.csv")) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000
    assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_evolve_time_grid_does_not_overflow_where_no_time_does(tmp_path):
    # t-max * steps = 1e309 overflows, though every time is finite: the grid is
    # that of t-max / 1024, scaled by the exact 1024; where t-max * steps is
    # finite, each time is t-max * i / steps as before
    def times(t_max, steps):
        out = tmp_path / "evolve.csv"
        assert run("evolve", "--t-max", repr(t_max), "--steps", str(steps), "--output", str(out)) == 0
        return [float(row["t"]) for row in read_csv(out)]

    huge = times(1e306, 1000)
    assert huge == [1024.0 * t for t in times(1e306 / 1024.0, 1000)]
    assert huge[-1] == 1e306 and all(math.isfinite(t) for t in huge)
    assert times(3.7, 1000) == (3.7 * np.arange(1001) / 1000).tolist()


def test_min_width_is_no_setting(tmp_path, capsys):
    # every zero run is classified by the sign of Q, so no width threshold is taken
    assert run("esd", "--min-width", "1e-05", "--steps", "2") == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --min-width 1e-05\n"
    conf = tmp_path / "esd.conf"
    conf.write_text("min_width = 1e-05\n")
    assert run("esd", "--config", str(conf), "--steps", "2") == 1
    assert capsys.readouterr().err == f"error: {conf}:1: unknown key 'min_width' for command 'esd'\n"


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("argv", [["esd"], ["esd", "--g", "1e-308", "--t-max", "1", "--steps", "8"]],
                         ids=["defaults", "tiny-g"])
def test_esd_report_is_strict_json(capsys, argv):
    # json.dumps writes inf and NaN as Infinity and NaN, which JSON has not
    assert run(*argv) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert "min_width" not in report


def test_esd_needs_two_steps(capsys):
    assert run("esd", "--steps", "1") == 1
    assert capsys.readouterr().err == "error: steps must be >= 2 for esd\n"


def test_default_steps_are_at_least_the_commands_least(tmp_path, capsys):
    # 512 steps per Rabi period round to none over t-max = 1 at g = 1e-3:
    # evolve takes one step (two rows), esd its least, two
    out = tmp_path / "evolve.csv"
    assert run("evolve", "--g", "1e-3", "--t-max", "1", "--output", str(out)) == 0
    assert len(read_csv(out)) == 2
    runs = []
    for steps in ([], ["--steps", "2"]):
        assert run("esd", "--g", "1e-3", "--t-max", "1", *steps) == 0
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]


def test_sweep_has_no_angle_setting(tmp_path, capsys):
    assert run("sweep", "--alpha-deg", "10", "--steps", "2") == 1
    assert "unrecognized arguments: --alpha-deg" in capsys.readouterr().err
    conf = tmp_path / "sweep.conf"
    conf.write_text("alpha_deg = 10\n")
    assert run("sweep", "--config", str(conf)) == 1
    assert "unknown key 'alpha_deg'" in capsys.readouterr().err


def test_alpha_deg_conversion(tmp_path):
    out_deg, out_rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
    assert run("evolve", "--alpha-deg", "45", "--steps", "2", "--t-max", "1.0",
               "--output", str(out_deg)) == 0
    assert run("evolve", "--alpha", str(math.pi / 4), "--steps", "2", "--t-max", "1.0",
               "--output", str(out_rad)) == 0
    assert out_deg.read_bytes() == out_rad.read_bytes()


def test_stdout_output(capsys):
    assert run("evolve", "--steps", "2", "--t-max", "1.0") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == EVOLVE_HEADER
    assert len(out.splitlines()) == 4


# Reference for the table writer: the row-at-a-time formatter it replaced,
# one f"{v:.17g}" per CSV cell and json.dumps over row lists.
def reference_csv(columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else f"{float(cell):.17g}" for cell in row))
    return "\n".join(lines) + "\n"


def reference_json(columns, rows):
    def cell(v):
        if isinstance(v, str):
            return v
        f = float(v)
        return None if math.isnan(f) else f

    payload = {"columns": list(columns), "rows": [[cell(v) for v in row] for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


REFERENCE = {"csv": reference_csv, "json": reference_json}


def assert_same_lines(actual, expected):
    # compared as line lists: equal bytes, and a failure names the first
    # differing line instead of diffing two long texts
    if isinstance(actual, bytes):
        actual = actual.decode()
    assert actual.splitlines(keepends=True) == expected.splitlines(keepends=True)
PARAMS = JCParams(omega0=5.0, omega=5.0, g=1.0)


def reference_sweep(fmt, engine, pair, alpha_grid, t_grid, params=PARAMS, family="phi"):
    name = "analytic" if engine == "both" else engine
    pairs = [pair] if pair else list(PAIR_LABELS)
    values = GridEngine(name, family, params).values(alpha_grid, t_grid, pairs)
    rabi = params.rabi(1)
    rows = []
    for ia, alpha in enumerate(alpha_grid.tolist()):
        for it, t in enumerate(t_grid.tolist()):
            for ip, label in enumerate(pairs):
                c = float(values.concurrence[ia, it, ip])
                rows.append([alpha, t, rabi * t, label, c, float(values.q[ia, it, ip]),
                             "true" if c <= 1e-12 else "false"])
    return REFERENCE[fmt](["alpha", "t", "Gt", "pair", "C", "Q", "is_zero"], rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("pair", [None, "Ab"])
# the closed form repeats pair columns bit for bit: phi's in two slots of
# six (C and Q), psi's in one
@pytest.mark.parametrize("engine, family", [(engine, family) for family in ("phi", "psi")
                                            for engine in ("closed", "analytic", "both")],
                         ids=["closed", "analytic", "both", "closed-psi", "analytic-psi", "both-psi"])
def test_sweep_bytes_match_row_formatter(tmp_path, monkeypatch, engine, family, pair, fmt):
    # 10 C and Q values per block are fewer than the 12 of a 6-slot group: one group per block
    monkeypatch.setattr(tablefmt, "VALUE_BLOCK", 10)
    out = tmp_path / "sweep.out"
    argv = ["sweep", "--family", family, "--engine", engine, "--alpha-min", "-0.4",
            "--alpha-max", str(math.pi - 0.3), "--alpha-points", "4", "--steps", "8",
            "--t-max", str(math.pi), "--format", fmt, "--output", str(out)]
    if pair:
        argv += ["--pair", pair]
    assert run(*argv) == 0
    expected = reference_sweep(fmt, engine, pair, np.linspace(-0.4, math.pi - 0.3, 4),
                               np.linspace(0.0, math.pi, 9), family=family)
    assert_same_lines(out.read_bytes(), expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("alpha_points, steps, pair", [(1, 8, None), (4, 1, None), (3, 6, "Ab")])
def test_sweep_grid_edges_match_row_formatter(tmp_path, monkeypatch, fmt, alpha_points, steps,
                                              pair):
    # 10 C and Q values per block: one 6-pair group per block, or five
    # one-pair groups with a short last block (21 rows)
    monkeypatch.setattr(tablefmt, "VALUE_BLOCK", 10)
    out = tmp_path / "sweep.out"
    argv = ["sweep", "--family", "phi", "--engine", "closed", "--alpha-min", "0.3",
            "--alpha-max", "1.2", "--alpha-points", str(alpha_points), "--steps", str(steps),
            "--t-max", str(math.pi), "--format", fmt, "--output", str(out)]
    if pair:
        argv += ["--pair", pair]
    assert run(*argv) == 0
    expected = reference_sweep(fmt, "closed", pair, np.linspace(0.3, 1.2, alpha_points),
                               np.linspace(0.0, math.pi, steps + 1))
    assert_same_lines(out.read_bytes(), expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_detuned_sweep_bytes_match_row_formatter(tmp_path, fmt):
    # alpha = 0 and pi/2 leave engine noise (|C|, |Q| down to 1e-34, and
    # zeros) in the table: values the CSV formatter writes one at a time
    out = tmp_path / "sweep.out"
    assert run("sweep", "--family", "phi", "--engine", "both", "--n-max", "2", "--omega", "5.6",
               "--alpha-points", "5", "--steps", "16", "--t-max", str(2 * math.pi),
               "--format", fmt, "--output", str(out)) == 0
    expected = reference_sweep(fmt, "both", None, np.linspace(0.0, math.pi / 2, 5),
                               np.linspace(0.0, 2 * math.pi, 17),
                               JCParams(omega0=5.0, omega=5.6, g=1.0))
    assert_same_lines(out.read_bytes(), expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_both_bytes_match_row_formatter(tmp_path, fmt):
    out = tmp_path / "evolve.out"
    alpha, t_max, steps = 0.3927, 6.0, 40
    assert run("evolve", "--family", "phi", "--alpha", str(alpha), "--engine", "both",
               "--steps", str(steps), "--t-max", str(t_max), "--format", fmt,
               "--output", str(out)) == 0
    ts = [t_max * i / steps for i in range(steps + 1)]
    analytic, numeric = (GridEngine(name, "phi", PARAMS).values([alpha], ts)
                         for name in ("analytic", "numeric"))
    conc, q = analytic.concurrence[0], analytic.q[0]
    gaps = np.max(np.abs(conc - numeric.concurrence[0]), axis=1)
    q_cols = [PAIR_LABELS.index(pair) for pair in ("AB", "ab", "Aa", "Ab")]
    rows = [[t, PARAMS.rabi(1) * t, alpha] + conc[i].tolist() + q[i, q_cols].tolist() + [gaps[i]]
            for i, t in enumerate(ts)]
    columns = EVOLVE_HEADER.split(",") + ["max_engine_disagreement"]
    assert_same_lines(out.read_bytes(), REFERENCE[fmt](columns, rows))


EDGE_VALUES = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1.0 / 3.0, 0.1 + 0.2, -1.5e300,
               1e-5, -3.2e-9, 1e-17, 9.999999999999999e15, 1e16, -2.0**53]
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]  # another payload


def _runs(shape, *arrays):
    """The streamed columns of a table as ``table_chunks`` draws them: runs of 1, 2, 3, 1, ... groups."""
    groups = [np.reshape(array, (-1, shape[-1])) for array in arrays]
    cuts = np.cumsum(np.resize([1, 2, 3], len(groups[0])))
    return list(zip(*(np.split(column, cuts[cuts < len(column)]) for column in groups)))


def edge_table(case, fmt):
    """(columns, shape, (data, blocks), rows): a table for ``table_chunks`` and its rows for the reference.

    An int tiles the edge values that many times (one slot per value).  The
    3-D tables have pair-like slots: "repeated-slots" repeats slots bit for
    bit, as the closed form does; in "near-repeats" two slots differ only
    by the sign of a zero and two only by a NaN payload.
    """
    columns = ["key", "v", "label", "w"]
    if isinstance(case, int):
        values = np.tile(np.array(EDGE_VALUES), case)
        assert case == 1 or values.size > 2 * (tablefmt.VALUE_BLOCK // 2)  # rows of two floats
        shape = (case, len(EDGE_VALUES))
        data = [(tablefmt.number_cells(fmt, EDGE_VALUES), 1), None,
                (tablefmt.label_cells(fmt, ["x", "y", "z"]), None), None]
        blocks = _runs(shape, values, np.arange(values.size) % 3, values[::-1])
        rows = [[a, a, "xyz"[i % 3], d] for i, (a, d) in enumerate(zip(values.tolist(),
                                                                        values[::-1].tolist()))]
        return columns, shape, (data, blocks), rows
    rng = np.random.default_rng(17)
    shape = (3, 2, 6)
    v = rng.choice(np.array(EDGE_VALUES), shape) * rng.uniform(0.5, 2.0, shape)
    w = rng.uniform(-1.0, 1.0, shape)
    if case == "repeated-slots":  # slots 2, 3 and 4, 5 are one value twice in both columns
        v[..., 3], v[..., 5] = v[..., 2], v[..., 4]
        w[..., 3], w[..., 5] = w[..., 2], w[..., 4]
        assert tablefmt.distinct_slots([v.reshape(-1, 6), w.reshape(-1, 6)]) == ([0, 1, 2, 4],
                                                                              [0, 1, 2, 2, 3, 3])
    else:
        v[..., 1] = v[..., 0] = np.abs(v[..., 0])
        v[1, 0, 1] = 0.0
        v[1, 0, 0] = -0.0
        v[..., 2], v[..., 3] = math.nan, OTHER_NAN
        w[..., 1], w[..., 3] = w[..., 0], w[..., 2]
        assert tablefmt.distinct_slots([v.reshape(-1, 6), w.reshape(-1, 6)])[0] == list(range(6))
    labels = np.arange(v.size).reshape(shape) % 3
    data = [(tablefmt.number_cells(fmt, [0.5, 1.5, 2.5]), 0), None,
            (tablefmt.label_cells(fmt, ["x", "y", "z"]), None), None]
    rows = [[[0.5, 1.5, 2.5][i[0]], v[i], "xyz"[labels[i]], w[i]] for i in np.ndindex(shape)]
    return columns, shape, (data, _runs(shape, v, labels, w)), rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", [1, 456, "repeated-slots", "near-repeats"])
def test_table_writer_matches_row_formatter_on_edge_values(monkeypatch, fmt, case):
    # 456 copies make the table longer than two default blocks; every table
    # is also written in blocks of fewer rows than a group has slots, of one
    # group, and of a row count that is no multiple of the slot count (two
    # float columns: two values a row)
    columns, shape, data, rows = edge_table(case, fmt)
    expected = REFERENCE[fmt](columns, rows)
    for row_block in (tablefmt.VALUE_BLOCK // 2, shape[-1] - 1, shape[-1], 2 * shape[-1] + 1):
        monkeypatch.setattr(tablefmt, "VALUE_BLOCK", 2 * row_block)
        assert_same_lines(b"".join(tablefmt.table_chunks(fmt, columns, shape, *data)), expected)


@pytest.mark.parametrize("argv", [
    ["sweep", "--engine", "closed", "--alpha-points", "3", "--steps", "5", "--t-max", "2.0"],
    ["sweep", "--engine", "closed", "--alpha-points", "3", "--steps", "5", "--format", "json"],
    ["evolve", "--engine", "both", "--steps", "16", "--t-max", "2.0"],
])
def test_stdout_and_output_file_get_the_same_bytes(tmp_path, capsys, argv):
    out = tmp_path / "table.out"
    assert run(*argv, "--output", str(out)) == 0
    capsys.readouterr()
    assert run(*argv) == 0
    assert_same_lines(out.read_bytes(), capsys.readouterr().out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_of_several_blocks_has_the_same_bytes_on_the_stdout_descriptor(tmp_path, capfd, fmt):
    # the writer puts bytes on sys.stdout.buffer after flushing the text layer;
    # capfd reads what reached file descriptor 1
    argv = ["sweep", "--engine", "closed", "--alpha-points", "3", "--steps", "200", "--format", fmt]
    out = tmp_path / "table.out"
    assert run(*argv, "--output", str(out)) == 0
    assert 3 * 201 * len(PAIR_LABELS) * 2 > tablefmt.VALUE_BLOCK  # C and Q: more than one block
    print("before", end="|")
    assert run(*argv) == 0
    print("|after")
    captured = capfd.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == b"before|" + out.read_bytes() + b"|after\n"


@pytest.mark.parametrize("fmt, first", [("csv", b"alpha,t,Gt,pair,C,Q,is_zero\n"), ("json", b"{\n")])
def test_a_reader_that_stops_after_one_line_leaves_one_io_error_line(fmt, first):
    # stdout is a pipe whose reader closes after the first line: exit 2 and
    # one stderr line, with no "Exception ignored" report at interpreter exit
    proc = subprocess.Popen([sys.executable, "-m", "jcpairs", "sweep", "--engine", "closed",
                             "--alpha-points", "101", "--steps", "1024", "--format", fmt],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_env())
    try:
        line = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)  # one stderr line cannot fill its pipe
    finally:
        proc.kill()
    with proc.stderr:
        assert (code, line, proc.stderr.read()) == (2, first, b"I/O error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv, rows, calls", [
    # four blocks of up to 292 rows (14 float columns, 4,088 values): alpha
    # is a float column of the run, not a call of its own
    (["evolve", "--engine", "both"], 1025, 4),
    # two blocks, plus one call for the alpha, t and Gt cells together
    (["sweep", "--engine", "both", "--alpha-points", "3", "--steps", "200"], 3618, 3),
    # engine blocks of 4,010, 4,010 and 401 cells, each cut into its own
    # table blocks of at most 341 groups: 12 + 12 + 2, plus the axis call
    (["sweep", "--engine", "closed", "--alpha-points", "21", "--steps", "400"], 50526, 27),
])
def test_each_table_block_takes_one_formatter_call(tmp_path, monkeypatch, argv, rows, calls):
    made, g17_bytes = [], tablefmt.g17_bytes

    def counting(values, out=None):
        made.append(len(values))
        return g17_bytes(values, out=out)

    monkeypatch.setattr(tablefmt, "g17_bytes", counting)
    out = tmp_path / "table.csv"
    assert run(*argv, "--output", str(out)) == 0
    assert len(read_csv(out)) == rows
    assert len(made) == calls


def _source_env():
    """The environment with this source tree first on ``PYTHONPATH``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_process(argv):
    """(exit code, stdout, stderr) of ``python -m jcpairs argv`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "jcpairs", *argv], capture_output=True, text=True,
                          env=_source_env(), check=False)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("sequence", [
    [["esd", "--engine", "warp"], ["esd", "--alpha", "0.3927", "--steps", "16"]],
    [["esd", "--alpha-deg", "30", "--steps", "16"], ["esd", "--steps", "16"]],
    [["evolve", "--config", "{conf}", "--steps", "4"], ["evolve", "--steps", "4", "--t-max", "1.0"]],
], ids=["usage-error-then-esd", "alpha-deg-then-default-alpha", "config-then-flags"])
def test_requests_in_one_process_match_fresh_processes(tmp_path, capsys, sequence):
    conf = tmp_path / "run.conf"
    conf.write_text("alpha = 0.3\nt_max = 2.0\nfamily = psi\n")
    sequence = [[arg.format(conf=conf) for arg in argv] for argv in sequence]
    cli.main(["esd", "--steps", "2"])  # the process has built its parser before the sequence
    capsys.readouterr()
    built = cli._build_parser.cache_info().misses
    for argv in sequence:
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(argv)
    assert cli._build_parser.cache_info().misses == built


@pytest.mark.parametrize("argv, bound", [
    (["evolve", "--engine", "both", "--n-max", "4"], 1_000_000),
    (["sweep", "--engine", "both", "--alpha-points", "3", "--steps", "200"], 1_200_000),
])
def test_a_warm_repeat_allocates_no_working_memory(tmp_path, argv, bound):
    # block, table and formatter buffers stay in the thread's workspace: a
    # repeat allocates the results, the written chunks and small arrays
    # (tracemalloc sees numpy's data).  With a workspace per engine and new
    # table and formatter arrays per request these took 2.5 and 1.7 MB.
    argv = [*argv, "--output", str(tmp_path / "table.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("engine", ["closed", "both"])
def test_sweep_memory_does_not_grow_with_the_grid(tmp_path, engine):
    # engine blocks stream into the table writer: a 101 x 1025 table (621,150
    # rows) peaks 0.12-0.14 MB above an 11 x 201 one, for its grids, their
    # formatted cells and the closed form's per-t factors.  Whole C and Q
    # arrays would add 10 MB (closed) and 25 MB (both, with the gaps).
    def request(points, steps):
        return ["sweep", "--engine", engine, "--alpha-points", str(points), "--steps", str(steps),
                "--output", str(tmp_path / "table.csv")]

    for points, steps in ((11, 200), (101, 1024)):  # the thread's workspace at its size
        assert main(request(points, steps)) == 0
    peaks = []
    for points, steps in ((11, 200), (101, 1024)):
        tracemalloc.start()
        try:
            assert main(request(points, steps)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 300_000


class _PlantedGaps(GridEngine):
    """An engine whose C is 0.75 (analytic) or 0.25 (numeric) at ``CELLS``: a gap of 0.5 at each."""

    CELLS = ()

    def blocks(self, alphas, ts, pairs=PAIR_LABELS, **kwargs):
        blocks = super().blocks(alphas, ts, pairs, **kwargs)
        value = 0.75 if self.name == "analytic" else 0.25

        def planted():
            for a, t, conc, q in blocks:
                for ia, it, ip in self.CELLS:
                    if a.start <= ia < a.stop and t.start <= it < t.stop:
                        conc[ia - a.start, it - t.start, ip] = value
                yield a, t, conc, q

        return planted()


@pytest.mark.parametrize("cells", [(), ((1, 500, 2), (4, 20, 4)), ((4, 20, 4), (1, 500, 2), (1, 900, 1))],
                         ids=["round-off", "tie-across-blocks", "three-way-tie-listed-out-of-order"])
def test_engine_disagreement_names_the_whole_grid_argmax_cell(tmp_path, capsys, monkeypatch, cells):
    # 5 x 1025 cells stream as alpha rows 0-2 and 3-4: the planted cells of
    # a tie lie in both blocks, and the exit-3 message names the cell that
    # np.argmax over the whole grid's gaps names, the first in table order
    monkeypatch.setattr(_PlantedGaps, "CELLS", cells)
    monkeypatch.setattr(cli, "GridEngine", _PlantedGaps)
    argv = ["sweep", "--engine", "both", "--alpha-points", "5", "--steps", "1024", "--tol", "1e-300",
            "--output", str(tmp_path / "table.csv")]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    alpha_grid, t_grid = np.linspace(0.0, 0.5 * math.pi, 5), np.linspace(0.0, 2.0 * math.pi, 1025)
    analytic, numeric = (np.empty((5, 1025, 6)) for _ in range(2))
    for name, whole in (("analytic", analytic), ("numeric", numeric)):
        for a, t, conc, _ in _PlantedGaps(name, "phi", PARAMS).blocks(alpha_grid, t_grid):
            whole[a, t] = conc
    gap = np.abs(analytic - numeric)
    ia, it, ip = np.unravel_index(np.argmax(gap), gap.shape)
    if cells:
        assert (ia, it, ip) == (1, 500, 2)
    assert err == (f"engine disagreement {gap[ia, it, ip]:.3e} exceeds tolerance 1.000e-300 at alpha = "
                   f"{float(alpha_grid[ia])!r}, t = {float(t_grid[it])!r}, pair {PAIR_LABELS[ip]}\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("alpha_index, rows", [(0, 0), (3, 3075)], ids=["first-block", "second-block"])
def test_a_late_reader_refusal_exits_1_naming_its_cell_after_the_rows_before_it(
        tmp_path, capsys, monkeypatch, fmt, alpha_index, rows):
    # a faulty route: doubled amplitudes at one cell give a trace of 4.  Of
    # 5 x 1025 one-pair cells, alpha rows 0-2 are the first streamed block and
    # 3-4 the second; the table writes each streamed block, as blocks of at
    # most 2,048 rows, before it draws the next.  A refusal in the first
    # block leaves no byte; one in the second leaves every row of the first
    # (3 x 1025), and no closing of the table.
    argv = ["sweep", "--engine", "analytic", "--pair", "AB", "--alpha-points", "5", "--steps", "1024",
            "--format", fmt]
    assert run(*argv, "--output", str(tmp_path / "good.out")) == 0
    alpha_grid, t_grid = np.linspace(0.0, 0.5 * math.pi, 5), np.linspace(0.0, 2.0 * math.pi, 1025)
    real = engine_module.amplitudes

    def doubled(kind, alphas, block_ts, site_factors, *, work):
        amps = real(kind, alphas, block_ts, site_factors, work=work)
        amps[np.ix_(range(len(amps)), alphas == alpha_grid[alpha_index], block_ts == t_grid[7])] *= 2.0
        return amps

    monkeypatch.setattr(engine_module, "amplitudes", doubled)
    out = tmp_path / "faulty.out"
    assert run(*argv, "--output", str(out)) == 1
    assert capsys.readouterr() == ("", "error: invalid density matrix: trace deviates from 1 by 3.000e+00 "
                                       f"at cell ({alpha_index}, 7, 0)\n")
    good = (tmp_path / "good.out").read_bytes()
    if not rows:
        expected = b""
    elif fmt == "csv":  # the header and the rows before the refused block
        expected = b"".join(good.splitlines(keepends=True)[:1 + rows])
    else:  # the opening and those rows, through the last one's closing bracket
        expected = good[:[m.end() for m in re.finditer(rb"\n    \]", good)][rows - 1]]
    assert out.read_bytes() == expected


def test_a_warm_repeat_allocates_nothing_in_the_wide_product(tmp_path, monkeypatch):
    # numeric round-off below 2^-36 takes the three-word product; its rows
    # are the thread's workspace, so a repeat allocates no array there (the
    # largest call has 2,826 cells: fresh (6, n) columns alone would be 136 KB)
    argv = ["sweep", "--engine", "numeric", "--n-max", "2", "--alpha-points", "21", "--steps", "400",
            "--output", str(tmp_path / "table.csv")]
    assert main(argv) == 0
    cells, peaks, real = [], [], floatfmt._wide_product

    def measured(operands, wide, t):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real(operands, wide, t)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        cells.append(wide.size)

    monkeypatch.setattr(floatfmt, "_wide_product", measured)
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert max(cells) > 2000
    assert max(peaks) < 16_000


def test_requests_after_larger_ones_write_the_bytes_of_a_fresh_process(tmp_path):
    # each table's buffers are reused from longer and wider tables before it
    sequence = [
        ["sweep", "--engine", "closed", "--alpha-points", "101", "--steps", "1024"],
        ["evolve", "--engine", "both", "--n-max", "4", "--format", "json"],
        ["sweep", "--pair", "Ab"],
        ["evolve", "--steps", "1"],
        ["sweep", "--engine", "closed", "--family", "psi", "--alpha-points", "21", "--steps", "200"],
    ]
    for i, argv in enumerate(sequence):
        assert main([*argv, "--output", str(tmp_path / f"{i}.one")]) == 0
    for i, argv in enumerate(sequence):
        assert _fresh_process([*argv, "--output", str(tmp_path / f"{i}.fresh")]) == (0, "", "")
        assert (tmp_path / f"{i}.one").read_bytes() == (tmp_path / f"{i}.fresh").read_bytes(), argv


def test_detuned_closed_sweep_agrees_with_the_analytic_sweep(tmp_path):
    tables = {}
    for engine in ("closed", "analytic"):
        out = tmp_path / f"{engine}.csv"
        assert run("sweep", "--engine", engine, "--omega", "5.7", "--alpha-points", "21",
                   "--steps", "200", "--output", str(out)) == 0
        tables[engine] = read_csv(out)
    closed, analytic = tables["closed"], tables["analytic"]
    assert len(closed) == len(analytic) == 21 * 201 * len(PAIR_LABELS)
    for ours, theirs in zip(closed, analytic):
        assert [ours[key] for key in ("alpha", "t", "Gt", "pair")] == \
            [theirs[key] for key in ("alpha", "t", "Gt", "pair")]
        assert abs(float(ours["C"]) - float(theirs["C"])) <= 1e-12
        assert abs(float(ours["Q"]) - float(theirs["Q"])) <= 1e-12


def _command_flags(command):
    """The settings flags of one command's parser (not --help or --config)."""
    (commands,) = [action.choices for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for action in commands[command]._actions for flag in action.option_strings}
    return flags - {"-h", "--help", "--config"}


@pytest.mark.parametrize("command", ["evolve", "sweep", "esd", "verify"])
def test_flags_and_config_keys_are_the_same_set(tmp_path, capsys, command):
    every_key = {flag[2:].replace("-", "_") for other in ("evolve", "sweep", "esd", "verify")
                 for flag in _command_flags(other)}
    accepted = set()
    for key in every_key | set(cli._SETTINGS) | {"alfa"}:
        conf = tmp_path / f"{key}.conf"
        conf.write_text(f"{key} = ?\n")
        try:
            cli._read_config_file(conf, command)
        except cli.UsageError as exc:
            if "unknown key" in str(exc):
                continue
        accepted.add(key)
    flags = _command_flags(command)
    assert {"--" + key.replace("_", "-") for key in accepted} == flags
    # argparse formats the help strings only here
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert all(flag in text for flag in flags)


# Every setting of each command at a value other than its default; the
# other unit of the angle is left out, since a run takes one of the two.
_EVERY_SETTING = {
    "evolve": {"family": "psi", "alpha_deg": "20", "omega0": "4.5", "omega": "4.75", "g": "0.75",
               "n_max": "2", "t_max": "3.0", "steps": "6", "engine": "both", "tol": "1e-08",
               "format": "json"},
    "sweep": {"family": "psi", "omega0": "4.5", "omega": "4.75", "g": "0.75", "n_max": "2",
              "alpha_min": "0.25", "alpha_max": "1.0", "alpha_points": "3", "t_max": "2.0",
              "steps": "4", "engine": "numeric", "pair": "Ab", "tol": "1e-08",
              "zero_tol": "1e-10", "format": "json"},
    "esd": {"family": "psi", "alpha": "0.4", "omega0": "4.5", "omega": "4.75", "g": "0.75",
            "n_max": "2", "t_max": "3.0", "steps": "64", "engine": "numeric", "zero_tol": "1e-10"},
    "verify": {"omega0": "4.0", "omega": "4.0", "g": "0.8", "tol": "1e-08", "json": "true",
               "inject_fault": "true"},
}


@pytest.mark.parametrize("command", sorted(_EVERY_SETTING))
def test_config_file_and_flags_give_the_same_run(tmp_path, capsys, command):
    settings = _EVERY_SETTING[command]
    keys = {flag[2:].replace("-", "_") for flag in _command_flags(command)}
    assert keys - settings.keys() - {"output"} == \
        {"evolve": {"alpha"}, "esd": {"alpha_deg"}}.get(command, set())
    for key, value in settings.items():
        kind, default = cli._SETTINGS[key][:2]
        assert (value == "true" if kind is bool else kind(value)) != default, key
    runs = []
    for via in ("config", "flags"):
        out = tmp_path / f"{via}.out"
        if via == "config":
            conf = tmp_path / "run.conf"
            conf.write_text("".join(f"{key} = {value}\n" for key, value in settings.items())
                            + f"output = {out}\n")
            argv = ["--config", str(conf)]
        else:
            argv = [token for key, value in settings.items()
                    for token in ["--" + key.replace("_", "-")] + ([] if value == "true" else [value])]
            argv += ["--output", str(out)]
        code = main([command, *argv])
        runs.append((code, *capsys.readouterr(), out.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == (3 if command == "verify" else 0)  # verify's injected fault fails it
