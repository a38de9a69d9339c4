import csv
import json
import math

import pytest

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
    assert run("verify", "--inject-fault") == 3
    out = capsys.readouterr().out
    assert "FAIL engine_agreement" in out


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
