import json
import os
import subprocess
import sys

import numpy as np
import pytest

import minimaxdyn
from minimaxdyn.cli import main

# child processes import the same package as this one, installed or not
SRC = os.path.dirname(os.path.dirname(minimaxdyn.__file__))
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_classify_bilinear(tmp_path):
    out = tmp_path / "run"
    code = run_cli("classify", "--builtin", "bilinear", "--s", "0.4", "--eta", "0.5",
                   "--out", str(out))
    assert code == 0
    report = read_json(out / "classify_report.json")
    assert report["strict_non_minimax"] is False
    assert report["second_order"] == {"B_nsd": True, "Sres_psd": True}
    verdicts = {v["method"]: v for v in report["verdicts"]}
    assert verdicts["gda"]["stable"] == "unstable"
    assert verdicts["continuous"]["stable"] == "stable"
    assert verdicts["discrete"]["stable"] == "stable"
    assert report["mismatches"] == []


def test_classify_scalar_degenerate(tmp_path):
    out = tmp_path / "run"
    code = run_cli("classify", "--builtin", "scalar_degenerate", "--a", "2", "--c", "1",
                   "--out", str(out))
    assert code == 0
    report = read_json(out / "classify_report.json")
    assert report["s0"] == pytest.approx(-1.0, abs=1e-3)
    assert {v["stable"] for v in report["verdicts"]} == {"stable"}


def test_classify_nonstationary_without_search(tmp_path):
    code = run_cli("classify", "--builtin", "bilinear", "--z0", "1,1",
                   "--out", str(tmp_path))
    assert code == 1


def test_classify_nonstationary_with_search(tmp_path):
    code = run_cli("classify", "--builtin", "bilinear", "--z0", "0.4,-0.3", "--search",
                   "--out", str(tmp_path))
    assert code == 0
    report = read_json(tmp_path / "classify_report.json")
    assert np.max(np.abs(report["point"])) <= 1e-8


def test_simulate_eg_converges(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--builtin", "bilinear", "--method", "eg_tt",
                   "--eta", "0.5", "--tau", "10", "--n", "25", "--seed", "7",
                   "--max-iters", "100000", "--tol-conv", "1e-8", "--out", str(out))
    assert code == 0
    summary = read_json(out / "simulate_summary.json")
    assert summary["fraction_converged"] == 1.0
    assert len(summary["clusters"]) == 1
    assert np.max(np.abs(summary["clusters"][0]["center"])) <= 1e-6
    # one trajectory CSV per ensemble member, by default
    assert len(list(out.glob("traj_*.csv"))) == 25
    header = (out / "traj_0000.csv").read_text().splitlines()[0]
    assert header == "step,t,z_0,z_1,F_norm"


def test_simulate_gda_diverges(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--builtin", "bilinear", "--method", "gda_tt",
                   "--eta", "0.5", "--tau", "10", "--n", "10", "--seed", "7",
                   "--max-iters", "100000", "--no-trajectories", "--out", str(out))
    assert code == 0
    summary = read_json(out / "simulate_summary.json")
    assert summary["fraction_converged"] == 0.0
    assert summary["fraction_diverged"] == 1.0


@pytest.mark.parametrize("method", ["gda_tt", "ode_plain"])
def test_simulate_counts_nonfinite_members(tmp_path, method):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--builtin", "bilinear", "--method", method, "--eta", "0.5",
                   "--center", "nan,0", "--n", "3", "--max-iters", "50",
                   "--no-trajectories", "--out", str(out))
    assert code == 0
    summary = read_json(out / "simulate_summary.json")
    assert summary["fraction_nonfinite"] == 1.0
    assert summary["fraction_max_iters"] == 0.0
    assert summary["clusters"] == []


def test_simulate_empty_ensemble(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--builtin", "bilinear", "--method", "eg_tt",
                   "--eta", "0.5", "--n", "0", "--out", str(out))
    assert code == 0
    summary = read_json(out / "simulate_summary.json")
    assert summary["n"] == 0
    assert summary["clusters"] == []


def test_simulate_deterministic(tmp_path):
    args = ("simulate", "--builtin", "bilinear", "--method", "eg_tt", "--eta", "0.5",
            "--tau", "10", "--n", "8", "--seed", "3", "--tol-conv", "1e-8",
            "--max-iters", "100000", "--no-trajectories")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    s1 = (out1 / "simulate_summary.json").read_bytes()
    s2 = (out2 / "simulate_summary.json").read_bytes()
    assert s1 == s2


def test_avoidance_strict_nonminimax(tmp_path):
    out = tmp_path / "avoid"
    code = run_cli("avoidance", "--builtin", "strict_nonminimax_demo",
                   "--method", "eg_tt", "--n", "60", "--seed", "3", "--out", str(out))
    assert code == 0
    summary = read_json(out / "avoidance_summary.json")
    assert summary["fraction_to_target"] == 0.0
    assert summary["acceptance_threshold"] == pytest.approx(1.0 / 60)
    assert summary["n_nonfinite"] == 0


def test_avoidance_gda_on_degenerate_minimax(tmp_path):
    out = tmp_path / "avoid"
    code = run_cli("avoidance", "--builtin", "bilinear", "--method", "gda_tt",
                   "--n", "40", "--seed", "5", "--out", str(out))
    assert code == 0
    summary = read_json(out / "avoidance_summary.json")
    assert summary["fraction_to_target"] == 0.0


def test_avoidance_refuses_stable_target(tmp_path):
    code = run_cli("avoidance", "--builtin", "bilinear", "--method", "eg_tt",
                   "--n", "5", "--out", str(tmp_path))
    assert code == 1


def test_avoidance_refuses_gda_on_nondegenerate(tmp_path):
    code = run_cli("avoidance", "--builtin", "nondegenerate_quadratic",
                   "--method", "gda_tt", "--n", "5", "--out", str(tmp_path))
    assert code == 1  # usage error: builtin requires A, B, C via --problem file


def test_avoidance_refuses_gda_without_hemicurvature_witness(tmp_path):
    # iota = 1 exceeds eta/2 for every admissible eta: not in the avoided class
    code = run_cli("avoidance", "--builtin", "scalar_degenerate", "--a", "2",
                   "--c", "1", "--method", "gda_tt", "--n", "5", "--out", str(tmp_path))
    assert code == 1


def test_sweep_bilinear_curves(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--builtin", "bilinear", "--s", "0.4", "--eta", "0.5",
                   "--out", str(out))
    assert code == 0
    lines = (out / "eigencurves.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,j,re,im,label"
    rows = [ln.split(",") for ln in lines[1:]]
    assert {r[4] for r in rows} == {"sqrt_eps_pair"}
    for r in rows:
        eps, mod = float(r[0]), abs(complex(float(r[2]), float(r[3])))
        assert abs(mod - np.sqrt(eps)) <= 1e-12
    verdict_lines = (out / "verdicts.csv").read_text().strip().splitlines()
    assert verdict_lines[0] == "mode,param,tau,stable"
    gda_rows = [ln for ln in verdict_lines[1:] if ln.startswith("gda")]
    assert gda_rows and all(ln.endswith("unstable") for ln in gda_rows)


def test_sweep_step_size_grid(tmp_path):
    # iota = -1 so continuous tau-EG needs s > s0 = 1 > 1/L: every s fails,
    # while the nondegenerate problem below is stable for the whole grid
    out = tmp_path / "neg"
    code = run_cli("sweep", "--builtin", "scalar_degenerate", "--a", "-2", "--c", "1",
                   "--s-grid", "0.05:0.4:4", "--tau-grid", "1:1e6:7", "--out", str(out))
    assert code == 0
    lines = (out / "verdicts.csv").read_text().strip().splitlines()[1:]
    cont = [ln.split(",") for ln in lines if ln.startswith("continuous")]
    tau_max = max(float(r[2]) for r in cont)
    assert all(r[3] == "unstable" for r in cont if float(r[2]) == tau_max)

    out2 = tmp_path / "pos"
    code = run_cli("sweep", "--builtin", "nondegenerate_quadratic",
                   "--problem", "", "--out", str(out2))
    assert code == 1  # nondegenerate_quadratic needs a problem file

    spec = {"kind": "quadratic", "A": [[2.0]], "B": [[-1.0]], "C": [[1.0]]}
    path = tmp_path / "prob.json"
    import json as _json

    path.write_text(_json.dumps(spec))
    code = run_cli("sweep", "--problem", str(path), "--s-grid", "0.05:0.3:3",
                   "--tau-grid", "1:1e6:7", "--out", str(out2))
    assert code == 0
    lines = (out2 / "verdicts.csv").read_text().strip().splitlines()[1:]
    cont = [ln.split(",") for ln in lines if ln.startswith("continuous")]
    assert all(r[3] == "stable" for r in cont)


def test_sweep_rejects_step_grid_beyond_lipschitz(tmp_path):
    code = run_cli("sweep", "--builtin", "bilinear", "--s-grid", "0.5:2.0:3",
                   "--out", str(tmp_path))
    assert code == 1


def test_sweep_empty_grid(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--builtin", "bilinear", "--eps-grid", "1e-1:1e-9:0",
                   "--tau-grid", "1:10:0", "--out", str(out))
    assert code == 0
    assert (out / "eigencurves.csv").read_text() == "eps,j,re,im,label\n"
    assert (out / "verdicts.csv").read_text() == "mode,param,tau,stable\n"


@pytest.mark.parametrize("grid, reason", [
    ("1:10:0", "tau_grid must be a non-empty 1-d grid"),
    ("1e6:1:9", "tau_grid must be increasing with tau >= 1"),
    ("0.5:10:5", "tau_grid must be increasing with tau >= 1"),
])
def test_classify_rejects_bad_tau_grid(tmp_path, capsys, grid, reason):
    code = run_cli("classify", "--builtin", "bilinear", "--tau-grid", grid,
                   "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {reason}")


def test_problem_file_round_trip(tmp_path):
    spec = {"kind": "quadratic", "A": [[2.0]], "B": [[-1.0]], "C": [[1.0]]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    code = run_cli("classify", "--problem", str(path), "--out", str(out))
    assert code == 0
    report = read_json(out / "classify_report.json")
    assert report["spec_Sres"] == [pytest.approx(3.0)]


def test_unknown_builtin_exits_one(tmp_path):
    assert run_cli("classify", "--builtin", "nope", "--out", str(tmp_path)) == 1


def test_missing_problem_source_exits_one(tmp_path):
    assert run_cli("classify", "--out", str(tmp_path)) == 1


def test_no_command_prints_help():
    assert main([]) == 1


def test_console_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "minimaxdyn.cli", "classify", "--builtin", "bilinear",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert "strict_non_minimax = False" in result.stdout
    assert "RuntimeWarning" not in result.stderr  # runpy: cli imported by the package


def test_package_import_is_lazy():
    code = ("import sys, minimaxdyn; assert 'minimaxdyn.cli' not in sys.modules; "
            "minimaxdyn.dynamics; assert 'minimaxdyn.dynamics' in sys.modules")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
