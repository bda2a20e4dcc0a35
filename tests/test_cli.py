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


@pytest.mark.parametrize("argv, reason", [
    (["classify", "--tau-grid", "nan:1:1"], "tau_grid must be finite"),
    (["classify", "--tau-grid", "1:inf:3"], "tau_grid must be finite"),
    (["sweep", "--tau-grid", "inf:inf:1"], "tau must be finite"),
    (["sweep", "--tau-grid", "nan:1:1"], "tau must be finite"),
    # endpoints of a grid of n >= 2 points are checked by the grid's name
    (["sweep", "--eps-grid", "nan:1e-3:5"], "eps_grid must be finite"),
    (["sweep", "--eps-grid", "1e-1:-inf:5"], "eps_grid must be finite"),
    (["sweep", "--tau-grid", "1:nan:4"], "tau_grid must be finite"),
    (["sweep", "--s-grid", "0.1:inf:3"], "s_grid must be finite"),
    (["sweep", "--eta-grid", "nan:0.1:2"], "eta_grid must be finite"),
])
def test_non_finite_tau_grid_is_rejected(tmp_path, capsys, argv, reason):
    out = tmp_path / "run"
    code = run_cli(*argv, "--builtin", "strict_nonminimax_demo", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_simulate_rejects_non_finite_tau(tmp_path, capsys, tau):
    out = tmp_path / "run"
    code = run_cli("simulate", "--builtin", "bilinear", "--method", "gda_tt", "--eta", "0.3",
                   "--tau", tau, "--n", "3", "--no-trajectories", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: tau must be finite, got {tau}\n"
    assert not (out / "simulate_summary.json").exists()


@pytest.mark.parametrize("grid, reason", [
    (["--s-grid", "5:6:2"], "s grid must lie in (0, 1/L) = (0, 0.381966)"),
    (["--tau-grid", "0.5:2:3"], "tau must be >= 1"),
    (["--eps-grid", "1e-1:1e-9:3"], "eps_grid must be a 1-d grid with at least 4 points"),
])
def test_sweep_writes_nothing_on_bad_grids(tmp_path, capsys, grid, reason):
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--builtin", "strict_nonminimax_demo", *grid, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


def reference_eigencurves_csv(curves):
    """eigencurves.csv as formatted element by element from numpy scalars."""
    lines = ["eps,j,re,im,label\n"]
    for j in range(curves.lam.shape[0]):
        for i, eps in enumerate(curves.eps):
            lam = curves.lam[j, i]
            lines.append(f"{float(eps)!r},{j},{float(lam.real)!r},"
                         f"{float(lam.imag)!r},{curves.labels[j]}\n")
    return "".join(lines)


def test_eigencurves_csv_matches_per_element_writer(tmp_path):
    from minimaxdyn import problems, spectral

    rng = np.random.default_rng(11)
    d1, d2 = 3, 3
    Q = np.linalg.qr(rng.standard_normal((d2, d2)))[0]
    A = rng.standard_normal((d1, d1))
    spec = {"kind": "quadratic", "A": (A + A.T).tolist(),
            "B": (Q[:, :2] @ np.diag([1.5, -0.7]) @ Q[:, :2].T).tolist(),
            "C": rng.standard_normal((d1, d2)).tolist()}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(spec))
    cases = [(["--problem", str(path)], problems.load_problem(path))]
    for name, extra in (("bilinear", []), ("strict_nonminimax_demo", []),
                        ("scalar_degenerate", ["--a", "-2", "--c", "1"])):
        params = dict(zip(("a", "c"), map(float, extra[1::2])))
        cases.append((["--builtin", name, *extra], problems.builtin_problem(name, **params)))
    for k, (args, problem) in enumerate(cases):
        for eps in (None, "1e-1:1e-7:9"):
            out = tmp_path / f"run{k}{eps is None}"
            grid = [] if eps is None else ["--eps-grid", eps]
            assert run_cli("sweep", *args, *grid, "--out", str(out)) == 0
            A, B, C = problems.hessian_blocks_at(problem, np.zeros(problem.dim))
            curves = spectral.eigencurves(
                np.block([[A, C], [-C.T, -B]]), problem.d1,
                eps_grid=None if eps is None else np.geomspace(1e-1, 1e-7, 9))
            assert (out / "eigencurves.csv").read_text() == reference_eigencurves_csv(curves)


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


SCIPY_OFF_START_UP = """
import os, sys
import numpy as np
import minimaxdyn.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
assert scipy_modules() == [], scipy_modules()
sim = ["simulate", "--builtin", "bilinear", "--n", "2", "--max-iters", "40"]
assert cli.main(sim + ["--method", "eg_tt", "--eta", "0.5", "--out", out + "/d"]) == 0
assert cli.main(sim + ["--method", "ode_eg_tt", "--s", "0.4", "--dt", "0.2",
                       "--out", out + "/o"]) == 0
assert os.path.isfile(out + "/d/traj_0001.csv") and os.path.isfile(out + "/o/traj_0001.csv")
assert scipy_modules() == [], scipy_modules()
from minimaxdyn import spectral
blocks = spectral.canonicalize([[2.0]], [[-1.0]], [[1.0]])
assert np.allclose(spectral.mu_roots_oracle(blocks), [3.0])
assert cli.main(["classify", "--builtin", "bilinear", "--out", out + "/c"]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_scipy_stays_off_the_start_up_path(tmp_path):
    result = subprocess.run([sys.executable, "-c", SCIPY_OFF_START_UP, str(tmp_path)],
                            capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr


def run_captured(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_fresh_parsers(tmp_path, monkeypatch, capsys):
    import minimaxdyn.cli as cli

    calls = [
        ["classify", "--builtin", "scalar_degenerate", "--a", "2", "--c", "1",
         "--tau-grid", "1:1e6:9", "--out", "c1"],
        ["simulate", "--builtin", "bilinear", "--method", "gda_tt", "--eta", "0.3",
         "--tau", "2", "--n", "3", "--seed", "5", "--max-iters", "30", "--out", "s1"],
        ["sweep", "--builtin", "bilinear", "--eps-grid", "0.5:1e-6:9",
         "--s-grid", "0.01:0.2:3", "--out", "w1"],
        ["simulate", "--builtin", "bilinear", "--method", "bogus"],
        ["--help"],
        ["simulate", "--builtin", "bilinear", "--eta", "0.5", "--max-iters", "20",
         "--out", "s2"],
        ["classify", "--builtin", "bilinear", "--out", "c2"],
        [],
        ["sweep", "--builtin", "strict_nonminimax_demo", "--out", "w2"],
        ["simulate", "--help"],
    ]
    reused, runs = cli._parser, {}
    for name, parser in (("reused", reused), ("fresh", cli.build_parser)):
        monkeypatch.setattr(cli, "_parser", parser)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        runs[name] = [run_captured(capsys, argv) for argv in calls]
        runs[name].append({str(p.relative_to(tmp_path / name)): p.read_bytes()
                           for p in sorted((tmp_path / name).rglob("*")) if p.is_file()})
    assert [r[0] for r in runs["reused"][:-1]] == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert len(runs["reused"][-1]) == 2 + 4 + 2 + 101 + 2  # reports, CSVs, summaries
    assert runs["reused"] == runs["fresh"]
    assert reused() is reused()
    assert cli.build_parser() is not cli.build_parser()


def per_member_run_members(problem, config, record):
    """simulate's members one at a time, each a single run_discrete or integrate."""
    from minimaxdyn import cli, dynamics

    options = dict(tol_conv=config.tol_conv, diverge_norm=config.diverge_norm)
    for z0 in cli._sample_inits(config, problem.dim):
        if config.method in dynamics.DISCRETE_METHODS:
            params = dynamics.MethodParams(method=config.method, eta=config.eta, tau=config.tau)
            yield dynamics.run_discrete(problem, z0, params, max_iters=config.max_iters,
                                        record=record, **options)
        else:
            dt = 1e-2 if config.dt is None else config.dt  # simulate's default step
            yield dynamics.integrate(problem, dynamics.FIELD_KINDS[config.method], z0,
                                     s=config.s, tau=config.tau, dt=dt,
                                     t_end=dt * config.max_iters, **options)


SIMULATE_ENSEMBLES = {  # members stop at different steps, several in each block
    "gda_bil": ["--builtin", "bilinear", "--method", "gda_tt", "--eta", "0.5", "--tau", "3",
                "--diverge-norm", "3"],
    "eg_bil": ["--builtin", "bilinear", "--method", "eg_tt", "--eta", "0.5", "--tau", "10",
               "--tol-conv", "0.3"],
    "eg_snm": ["--builtin", "strict_nonminimax_demo", "--method", "eg_tt", "--eta", "0.2",
               "--tau", "4", "--diverge-norm", "30"],
    "gda_sd": ["--builtin", "scalar_degenerate", "--a", "2", "--c", "1", "--method", "gda_tt",
               "--eta", "0.2", "--tol-conv", "0.05"],
    "plain_sd": ["--builtin", "scalar_degenerate", "--a", "2", "--c", "1", "--method",
                 "ode_plain", "--dt", "0.05", "--tol-conv", "0.05"],
    "egtt_bil": ["--builtin", "bilinear", "--method", "ode_eg_tt", "--s", "0.4", "--tau", "10",
                 "--dt", "0.2", "--tol-conv", "0.5"],
    "egtt_snm": ["--builtin", "strict_nonminimax_demo", "--method", "ode_eg_tt", "--s", "0.2",
                 "--tau", "4", "--diverge-norm", "30", "--dt", "0.2"],
    "eg_sd": ["--builtin", "scalar_degenerate", "--a", "2", "--c", "1", "--method", "ode_eg",
              "--s", "0.3", "--max-iters", "400", "--tol-conv", "0.3"],  # default dt
}


@pytest.mark.parametrize("csv", [True, False])
@pytest.mark.parametrize("name", SIMULATE_ENSEMBLES)
def test_simulate_blocks_match_per_member_runs(tmp_path, monkeypatch, name, csv):
    import minimaxdyn.cli as cli
    from minimaxdyn import dynamics

    argv = ["simulate", "--n", "12", "--seed", "4", "--box", "2", "--max-iters", "150",
            "--tol-conv", "1e-3", *SIMULATE_ENSEMBLES[name]]
    argv += [] if csv else ["--no-trajectories"]
    runs = {}
    # the default buffer (one block), a small one (blocks of a few members
    # and short chunks), and the per-member reference
    for label, buffer in (("one_block", None), ("blocks", 2000), ("reference", None)):
        if buffer:
            monkeypatch.setattr(dynamics, "LOCKSTEP_BUFFER", buffer)
        if label == "reference":
            monkeypatch.setattr(cli, "_run_members", per_member_run_members)
        out = tmp_path / label
        assert main(argv + ["--out", str(out)]) == 0
        runs[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        monkeypatch.undo()
    assert len(runs["reference"]) == (13 if csv else 1)
    assert runs["one_block"] == runs["reference"]
    assert runs["blocks"] == runs["reference"]
