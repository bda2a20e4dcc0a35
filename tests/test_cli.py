import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minimaxdyn
from minimaxdyn import cli, problems, stability
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


CLI_PROBLEMS = [  # one JSON form per builtin, and a quadratic file
    {"kind": "builtin", "name": name} for name in problems.BUILTIN_NAMES] + [
    {"kind": "quadratic", "A": [[-0.4]], "B": [[0.9, 0.1], [0.1, 0.0]], "C": [[1.3, -2.1]]},
]


@pytest.mark.parametrize("data", CLI_PROBLEMS, ids=lambda d: d.get("name", d["kind"]))
def test_every_cli_problem_is_stationary_at_the_origin(data):
    """classify, avoidance and sweep work at the origin with no target to resolve."""
    p = problems.problem_from_json_dict(data)
    assert p.quadratic is not None and np.array_equal(
        problems.saddle_gradient(p, np.zeros(p.dim)), np.zeros(p.dim)), (
        "the CLI works at the origin: a problem kind that is not a quadratic form "
        "F(z) = Hz has to bring back target resolution (a point option and a Newton search)")


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
    # F = (a x + y, -x) overflows at every start in the box, |a x| > 1e308,
    # and divergence is off, so each member ends nonfinite at its start
    out = tmp_path / "sim"
    code = run_cli("simulate", "--builtin", "scalar_degenerate", "--a", "1e200",
                   "--box", "1e200", "--diverge-norm", "inf", "--method", method,
                   "--eta", "1e-201", "--n", "3", "--max-iters", "50", "--no-trajectories",
                   "--out", str(out))
    assert code == 0
    summary = read_json(out / "simulate_summary.json")
    assert summary["fraction_nonfinite"] == 1.0
    assert summary["fraction_max_iters"] == 0.0
    assert summary["clusters"] == []


@pytest.mark.parametrize("run", [["--method", "gda_tt", "--eta", "0.5"],
                                 ["--method", "ode_plain", "--dt", "10"]])
@pytest.mark.parametrize("flags, fraction", [(["--diverge-norm", "inf"], "fraction_nonfinite"),
                                             ([], "fraction_diverged")])
def test_diverge_norm_inf_means_never(tmp_path, run, flags, fraction):
    """Members whose norm grows until it overflows end nonfinite under --diverge-norm inf,
    and diverged under the default 1e8."""
    out = tmp_path / "sim"
    code = run_cli("simulate", "--builtin", "bilinear", *run, *flags, "--max-iters", "20000",
                   "--n", "3", "--no-trajectories", "--out", str(out))
    assert code == 0
    summary = read_json(out / "simulate_summary.json")
    assert summary[fraction] == 1.0


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


@pytest.mark.parametrize("extra, reason", [
    (["--n", "0"], "n must be >= 1, got 0"),
    (["--n", "-3"], "n must be >= 1, got -3"),
    (["--n", "20", "--target-tol", "nan"], "target_tol must be finite and > 0, got nan"),
    (["--n", "20", "--target-tol", "0"], "target_tol must be finite and > 0, got 0.0"),
])
def test_avoidance_refuses_runs_that_test_no_member(tmp_path, capsys, monkeypatch, extra, reason):
    def classify(*args):
        raise AssertionError("classification ran")

    monkeypatch.setattr(stability, "characterize_equilibrium", classify)
    out = tmp_path / "run"
    code = run_cli("avoidance", "--builtin", "strict_nonminimax_demo", *extra, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("eta", ["0.3", "-0.1", "nan"])
def test_avoidance_refuses_eg_steps_beyond_the_golden_bound(tmp_path, capsys, monkeypatch, eta):
    """eg_tt avoidance needs 0 < eta < (sqrt(5) - 1)/(2L), checked before classification."""
    def classify(*args, **kw):
        raise AssertionError("classification ran")

    monkeypatch.setattr(stability, "characterize_equilibrium", classify)
    out = tmp_path / "run"
    code = run_cli("avoidance", "--builtin", "strict_nonminimax_demo", "--method", "eg_tt",
                   "--eta", eta, "--n", "5", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: eg_tt avoidance requires 0 < eta < (sqrt(5)-1)/(2L) = 0.236068\n")
    assert not out.exists()


def test_avoidance_counts_hits_and_nonfinite_members(tmp_path, monkeypatch):
    """A member started on the target converges there at once and is a hit; a NaN
    start is nonfinite and no hit; the third member leaves the unstable point."""
    inits = np.array([[0.0] * 4, [np.nan] * 4, [0.5, -0.5, 0.25, 1.0]])
    monkeypatch.setattr(cli, "_sample_inits", lambda config, dim: inits)
    out = tmp_path / "avoid"
    code = run_cli("avoidance", "--builtin", "strict_nonminimax_demo", "--n", "3",
                   "--max-iters", "300", "--out", str(out))
    assert code == 0
    summary = read_json(out / "avoidance_summary.json")
    assert summary["fraction_to_target"] == pytest.approx(1.0 / 3)
    assert (summary["n_nonfinite"], summary["n_diverged"]) == (1, 1)


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize("grid, reason", [
    ("1:10", "grid must look like lo:hi:n, got '1:10'"),
    ("1:10:2.5", "grid must look like lo:hi:n, got '1:10:2.5'"),
    ("1:10:-2", "grid length must be nonnegative"),
    ("0:10:3", "geometric grid needs positive endpoints"),
    ("1:-10:3", "geometric grid needs positive endpoints"),
])
def test_grid_text_is_parsed_before_any_rule(tmp_path, capsys, command, grid, reason):
    out = tmp_path / "run"
    code = run_cli(command, "--builtin", "bilinear", "--tau-grid", grid, "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


def test_avoidance_refuses_gda_on_nondegenerate(tmp_path, capsys):
    # B = [[-1]] has full rank: no degenerate direction for gda_tt to be trapped along
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"kind": "quadratic", "A": [[2.0]], "B": [[-1.0]], "C": [[1.0]]}))
    out = tmp_path / "run"
    code = run_cli("avoidance", "--problem", str(path), "--method", "gda_tt", "--n", "5",
                   "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: gda_tt avoidance target must satisfy the second-order necessary condition "
        "with degenerate B and some hemicurvature below eta/2\n")
    assert not out.exists()


def test_avoidance_refuses_gda_without_hemicurvature_witness(tmp_path):
    # iota = 1 exceeds eta/2 for every admissible eta: not in the avoided class
    code = run_cli("avoidance", "--builtin", "scalar_degenerate", "--a", "2",
                   "--c", "1", "--method", "gda_tt", "--n", "5", "--out", str(tmp_path))
    assert code == 1


def repeated_sigma_problem(tmp_path, seed):
    """A = sym(normal 4x4), B = 0 (2x2), C = 1.5 Q[:, :2]: sigma = (1.5, 1.5)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    path = tmp_path / f"repeated_{seed}.json"
    path.write_text(json.dumps({"kind": "quadratic", "A": ((M + M.T) / 2).tolist(),
                                "B": np.zeros((2, 2)).tolist(), "C": (1.5 * Q[:, :2]).tolist()}))
    return str(path)


def test_avoidance_gda_judges_repeated_sigma_per_curve(tmp_path, capsys):
    # seed 3: the pairs' hemicurvatures are -0.260 and 0.383; the pair below
    # eta/2 = 0.05 makes the target a GDA witness
    out = tmp_path / "avoid"
    problem = repeated_sigma_problem(tmp_path, 3)
    assert run_cli("classify", "--problem", problem, "--eta", "0.1", "--out", str(out)) == 0
    report = read_json(out / "classify_report.json")
    assert report["predictions"]["gda"] == "unstable"
    assert np.allclose(report["iota"], [-0.2602, 0.3826], atol=1e-4)
    code = run_cli("avoidance", "--problem", problem, "--method", "gda_tt", "--eta", "0.1",
                   "--n", "20", "--out", str(out))
    assert code == 0
    assert read_json(out / "avoidance_summary.json")["fraction_to_target"] == 0.0
    # seeds 5 and 7 fail the necessary condition (S_res is not PSD)
    for seed in (5, 7):
        capsys.readouterr()
        code = run_cli("avoidance", "--problem", repeated_sigma_problem(tmp_path, seed),
                       "--method", "gda_tt", "--eta", "0.1", "--n", "20", "--out", str(out))
        assert code == 1
        assert "some hemicurvature below eta/2" in capsys.readouterr().err


def flag_names(command):
    """The dests of command's flags."""
    return vars(cli.build_parser().parse_args([command])).keys() - {"command"}


SUMMARIES = {  # command: (argv, output file, its top-level keys)
    "simulate": (["--method", "gda_tt", "--eta", "0.1", "--n", "3", "--max-iters", "20",
                  "--no-trajectories"], "simulate_summary.json",
                 {"config", "n", "fraction_converged", "fraction_diverged", "fraction_max_iters",
                  "fraction_nonfinite", "clusters", "schema"}),
    "avoidance": (["--method", "gda_tt", "--eta", "0.1", "--n", "3", "--max-iters", "20"],
                  "avoidance_summary.json",
                  {"config", "target", "eta", "tau", "tau_star", "n", "fraction_to_target",
                   "acceptance_threshold", "n_diverged", "n_nonfinite", "schema"}),
    "classify": ([], "classify_report.json",
                 {"point", "F_norm", "L", "r", "w", "spec_Sres", "spec_negB", "sigma", "iota",
                  "s0", "second_order", "strict_non_minimax", "s", "eta", "distinct_sigma",
                  "u_S_u", "thm_infty_continuous", "thm_infty_discrete",
                  "stable_for_all_steps", "predictions", "verdicts", "mismatches", "schema"}),
}


@pytest.mark.parametrize("command", SUMMARIES)
def test_summary_keys_are_pinned(tmp_path, command):
    """An ensemble run's config holds exactly its command's flags, less --out
    and with the problem flags folded into problem: a renamed flag fails here."""
    argv, name, keys = SUMMARIES[command]
    problem = repeated_sigma_problem(tmp_path, 3)
    out = tmp_path / "run"
    assert run_cli(command, "--problem", problem, *argv, "--out", str(out)) == 0
    summary = read_json(out / name)
    assert summary.keys() == keys
    assert summary["schema"] == 2
    if "config" in summary:
        assert summary["config"].keys() == flag_names(command) - {"out", "builtin", "a", "c"}


@pytest.mark.parametrize("source", [["--problem", "FILE"], ["--builtin", "bilinear"],
                                    ["--builtin", "scalar_degenerate", "--a", "-2", "--c", "3"]])
def test_config_problem_rebuilds_the_run_problem(tmp_path, source):
    from minimaxdyn import problems

    file = repeated_sigma_problem(tmp_path, 3)
    source = [file if a == "FILE" else a for a in source]
    out = tmp_path / "run"
    assert run_cli("simulate", *source, "--method", "ode_plain", "--n", "1", "--max-iters", "2",
                   "--no-trajectories", "--out", str(out)) == 0
    config = read_json(out / "simulate_summary.json")["config"]
    rebuilt = problems.problem_from_json_dict(config["problem"])
    run_problem = cli._load_problem_from_args(cli.build_parser().parse_args(["simulate", *source]))
    assert np.array_equal(rebuilt.quadratic.hessian(), run_problem.quadratic.hessian())


@pytest.mark.parametrize("argv, reason", [
    (["simulate", "--center", "1"], "center must have 2 components, got 1"),
    (["simulate", "--center", "1,2,3"], "center must have 2 components, got 3"),
    (["simulate", "--center", "nan,0"], "center must be finite, got nan,0"),
    (["simulate", "--center", "inf,0"], "center must be finite, got inf,0"),
    (["simulate", "--center", "1,a"], "center must be comma-separated numbers, got 1,a"),
])
def test_points_are_checked_by_dim_and_finiteness(tmp_path, capsys, argv, reason):
    out = tmp_path / "run"
    code = run_cli(*argv, "--builtin", "bilinear", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


def test_simulate_samples_around_a_valid_center(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--builtin", "bilinear", "--method", "gda_tt", "--eta", "0.1",
                   "--center", "0.5,-0.25", "--box", "0.1", "--n", "4", "--max-iters", "2",
                   "--out", str(out)) == 0
    assert read_json(out / "simulate_summary.json")["config"]["center"] == [0.5, -0.25]
    for i in range(4):
        z0 = np.array((out / f"traj_{i:04d}.csv").read_text().splitlines()[1].split(",")[2:4],
                      dtype=float)
        assert np.all(np.abs(z0 - [0.5, -0.25]) <= 0.1)


def test_classify_exits_two_on_a_prediction_mismatch(tmp_path, capsys, monkeypatch):
    # every decisive prediction turned round: each contradicts its observed verdict
    monkeypatch.setattr(stability, "_predict",
                        lambda lhs, rhs: "unstable" if lhs > rhs else "stable")
    out = tmp_path / "run"
    assert run_cli("classify", "--builtin", "bilinear", "--out", str(out)) == 2
    mismatches = read_json(out / "classify_report.json")["mismatches"]
    assert mismatches and capsys.readouterr().err == "".join(
        f"mismatch: {m}\n" for m in mismatches)


def test_avoidance_exits_two_when_the_sweep_disagrees(tmp_path, capsys, monkeypatch):
    # no terminal run is long enough to decide: every observed verdict is inconclusive
    monkeypatch.setattr(stability, "K_TAIL", 10**6)
    out = tmp_path / "run"
    code = run_cli("avoidance", "--builtin", "strict_nonminimax_demo", "--method", "eg_tt",
                   "--n", "5", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        "theory predicts an unstable terminal run but the sweep says 'inconclusive'\n")
    assert not out.exists()


def test_criterion_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    # a continuous Jacobian of the wrong sign: the dual criterion trips at tau = 1
    monkeypatch.setattr(stability, "_mismatch_count", stability.mismatch_count())
    row = stability.MODES["continuous"]
    monkeypatch.setitem(stability.MODES, "continuous", dataclasses.replace(
        row, jacobian=lambda Ht, s: -row.jacobian(Ht, s)))
    before = stability.mismatch_count()
    assert run_cli("classify", "--builtin", "bilinear", "--out", str(tmp_path / "run")) == 2
    assert stability.mismatch_count() == before + 1
    assert capsys.readouterr().err == (
        "criterion mismatch: continuous verdict (s=0.5, tau=1.0): region criterion says "
        "stable, Jacobian criterion says unstable\n")


def test_avoidance_refuses_gda_inside_the_prediction_guard_band(tmp_path, capsys):
    # at eta = 2 iota the gda prediction is indeterminate, so the target is refused
    problem = problems.builtin_problem("scalar_degenerate", a=0.2, c=1.0)
    eta = -2.0 * stability.characterize_equilibrium(problem, np.zeros(2)).s0
    rep = stability.characterize_equilibrium(problem, np.zeros(2), eta=eta)
    assert rep.predictions["gda"] == "indeterminate"
    out = tmp_path / "run"
    code = run_cli("avoidance", "--builtin", "scalar_degenerate", "--a", "0.2", "--c", "1",
                   "--method", "gda_tt", "--eta", repr(eta), "--n", "5", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: gda_tt avoidance target must satisfy the second-order necessary condition "
        "with degenerate B and some hemicurvature below eta/2\n")
    assert not out.exists()


BAD_PROBLEMS = [  # (problem file, named reason)
    ({"kind": "quadratic", "A": [[1.0]], "B": [[0.0]]}, "a quadratic problem needs the key 'C'"),
    ([{"kind": "quadratic"}], "a problem must be a JSON object, got list"),
    ({"kind": "quadratic", "A": [["1"]], "B": [[0.0]], "C": [[1.0]]},
     'A must hold finite JSON numbers only, got "1"'),
    ({"kind": "quadratic", "A": [[True]], "B": [[0.0]], "C": [[1.0]]},
     "A must hold finite JSON numbers only, got true"),
    ({"kind": "builtin", "name": "scalar_degenerate", "a": "2"},
     'a must hold finite JSON numbers only, got "2"'),
    ({"kind": "builtin", "name": "scalar_degenerate", "a": 10**400},
     f"a must hold finite JSON numbers only, got {10**400}"),
    ({"kind": "quadratic", "A": [[1.0]], "B": [[math.nan]], "C": [[1.0]]},
     "B must hold finite JSON numbers only, got NaN"),
    ({"kind": "quadratic", "A": [[1e308]], "B": [[0.0]], "C": [[1e308]]},
     "H must be finite, but A or B overflows when symmetrized"),
    ({"kind": "quadratic", "A": [[8e307, 8e307], [8e307, 8e307]], "B": [[8e307]],
      "C": [[8e307], [8e307]]}, "lipschitz_bound must be finite and > 0, got inf"),
    ({"kind": "quadratic", "A": [[1.0]], "B": [[0.0]], "C": [[1.0]], "tau": 3},
     "unused parameters for 'quadratic': ['tau']"),
]


@pytest.mark.parametrize("command", ["classify", "simulate", "avoidance", "sweep"])
@pytest.mark.parametrize("data, reason", BAD_PROBLEMS, ids=range(len(BAD_PROBLEMS)))
def test_problem_files_are_checked_at_the_boundary(tmp_path, capsys, command, data, reason):
    # a RuntimeWarning would fail this test as an error (see pyproject.toml)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert run_cli(command, "--problem", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


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
    spec = {"kind": "quadratic", "A": [[2.0]], "B": [[-1.0]], "C": [[1.0]]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    code = run_cli("sweep", "--problem", str(path), "--s-grid", "0.05:0.3:3",
                   "--tau-grid", "1:1e6:7", "--out", str(out2))
    assert code == 0
    lines = (out2 / "verdicts.csv").read_text().strip().splitlines()[1:]
    cont = [ln.split(",") for ln in lines if ln.startswith("continuous")]
    assert all(r[3] == "stable" for r in cont)


def test_sweep_rejects_step_grid_beyond_lipschitz(tmp_path, capsys):
    # the grid is 0.5, 1.0, 2.0 and 1/L = 1: verdict_table refuses s = 1/L itself
    code = run_cli("sweep", "--builtin", "bilinear", "--s-grid", "0.5:2.0:3",
                   "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == "error: s must lie in (0, 1/L) = (0, 1), got 1.0\n"


def test_sweep_empty_grid(tmp_path, monkeypatch):
    """Empty files, and each verdict row of the empty tau grid reads inconclusive with no tau*."""
    tables = []
    table = stability.verdict_table
    monkeypatch.setattr(stability, "verdict_table",
                        lambda *a: tables.append(table(*a)) or tables[-1])
    out = tmp_path / "sweep"
    code = run_cli("sweep", "--builtin", "bilinear", "--eps-grid", "1e-1:1e-9:0",
                   "--tau-grid", "1:10:0", "--out", str(out))
    assert code == 0
    assert (out / "eigencurves.csv").read_text() == "eps,j,re,im,label\n"
    assert (out / "verdicts.csv").read_text() == "mode,param,tau,stable\n"
    (rows,) = tables
    assert [(v.mode, v.verdict, v.tau_star, v.labels, v.tau_grid.shape) for v in rows] == [
        (mode, "inconclusive", None, [], (0,)) for mode in stability.MODES]


@pytest.mark.parametrize("grid, reason", [
    ("1:10:0", "tau_grid must be a non-empty 1-d grid"),
    ("1e6:1:9", "tau_grid must be increasing"),
])
def test_classify_rejects_bad_tau_grid(tmp_path, capsys, grid, reason):
    code = run_cli("classify", "--builtin", "bilinear", "--tau-grid", grid,
                   "--out", str(tmp_path))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {reason}")


@pytest.mark.parametrize("command", ["classify", "sweep"])
def test_tau_grid_below_one_reads_the_tau_row(tmp_path, capsys, command):
    """classify and sweep name the first tau below 1 with dynamics.RANGES' wording."""
    out = tmp_path / "run"
    code = run_cli(command, "--builtin", "bilinear", "--tau-grid", "0.5:10:5", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == "error: tau must be finite and >= 1, got 0.5\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["classify", "--tau-grid", "nan:1:1"], "tau_grid must be finite"),
    (["classify", "--tau-grid", "1:inf:3"], "tau_grid must be finite"),
    # the endpoints of a grid of any length are checked by the grid's name
    (["sweep", "--tau-grid", "inf:inf:1"], "tau_grid must be finite"),
    (["sweep", "--tau-grid", "nan:1:1"], "tau_grid must be finite"),
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
    assert capsys.readouterr().err == f"error: tau must be finite and >= 1, got {tau}\n"
    assert not out.exists()


@pytest.mark.parametrize("box", ["nan", "inf", "-1", "0"])
def test_simulate_rejects_bad_box_before_writing(tmp_path, capsys, box):
    out = tmp_path / "run"
    code = run_cli("simulate", "--builtin", "bilinear", "--method", "gda_tt", "--eta", "0.3",
                   "--box", box, "--n", "3", "--out", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: box must be finite and > 0, got {float(box)}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid, reason", [
    (["--s-grid", "5:6:2"], "s must lie in (0, 1/L) = (0, 0.381966), got 5.0"),
    (["--tau-grid", "0.5:2:3"], "tau must be finite and >= 1, got 0.5"),
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
demo = ["--builtin", "strict_nonminimax_demo"]
assert cli.main(["classify", "--builtin", "bilinear", "--out", out + "/c"]) == 0
assert cli.main(["sweep", *demo, "--out", out + "/w"]) == 0
assert cli.main(["avoidance", *demo, "--method", "eg_tt", "--n", "20", "--out", out + "/a"]) == 0
from minimaxdyn import problems, spectral, stability
report = stability.characterize_equilibrium(problems.builtin_problem("bilinear"), np.zeros(2))
assert report.curves.counts() == (2, 0, 0), report.curves.counts()
assert scipy_modules() == [], scipy_modules()
blocks = spectral.canonicalize([[2.0]], [[-1.0]], [[1.0]])
assert np.allclose(spectral.mu_roots_oracle(blocks), [3.0])
assert "scipy.linalg" in sys.modules
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

    options = dict(tol_conv=config["tol_conv"], diverge_norm=config["diverge_norm"])
    method, tau, max_iters = config["method"], config["tau"], config["max_iters"]
    for z0 in cli._sample_inits(config, problem.dim):
        if method in dynamics.DISCRETE_METHODS:
            params = dynamics.MethodParams(method=method, eta=config["eta"], tau=tau)
            yield dynamics.run_discrete(problem, z0, params, max_iters=max_iters,
                                        record=record, **options)
        else:
            dt = 1e-2 if config["dt"] is None else config["dt"]  # simulate's default step
            yield dynamics.integrate(problem, method.removeprefix("ode_"), z0,
                                     s=config["s"], tau=tau, dt=dt,
                                     t_end=dt * max_iters, **options)


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


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script, extra", [
    ("avoidance_experiment.py", ["--n", "2"]),
    ("bilinear_phenomena.py", ["--n", "2"]),
    ("eigencurve_sweep.py", []),
])
def test_scripts_run(tmp_path, script, extra):
    result = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *extra,
                             "--out", str(tmp_path / "out")],
                            capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert result.returncode == 0, result.stderr


def test_output_digest_check_names_each_template_that_differs(tmp_path):
    digest = [sys.executable, os.path.join(SCRIPTS, "output_digest.py"), "--seeds", "0",
              "--workload", "ensemble_ode"]

    def run(*extra):
        return subprocess.run(digest + list(extra), capture_output=True, text=True,
                              env=CHILD_ENV, timeout=120)
    first = run()
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    n, key = len(lines), lines[0].split()[1]
    before = tmp_path / "before.txt"
    before.write_text(first.stdout)
    same = run("--check", str(before))
    assert (same.returncode, same.stdout) == (0, f"{n} of {n} template digests match {before}\n")
    before.write_text("\n".join([f"{'0' * 64}  {key}", *lines[1:],
                                 f"{'0' * 64}  ensemble_ode/gone"]) + "\n")
    changed = run("--check", str(before))
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [
        f"differs: {key}", f"only in {before}: ensemble_ode/gone",
        f"{n - 1} of {n} template digests match {before}"]


def test_output_digest_skips_fields_outside_equality(monkeypatch):
    """A compare=False field (an intermediate result) is no output: adding or
    changing one leaves the digest alone."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts perfbench/ first
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(SCRIPTS, "output_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    @dataclasses.dataclass
    class Result:
        value: float
        detail: list = dataclasses.field(compare=False)

    def digest(obj):
        h = hashlib.sha256()
        module.feed(h, obj)
        return h.hexdigest()
    assert digest(Result(1.0, [1])) == digest(Result(1.0, ["other"])) != digest(Result(2.0, [1]))
