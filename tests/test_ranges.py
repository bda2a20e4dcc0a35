"""Every scalar run parameter has one row in dynamics.RANGES, checked where it enters.

Each row is probed with NaN, the value just outside its range, its boundary
(accepted where the range is closed) and inf, once through the library entry
point that takes it and once through its CLI flag.
"""

import argparse
import dataclasses
import inspect
import itertools
import math
import re

import numpy as np
import pytest

from minimaxdyn import cli, dynamics
from minimaxdyn.cli import build_parser, main
from minimaxdyn.dynamics import (
    RANGES,
    MethodParams,
    find_stationary,
    integrate,
    ode_field,
    run_batch,
    run_discrete,
)
from minimaxdyn.problems import builtin_problem
from minimaxdyn.spectral import timescaled_hessian
from minimaxdyn.stability import (
    characterize_equilibrium,
    in_disk,
    in_peanut,
    infinity_eg_verdict,
    verdict_table,
)

BILINEAR = builtin_problem("bilinear")


def simulate(flag, method="gda_tt"):
    """A small simulate run on bilinear whose last option is flag."""
    args = {"--method": method, "--eta": "0.3", "--n": "2", "--max-iters": "20"}
    args.pop(flag, None)
    return ["simulate", "--builtin", "bilinear", *itertools.chain(*args.items()),
            "--no-trajectories", flag]


def config(command, **kw):
    """The config of an ensemble run of command on bilinear, its flags at their defaults but kw."""
    args = vars(build_parser().parse_args([command, "--builtin", "bilinear"]))
    return cli._config(argparse.Namespace(**{**args, **kw}), BILINEAR)


def characterize(**kw):
    return characterize_equilibrium(BILINEAR, [0.0, 0.0], **kw)


def batch(**kw):
    return run_batch(BILINEAR, [[0.5, 0.5]], MethodParams(method="gda_tt", eta=0.3),
                     **{"max_iters": 20, **kw})


# row: (boundary, boundary accepted, inf accepted, library entry, CLI argv or None);
# the CLI argv ends with the row's flag, which is given its value as --flag=value
ROWS = {
    "tau": (1.0, True, False, lambda v: MethodParams(method="gda_tt", eta=0.3, tau=v),
            simulate("--tau")),
    "dt": (0.0, False, False, lambda v: MethodParams(method="ode_plain", dt=v),
           simulate("--dt", method="ode_plain")),
    "box": (0.0, False, False, lambda v: config("simulate", box=v), simulate("--box")),
    "cluster_tol": (0.0, False, False, lambda v: config("simulate", cluster_tol=v),
                    simulate("--cluster-tol")),
    "target_tol": (0.0, False, False, lambda v: config("avoidance", target_tol=v),
                   ["avoidance", "--builtin", "strict_nonminimax_demo", "--n", "5",
                    "--target-tol"]),
    "tol_conv": (0.0, True, False, lambda v: batch(tol_conv=v), simulate("--tol-conv")),
    "stationarity_tol": (0.0, True, False, lambda v: characterize(stationarity_tol=v), None),
    "s": (0.0, False, False, lambda v: in_disk(-0.5, v), None),
    "eta": (0.0, False, False, lambda v: in_peanut(0.5, v), None),
    "t_end": (0.0, True, False, lambda v: integrate(BILINEAR, "plain", [0.5, 0.5], t_end=v),
              None),
    "diverge_norm": (0.0, False, True, lambda v: batch(diverge_norm=v),
                     simulate("--diverge-norm")),
    "max_iters": (0, True, None, lambda v: batch(max_iters=v), simulate("--max-iters")),
    "newton_tol": (0.0, True, False, lambda v: find_stationary(BILINEAR, [0.3, 0.1],
                                                               newton_tol=v), None),
    "newton_max": (0, True, None, lambda v: find_stationary(BILINEAR, [0.0, 0.0],
                                                            newton_max=v), None),
    "n": (0, True, None, lambda v: config("simulate", n=v), simulate("--n")),
    "seed": (0, True, None, lambda v: config("simulate", seed=v), simulate("--seed")),
}


def probes():
    """(row, value, accepted) for NaN, just outside, the boundary and inf; counts
    (inf accepted None) are probed at the boundary, one below it, at a numpy
    integer and at a fraction.  Every row is probed at a bool, which no row
    takes although True compares as 1."""
    for name, (bound, closed, inf_ok, _, _) in ROWS.items():
        yield name, True, False
        if inf_ok is None:
            yield name, bound - 1, False
            yield name, bound, closed
            yield name, np.int64(bound + 2), True
            yield name, 2.5, False
            continue
        yield name, math.nan, False
        yield name, float(np.nextafter(bound, -math.inf)), False
        yield name, bound, closed
        yield name, math.inf, inf_ok


PROBES = list(probes())
# argparse's type=int or type=float lets only plain ints or floats reach the table
CLI_PROBES = [(name, value, ok) for name, value, ok in PROBES if ROWS[name][4] is not None
              and type(value) is (int if ROWS[name][2] is None else float)]


def ids(probes):
    return [f"{name}={value!r}" for name, value, _ in probes]


def test_every_row_is_probed():
    assert ROWS.keys() == RANGES.keys()


@pytest.mark.parametrize("name, value, accepted", PROBES, ids=ids(PROBES))
def test_library_entry_checks_the_row(name, value, accepted):
    enter = ROWS[name][3]
    if accepted:
        enter(value)
    else:
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(RANGES[name][1])}, "
                                             f"got {re.escape(str(value))}$"):
            enter(value)


@pytest.mark.parametrize("name, value, accepted", CLI_PROBES, ids=ids(CLI_PROBES))
def test_cli_flag_checks_the_row(tmp_path, capsys, name, value, accepted):
    out = tmp_path / "run"
    code = main(ROWS[name][4][:-1] + [f"{ROWS[name][4][-1]}={value!r}", "--out", str(out)])
    err = capsys.readouterr().err
    if accepted:
        assert (code, err) == (0, "")
    else:
        assert code == 1
        assert err == f"error: {name} must be {RANGES[name][1]}, got {value!r}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["avoidance", "--builtin", "strict_nonminimax_demo", "--n", "50", "--diverge-norm=-1"],
     "diverge_norm must be > 0, got -1.0"),
    (["avoidance", "--builtin", "strict_nonminimax_demo", "--n", "5", "--tau=0.5"],
     "tau must be finite and >= 1, got 0.5"),
    (["avoidance", "--builtin", "strict_nonminimax_demo", "--n", "5", "--tol-conv=nan"],
     "tol_conv must be finite and >= 0, got nan"),
    (["simulate", "--builtin", "bilinear", "--method", "eg_tt", "--eta", "0.5", "--n=-2"],
     "n must be an integer >= 0, got -2"),
])
def test_other_entry_points_check_the_table(tmp_path, capsys, argv, reason):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("method, name", [("gda_tt", "eta"), ("eg_tt", "eta"),
                                          ("ode_eg", "s"), ("ode_eg_tt", "s")])
@pytest.mark.parametrize("step", [math.nan, 0.0, 1.0, None])  # 1/L = 1 on bilinear
def test_step_rule_is_one_rule(method, name, step):
    params = MethodParams(method=method, **{name: step})
    with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1/L\) = \(0, 1\), got "):
        run_batch(BILINEAR, [[0.5, 0.5]], params)


@pytest.mark.parametrize("method, name", [("gda_tt", "eta"), ("ode_eg", "s")])
def test_step_rule_refuses_a_bool(method, name):
    problem = builtin_problem("scalar_degenerate", a=0.5, c=0.5)  # L < 1: True lies in (0, 1/L)
    params = MethodParams(method=method, **{name: True})
    with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1/L\) = .*, got True$"):
        run_batch(problem, [[0.5, 0.5]], params)


H_BILINEAR = BILINEAR.quadratic.hessian()
# each takes a tau, alone or inside a grid that is increasing where that is asked
TAU_ENTRIES = {
    "MethodParams": lambda tau: MethodParams(method="gda_tt", eta=0.3, tau=tau),
    "timescaled_hessian": lambda tau: timescaled_hessian(H_BILINEAR, tau, 1),
    "timescaled_hessian grid": lambda tau: timescaled_hessian(H_BILINEAR, [1.0, tau], 1),
    "verdict_table": lambda tau: verdict_table(H_BILINEAR, 1, [("gda", 0.3)], [2.0, tau]),
    "infinity_eg_verdict": lambda tau: infinity_eg_verdict(H_BILINEAR, 1, 0.3, "gda",
                                                           tau_grid=[tau, 2.0]),
    "characterize_equilibrium": lambda tau: characterize(tau_grid=[tau, 2.0]),
}


@pytest.mark.parametrize("tau", [0.5, math.nan, True, np.True_])
@pytest.mark.parametrize("entry", TAU_ENTRIES)
def test_tau_rule_is_one_rule(entry, tau):
    """tau >= 1 and finite, a scalar or each entry of a grid, is decided by the
    tau row of dynamics.RANGES wherever it enters; a bool, which would read as
    1, is refused before any conversion to float."""
    with pytest.raises(ValueError, match=f"^tau must be finite and >= 1, got {tau}$"):
        TAU_ENTRIES[entry](tau)


def test_a_bool_array_is_no_tau_grid():
    for grid in (np.array([True, True]), np.array([2.0, 3.0]) > 0):
        with pytest.raises(ValueError, match="^tau must be finite and >= 1, got True$"):
            timescaled_hessian(H_BILINEAR, grid, 1)


def test_a_tau_grid_names_its_first_entry_outside():
    for grid, first in (([2.0, 0.5, math.nan], "0.5"), ([1.0, math.inf, 0.0], "inf"),
                        (np.array(0.25), "0.25")):
        with pytest.raises(ValueError, match=f"^tau must be finite and >= 1, got {first}$"):
            dynamics.check_ranges(tau=np.asarray(grid))
    dynamics.check_ranges(tau=np.array([]))
    dynamics.check_ranges(tau=np.array([1.0, 1e300]))


SCALAR = builtin_problem("scalar_degenerate", a=0.5, c=0.5)  # L < 1
H_SCALAR = SCALAR.quadratic.hessian()
# each refuses a continuous step s or a discrete step eta outside (0, 1/L)
STEP_ENTRIES = {
    "verdict_table": lambda mode, name, v: verdict_table(H_SCALAR, 1, [(mode, v)], [1.0]),
    "verdict_table, empty grid": lambda mode, name, v: verdict_table(H_SCALAR, 1, [(mode, v)], []),
    "infinity_eg_verdict": lambda mode, name, v: infinity_eg_verdict(H_SCALAR, 1, v, mode),
    "characterize_equilibrium": lambda mode, name, v: characterize_equilibrium(
        SCALAR, [0.0, 0.0], **{name: v}),
}


@pytest.mark.parametrize("mode, name", [("continuous", "s"), ("discrete", "eta")])
@pytest.mark.parametrize("step", [1.0 / SCALAR.lipschitz_bound, math.nan, 0.0, True],
                         ids=["1/L", "nan", "0", "True"])
@pytest.mark.parametrize("entry", STEP_ENTRIES)
def test_step_rule_is_one_rule_for_the_verdicts(entry, mode, name, step):
    """The verdicts of the two EG modes take the step rule of the runs,
    dynamics.check_step against L = ||H||_2, with its message."""
    with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1/L\) = \(0, 1.23607\), "
                                         rf"got {re.escape(str(step))}$"):
        STEP_ENTRIES[entry](mode, name, step)


def numeric(annotation) -> bool:
    return re.search(r"\b(float|int)\b", str(annotation)) is not None


def numeric_flags(command):
    """The dests of command's numeric flags but the problem's own (--a, --c)."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.type in (int, float)} - {"a", "c"}


def test_every_numeric_run_parameter_has_a_row():
    """A numeric parameter added without a range fails here; where a run takes
    eta and s, the step rule dynamics.check_step checks them against 1/L."""
    names = {f.name for f in dataclasses.fields(MethodParams) if numeric(f.type)}
    for fn in (characterize_equilibrium, run_batch, run_discrete, integrate, ode_field,
               find_stationary):
        names |= {p.name for p in inspect.signature(fn).parameters.values()
                  if numeric(p.annotation)}
    names |= numeric_flags("simulate") | numeric_flags("avoidance")
    assert {"tol_conv", "max_iters", "diverge_norm", "n", "stationarity_tol", "tau", "box",
            "seed", "cluster_tol", "target_tol", "newton_tol", "newton_max"} <= names
    assert names <= RANGES.keys()


@pytest.mark.parametrize("name, value", [("newton_tol", math.nan), ("newton_tol", -1.0),
                                         ("newton_tol", math.inf), ("newton_max", -3)])
def test_find_stationary_checks_its_settings_before_any_grad_call(name, value):
    points = []
    p = dataclasses.replace(BILINEAR, grad=lambda z: points.append(z) or BILINEAR.grad(z))
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$"):
        find_stationary(p, [0.3, 0.1], **{name: value})
    assert points == []


def test_none_passes_only_where_it_means_the_default():
    dynamics.check_ranges(dt=None)
    for name in set(RANGES) - dynamics.OPTIONAL:
        with pytest.raises(ValueError, match=f"^{name} must be .*, got None$"):
            dynamics.check_ranges(**{name: None})
