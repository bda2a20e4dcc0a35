"""Command-line front end.

Subcommands:

    classify   second-order + spectral classification of the equilibrium,
               with predicted and empirically swept stability verdicts
    simulate   trajectory ensembles from random initializations
    avoidance  measure-zero avoidance experiment around the unstable equilibrium
    sweep      eigenvalue curves over eps = 1/tau plus per-tau verdicts

Every problem the CLI loads is a quadratic form F(z) = Hz, so its one
equilibrium is the origin (classification refuses a singular H).

Exit codes: 0 ok, 1 usage/input error, 2 theory mismatch (a predicted
verdict contradicted by observation, or a dual-criterion self-test trip).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import dynamics, problems, spectral, stability
from .dynamics import MethodParams
from .problems import MinimaxProblem, builtin_problem, load_problem
from .stability import CriterionMismatchError

GOLDEN_STEP_FACTOR = (math.sqrt(5.0) - 1.0) / 2.0  # eta < this / L for EG avoidance


def _parse_grid(args, name: str, default=None):
    """The grid option args.<name>, 'lo:hi:n', as a geometric grid (empty for
    n = 0); default when the option is unset."""
    text = getattr(args, name)
    if not text:
        return default
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ValueError(f"grid must look like lo:hi:n, got {text!r}") from exc
    if n < 0:
        raise ValueError("grid length must be nonnegative")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    if lo <= 0 or hi <= 0:
        raise ValueError("geometric grid needs positive endpoints")
    return np.geomspace(lo, hi, n)


def _parse_point(text: str, dim: int, name: str) -> np.ndarray:
    """The comma-separated point of option name: dim finite floats."""
    z = np.array([float(v) for v in text.split(",")])
    if z.shape != (dim,):
        raise ValueError(f"{name} must have {dim} components, got {z.size}")
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite, got {text}")
    return z


def _load_problem_from_args(args) -> MinimaxProblem:
    if getattr(args, "problem", None):
        return load_problem(args.problem)
    if getattr(args, "builtin", None):
        params = {k: getattr(args, k) for k in ("a", "c") if getattr(args, k) is not None}
        return builtin_problem(args.builtin, **params)
    raise ValueError("one of --problem or --builtin is required")


def _member_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _config(args, problem: MinimaxProblem) -> dict:
    """An ensemble run's config: its command's flags but --out, with the problem
    flags folded into the problem's JSON form and --center parsed.  Identical
    config + seed gives identical output."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "out", "builtin", "a", "c")}
    config["problem"] = problems.problem_to_json_dict(problem)
    if "center" in config:
        config["center"] = (_parse_point(args.center, problem.dim, "center").tolist()
                            if args.center else [])
    ranged = ("n", "box", "seed", "target_tol", "cluster_tol")
    dynamics.check_ranges(**{k: config[k] for k in ranged if k in config})
    return config


def _sample_inits(config: dict, dim: int) -> np.ndarray:
    """(n, dim) initial states around the center, row i drawn from member i's own seed."""
    center = np.asarray(config["center"], dtype=float) if config["center"] else np.zeros(dim)
    box = config["box"]
    return np.array([center + _member_rng(config["seed"], i).uniform(-box, box, dim)
                     for i in range(config["n"])]).reshape(-1, dim)


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump({**payload, "schema": 2}, fh, indent=2, sort_keys=True)  # 2: config per command
        fh.write("\n")


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    problem = _load_problem_from_args(args)
    tau_grid = _parse_grid(args, "tau_grid")
    report = stability.characterize_equilibrium(
        problem, np.zeros(problem.dim), tau_grid=tau_grid, s=args.s, eta=args.eta)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "classify_report.json")
    _write_json(out_path, report.to_json_dict())
    print(f"report written to {out_path}")
    print(f"  strict_non_minimax = {report.strict_non_minimax}")
    print(f"  B_nsd = {report.second_order.B_nsd}, "
          f"Sres_psd = {report.second_order.Sres_psd}, s0 = {report.s0:g}")
    for mode, verdict in report.observed.items():
        print(f"  {mode}: predicted {report.predictions[mode]}, "
              f"observed {verdict.verdict} (tau* = {verdict.tau_star})")
    if report.mismatches:
        for m in report.mismatches:
            print(f"mismatch: {m}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate


def _cluster_points(points: list[np.ndarray], tol: float):
    """Deterministic greedy clustering of converged endpoints."""
    clusters: list[dict] = []
    for p in sorted(points, key=lambda q: tuple(q)):
        for cl in clusters:
            if np.linalg.norm(p - cl["center"]) <= tol:
                cl["count"] += 1
                break
        else:
            clusters.append({"center": p.copy(), "count": 1})
    return clusters


def _run_members(problem: MinimaxProblem, config: dict, record: bool):
    """An iterator over the members' trajectories, in index order.

    Members run in lockstep blocks, one dynamics.run_batch call each.  A
    block holds as many members as LOCKSTEP_BUFFER floats of kept samples
    allow (every sample when recording, else the first and last), so callers
    can write a block's trajectories out before the next block is computed.
    The first block runs before this returns, so every run parameter has
    been checked before the caller writes anything.  config's MethodParams
    fields are read by name, None when absent.
    """
    inits = _sample_inits(config, problem.dim)
    params = MethodParams(**{f.name: config.get(f.name) for f in fields(MethodParams)})
    kept = (max(config["max_iters"], 0) * record + 2) * (problem.dim + 1)
    size = max(1, dynamics.LOCKSTEP_BUFFER // kept)
    blocks = (dynamics.run_batch(problem, inits[lo:lo + size], params,
                                 tol_conv=config["tol_conv"], max_iters=config["max_iters"],
                                 diverge_norm=config["diverge_norm"], record=record)
              for lo in range(0, max(config["n"], 1), size))  # an empty ensemble still validates
    return itertools.chain(next(blocks), itertools.chain.from_iterable(blocks))


def cmd_simulate(args) -> int:
    problem = _load_problem_from_args(args)
    config = _config(args, problem)
    record = not args.no_trajectories
    members = _run_members(problem, config, record)
    os.makedirs(args.out, exist_ok=True)
    outcomes = []
    converged_points = []
    for i, traj in enumerate(members):
        if record:
            dynamics.write_trajectory_csv(
                traj, os.path.join(args.out, f"traj_{i:04d}.csv"))
        reason = traj.termination.reason
        outcomes.append(reason)
        if reason == "converged":
            converged_points.append(traj.states[-1])
    n = max(config["n"], 1)
    clusters = _cluster_points(converged_points, config["cluster_tol"])
    summary = {
        "config": config,
        "n": config["n"],
        "fraction_converged": outcomes.count("converged") / n,
        "fraction_diverged": outcomes.count("diverged") / n,
        "fraction_max_iters": (outcomes.count("max_iters") + outcomes.count("t_end")) / n,
        "fraction_nonfinite": outcomes.count("nonfinite") / n,
        "clusters": [
            {
                "center": [float(v) for v in cl["center"]],
                "count": cl["count"],
                "fraction": cl["count"] / n,
            }
            for cl in clusters
        ],
    }
    path = os.path.join(args.out, "simulate_summary.json")
    _write_json(path, summary)
    print(f"summary written to {path}")
    print(f"  converged {summary['fraction_converged']:.3f}, "
          f"diverged {summary['fraction_diverged']:.3f}")
    return 0


# ---------------------------------------------------------------------------
# avoidance


def cmd_avoidance(args) -> int:
    problem = _load_problem_from_args(args)
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    config = _config(args, problem)
    L = problem.lipschitz_bound
    method = args.method
    default_eta = (0.9 * GOLDEN_STEP_FACTOR if method == "eg_tt" else 0.5) / L
    eta = default_eta if args.eta is None else args.eta
    if method == "eg_tt" and not 0.0 < eta < GOLDEN_STEP_FACTOR / L:
        raise ValueError(
            f"eg_tt avoidance requires 0 < eta < (sqrt(5)-1)/(2L) = {GOLDEN_STEP_FACTOR / L:.6g}"
        )

    z_star = np.zeros(problem.dim)
    report = stability.characterize_equilibrium(problem, z_star, eta=eta)

    if method == "eg_tt":
        if not report.strict_non_minimax:
            raise ValueError(
                "avoidance target must be a strict non-minimax point for eg_tt; "
                "classification says it is not"
            )
        sweep = report.observed["discrete"]
    else:
        degenerate = report.r < len(report.spec_negB)
        # past the necessary condition, "unstable" means some curve's iota < eta/2
        if report.strict_non_minimax or not degenerate or report.predictions["gda"] != "unstable":
            raise ValueError(
                "gda_tt avoidance target must satisfy the second-order necessary "
                "condition with degenerate B and some hemicurvature below eta/2"
            )
        sweep = report.observed["gda"]

    if args.tau is None and sweep.verdict != "unstable":
        print(f"theory predicts an unstable terminal run but the sweep says {sweep.verdict!r}",
              file=sys.stderr)
        return 2
    tau = float(sweep.tau_star) if args.tau is None else args.tau

    target = z_star.tolist()
    hits = n_diverged = n_nonfinite = 0
    for traj in _run_members(problem, {**config, "eta": eta, "tau": tau, "center": target},
                             record=False):
        if traj.termination.reason == "diverged":
            n_diverged += 1
        elif traj.termination.reason == "nonfinite":
            n_nonfinite += 1
        elif np.linalg.norm(traj.states[-1] - z_star) <= config["target_tol"]:
            hits += 1
    summary = {
        "config": config,
        "target": target,
        "eta": eta,
        "tau": tau,
        "tau_star": None if sweep.tau_star is None else float(sweep.tau_star),
        "n": config["n"],
        "fraction_to_target": hits / config["n"],
        "acceptance_threshold": 1.0 / config["n"],
        "n_diverged": n_diverged,
        "n_nonfinite": n_nonfinite,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "avoidance_summary.json")
    _write_json(path, summary)
    print(f"summary written to {path}")
    print(f"  fraction converging to target: {summary['fraction_to_target']:.4f} "
          f"(threshold {summary['acceptance_threshold']})")
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    problem = _load_problem_from_args(args)
    H = problem.quadratic.hessian()

    # everything is validated and computed before either file is opened
    eps_grid = _parse_grid(args, "eps_grid", spectral.DEFAULT_EPS_GRID)
    curves = spectral.eigencurves(H, problem.d1, eps_grid=eps_grid) if len(eps_grid) else None
    tau_grid = _parse_grid(args, "tau_grid", stability.DEFAULT_TAU_GRID)
    L = problem.lipschitz_bound
    s_values = _parse_grid(args, "s_grid", [0.5 / L if args.s is None else args.s])
    eta_values = _parse_grid(args, "eta_grid", [0.5 / L if args.eta is None else args.eta])
    pairs = [(mode, float(p)) for mode, m in stability.MODES.items()
             for p in (s_values if m.step == "s" else eta_values)]
    table = stability.verdict_table(H, problem.d1, pairs, tau_grid)

    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "eigencurves.csv")
    with open(curve_path, "w") as fh:
        fh.write("eps,j,re,im,label\n")
        if curves is not None:
            eps = curves.eps.tolist()
            for j, (re, im, label) in enumerate(zip(curves.lam.real.tolist(),
                                                    curves.lam.imag.tolist(), curves.labels)):
                fh.writelines(f"{e!r},{j},{x!r},{y!r},{label}\n"
                              for e, x, y in zip(eps, re, im))
    verdict_path = os.path.join(args.out, "verdicts.csv")
    with open(verdict_path, "w") as fh:
        fh.write("mode,param,tau,stable\n")
        for i, tau in enumerate(tau_grid.tolist()):  # tau-major rows
            fh.writelines(f"{mode},{param!r},{tau!r},{v.labels[i]}\n"
                          for (mode, param), v in zip(pairs, table))
    if len(tau_grid) and (args.s_grid or args.eta_grid):
        for mode in stability.MODES:
            stable_params = [p for (m, p), v in zip(pairs, table)
                             if m == mode and v.labels[-1] == "stable"]
            if stable_params:
                print(f"  {mode}: smallest tested stable step at tau={tau_grid[-1]:g}: "
                      f"{min(stable_params):.6g}")
    print(f"wrote {curve_path} and {verdict_path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="path to a problem JSON file")
    p.add_argument("--builtin", help="builtin problem name "
                   f"({', '.join(problems.BUILTIN_NAMES)})")
    p.add_argument("--a", type=float, default=None, help="scalar_degenerate: A entry")
    p.add_argument("--c", type=float, default=None, help="scalar_degenerate: C entry")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxdyn",
        description="two-timescale minimax dynamics and stability classification",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", help="classify an equilibrium")
    _add_problem_args(p)
    p.add_argument("--s", type=float, default=None, help="continuous step size")
    p.add_argument("--eta", type=float, default=None, help="discrete step size")
    p.add_argument("--tau-grid", help="lo:hi:n geometric tau grid")
    p.add_argument("--out", default="out")

    p = sub.add_parser("simulate", help="run a trajectory ensemble")
    _add_problem_args(p)
    p.add_argument("--method", default="eg_tt", choices=dynamics.METHODS)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--box", type=float, default=1.0)
    p.add_argument("--center", help="comma-separated box center (default: origin)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=10000)
    p.add_argument("--tol-conv", type=float, default=dynamics.TOL_CONV_DEFAULT)
    p.add_argument("--diverge-norm", type=float, default=dynamics.DIVERGE_NORM_DEFAULT)
    p.add_argument("--cluster-tol", type=float, default=1e-3)
    p.add_argument("--no-trajectories", action="store_true",
                   help="skip the per-member trajectory CSVs")
    p.add_argument("--out", default="out")

    p = sub.add_parser("avoidance", help="measure-zero avoidance experiment")
    _add_problem_args(p)
    p.add_argument("--method", default="eg_tt", choices=("eg_tt", "gda_tt"))
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None,
                   help="default: tau* from the instability sweep")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--box", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--tol-conv", type=float, default=dynamics.TOL_CONV_DEFAULT)
    p.add_argument("--diverge-norm", type=float, default=dynamics.DIVERGE_NORM_DEFAULT)
    p.add_argument("--target-tol", type=float, default=1e-4)
    p.add_argument("--out", default="out")

    p = sub.add_parser("sweep", help="eigencurve and verdict sweep")
    _add_problem_args(p)
    p.add_argument("--eps-grid", help="lo:hi:n geometric eps grid")
    p.add_argument("--tau-grid", help="lo:hi:n geometric tau grid")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--s-grid", help="lo:hi:n geometric grid of continuous steps")
    p.add_argument("--eta-grid", help="lo:hi:n geometric grid of discrete steps")
    p.add_argument("--out", default="out")

    return parser


_parser = functools.cache(build_parser)  # parsing leaves a parser unchanged


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap usage to 1
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        # looked up per call, as a fresh parser did, so a replaced cmd_* is used
        return globals()[f"cmd_{args.command}"](args)
    except CriterionMismatchError as exc:
        print(f"criterion mismatch: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
