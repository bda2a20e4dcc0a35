"""Command-line front end.

Subcommands:

    classify   second-order + spectral classification of an equilibrium,
               with predicted and empirically swept stability verdicts
    simulate   trajectory ensembles from random initializations
    avoidance  measure-zero avoidance experiment around an unstable target
    sweep      eigenvalue curves over eps = 1/tau plus per-tau verdicts

Exit codes: 0 ok, 1 usage/input error, 2 theory mismatch (a predicted
verdict contradicted by observation, or a dual-criterion self-test trip).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dynamics, problems, spectral, stability
from .dynamics import MethodParams, NewtonError
from .problems import MinimaxProblem, builtin_problem, load_problem
from .stability import ClassifyConfig, CriterionMismatchError

GOLDEN_STEP_FACTOR = (math.sqrt(5.0) - 1.0) / 2.0  # eta < this / L for EG avoidance


@dataclass
class ExperimentConfig:
    """One ensemble experiment; identical config + seed gives identical output."""

    problem: dict
    method: str
    eta: float | None = None
    s: float | None = None
    tau: float = 1.0
    dt: float | None = None
    n: int = 100
    box: float = 1.0
    center: list = field(default_factory=list)
    seed: int = 0
    max_iters: int = 10000
    tol_conv: float = dynamics.TOL_CONV_DEFAULT
    diverge_norm: float = dynamics.DIVERGE_NORM_DEFAULT
    target_tol: float = 1e-4
    cluster_tol: float = 1e-3

    def to_dict(self) -> dict:
        return asdict(self)


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
    if n == 0:
        return np.array([])
    if n == 1:
        return np.array([lo])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite")
    if lo <= 0 or hi <= 0:
        raise ValueError("geometric grid needs positive endpoints")
    return np.geomspace(lo, hi, n)


def _parse_point(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _load_problem_from_args(args) -> MinimaxProblem:
    if getattr(args, "problem", None):
        return load_problem(args.problem)
    if getattr(args, "builtin", None):
        params = {}
        if args.a is not None:
            params["a"] = args.a
        if args.c is not None:
            params["c"] = args.c
        return builtin_problem(args.builtin, **params)
    raise ValueError("one of --problem or --builtin is required")


def _member_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _sample_inits(config: ExperimentConfig, dim: int) -> np.ndarray:
    """(n, dim) initial states, row i drawn from member i's own seed."""
    center = np.asarray(config.center, dtype=float) if config.center else np.zeros(dim)
    return np.array([center + _member_rng(config.seed, i).uniform(-config.box, config.box, dim)
                     for i in range(config.n)]).reshape(-1, dim)


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_target(problem: MinimaxProblem, args, tol: float) -> np.ndarray:
    z0 = _parse_point(args.z0) if args.z0 else np.zeros(problem.dim)
    if z0.shape != (problem.dim,):
        raise ValueError(f"z0 must have {problem.dim} components")
    fnorm = float(np.linalg.norm(problems.saddle_gradient(problem, z0)))
    if fnorm <= tol:
        return z0
    if getattr(args, "search", False):
        return dynamics.find_stationary(problem, z0, newton_tol=tol)
    raise ValueError(
        f"z0 is not stationary (||F|| = {fnorm:.3e}); pass --search to run Newton"
    )


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    problem = _load_problem_from_args(args)
    config = ClassifyConfig(
        stationarity_tol=args.tol_stationary,
        psd_tol=args.tol_psd,
        marginal_tol=args.tol_marginal,
        rank_tol=args.rank_tol,
        tau_grid=_parse_grid(args, "tau_grid"),
        s=args.s,
        eta=args.eta,
    )
    z_star = _resolve_target(problem, args, config.stationarity_tol)
    report = stability.characterize_equilibrium(problem, z_star, config)
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


def _run_members(problem: MinimaxProblem, config: ExperimentConfig, record: bool):
    """The members' trajectories, in index order.

    Members run in lockstep blocks, one dynamics.run_batch call each.  A
    block holds as many members as LOCKSTEP_BUFFER floats of kept samples
    allow (every sample when recording, else the first and last), so callers
    can write a block's trajectories out before the next block is computed.
    """
    inits = _sample_inits(config, problem.dim)
    params = MethodParams(method=config.method, eta=config.eta, s=config.s, tau=config.tau,
                          dt=config.dt)
    kept = (max(config.max_iters, 0) * record + 2) * (problem.dim + 1)
    size = max(1, dynamics.LOCKSTEP_BUFFER // kept)
    for lo in range(0, max(config.n, 1), size):  # an empty ensemble still validates
        yield from dynamics.run_batch(problem, inits[lo:lo + size], params,
                                      tol_conv=config.tol_conv, max_iters=config.max_iters,
                                      diverge_norm=config.diverge_norm, record=record)


def cmd_simulate(args) -> int:
    problem = _load_problem_from_args(args)
    config = ExperimentConfig(
        problem=problems.problem_to_json_dict(problem),
        method=args.method,
        eta=args.eta,
        s=args.s,
        tau=args.tau,
        dt=args.dt,
        n=args.n,
        box=args.box,
        center=[float(v) for v in _parse_point(args.center)] if args.center else [],
        seed=args.seed,
        max_iters=args.max_iters,
        tol_conv=args.tol_conv,
        diverge_norm=args.diverge_norm,
        cluster_tol=args.cluster_tol,
    )
    os.makedirs(args.out, exist_ok=True)
    record = not args.no_trajectories
    outcomes = []
    converged_points = []
    for i, traj in enumerate(_run_members(problem, config, record)):
        if record:
            dynamics.write_trajectory_csv(
                traj, os.path.join(args.out, f"traj_{i:04d}.csv"))
        reason = traj.termination.reason
        outcomes.append(reason)
        if reason == "converged":
            converged_points.append(traj.states[-1])
    n = max(config.n, 1)
    clusters = _cluster_points(converged_points, config.cluster_tol)
    summary = {
        "config": config.to_dict(),
        "n": config.n,
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
    L = problem.lipschitz_bound
    method = args.method
    if method not in ("eg_tt", "gda_tt"):
        raise ValueError("avoidance supports --method eg_tt or gda_tt")

    if args.eta is not None:
        eta = args.eta
    elif method == "eg_tt":
        eta = 0.9 * GOLDEN_STEP_FACTOR / L
    else:
        eta = 0.5 / L
    if method == "eg_tt" and not 0.0 < eta < GOLDEN_STEP_FACTOR / L:
        raise ValueError(
            f"eg_tt avoidance requires 0 < eta < (sqrt(5)-1)/(2L) = {GOLDEN_STEP_FACTOR / L:.6g}"
        )
    if method == "gda_tt" and not 0.0 < eta < 1.0 / L:
        raise ValueError(f"gda_tt avoidance requires 0 < eta < 1/L = {1.0 / L:.6g}")

    cls_config = ClassifyConfig(eta=eta, stationarity_tol=args.tol_stationary)
    z_star = _resolve_target(problem, args, cls_config.stationarity_tol)
    report = stability.characterize_equilibrium(problem, z_star, cls_config)

    if method == "eg_tt":
        if not report.strict_non_minimax:
            raise ValueError(
                "avoidance target must be a strict non-minimax point for eg_tt; "
                "classification says it is not"
            )
        sweep = report.observed["discrete"]
    else:
        so = report.second_order
        degenerate = report.r < len(report.spec_negB)
        witnesses = [i for i in report.iota if i < eta / 2.0]
        if not (so.B_nsd and so.Sres_psd and degenerate and witnesses):
            raise ValueError(
                "gda_tt avoidance target must satisfy the second-order necessary "
                "condition with degenerate B and some hemicurvature below eta/2"
            )
        sweep = report.observed["gda"]

    if args.tau is not None:
        tau = args.tau
    else:
        if sweep.verdict != "unstable":
            print(
                f"theory predicts an unstable terminal run but the sweep says "
                f"{sweep.verdict!r}",
                file=sys.stderr,
            )
            return 2
        tau = float(sweep.tau_star)

    config = ExperimentConfig(
        problem=problems.problem_to_json_dict(problem),
        method=method,
        eta=eta,
        tau=tau,
        n=args.n,
        box=args.box,
        center=[float(v) for v in z_star],
        seed=args.seed,
        max_iters=args.max_iters,
        tol_conv=args.tol_conv,
        diverge_norm=args.diverge_norm,
        target_tol=args.target_tol,
    )
    hits = n_diverged = n_nonfinite = 0
    for traj in _run_members(problem, config, record=False):
        if traj.termination.reason == "diverged":
            n_diverged += 1
        elif traj.termination.reason == "nonfinite":
            n_nonfinite += 1
        elif np.linalg.norm(traj.states[-1] - z_star) <= config.target_tol:
            hits += 1
    summary = {
        "config": config.to_dict(),
        "target": [float(v) for v in z_star],
        "method": method,
        "eta": eta,
        "tau": tau,
        "tau_star": None if sweep.tau_star is None else float(sweep.tau_star),
        "n": config.n,
        "fraction_to_target": hits / config.n if config.n else 0.0,
        "acceptance_threshold": 1.0 / config.n if config.n else None,
        "n_diverged": n_diverged,
        "n_nonfinite": n_nonfinite,
        "cutoff": config.target_tol,
        "max_iters": config.max_iters,
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
    z_star = _resolve_target(problem, args, args.tol_stationary)
    A, B, C = problems.hessian_blocks_at(problem, z_star)
    H = np.block([[A, C], [-C.T, -B]])

    # everything is validated and computed before either file is opened
    eps_grid = _parse_grid(args, "eps_grid", spectral.DEFAULT_EPS_GRID)
    curves = spectral.eigencurves(H, problem.d1, eps_grid=eps_grid) if len(eps_grid) else None
    tau_grid = _parse_grid(args, "tau_grid", stability.DEFAULT_TAU_GRID)
    L = problem.lipschitz_bound
    s_values = _parse_grid(args, "s_grid", [0.5 / L if args.s is None else args.s])
    eta_values = _parse_grid(args, "eta_grid", [0.5 / L if args.eta is None else args.eta])
    for name, vals in (("s", s_values), ("eta", eta_values)):
        if not all(0.0 < v < 1.0 / L for v in vals):
            raise ValueError(f"{name} grid must lie in (0, 1/L) = (0, {1.0 / L:.6g})")
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
            fh.writelines(f"{mode},{param!r},{tau!r},{vs[i].stable}\n"
                          for (mode, param), vs in zip(pairs, table))
    if len(tau_grid) and (args.s_grid or args.eta_grid):
        for mode in stability.MODES:
            stable_params = [p for (m, p), vs in zip(pairs, table)
                             if m == mode and vs[-1].stable == "stable"]
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


def _add_target_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z0", help="comma-separated point (default: origin)")
    p.add_argument("--search", action="store_true",
                   help="Newton-search a stationary point from z0")
    p.add_argument("--tol-stationary", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxdyn",
        description="two-timescale minimax dynamics and stability classification",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", help="classify an equilibrium")
    _add_problem_args(p)
    _add_target_args(p)
    p.add_argument("--s", type=float, default=None, help="continuous step size")
    p.add_argument("--eta", type=float, default=None, help="discrete step size")
    p.add_argument("--tau-grid", help="lo:hi:n geometric tau grid")
    p.add_argument("--tol-psd", type=float, default=None)
    p.add_argument("--tol-marginal", type=float, default=stability.MARGINAL_TOL)
    p.add_argument("--rank-tol", type=float, default=None)
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
    _add_target_args(p)
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
    _add_target_args(p)
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
    except (ValueError, NewtonError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
