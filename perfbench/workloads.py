"""Workload definitions for the minimaxdyn benchmark.

Each workload turns a seed into a fixed list of ops (one round).  An op is
one CLI invocation (``cli.main`` called in-process) or one library call on
one generated input.  Every input is drawn from a finite pool per op slot
(``POOL`` instances, indexed by ``k``), so that ``reference.json`` can hold
the expected output of every input the benchmark can ever generate; the
seed picks which pool instance fills each slot.

Every op has a reference key and a digest of its output.  ``check_op``
compares the digest with the stored reference and applies the paper
invariants listed per workload; any failure is reported, never skipped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

POOL = 32  # instances per op slot; reference.json covers all of them

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")


@dataclass
class Op:
    key: str                 # "<template>/<k>", the reference.json key
    kind: str                # "cli.<command>" or "lib.<function>"
    run: Callable[[], object]
    digest: Callable[[object], dict]
    invariants: Callable[[object, dict], list]


@dataclass
class CliResult:
    code: int
    stderr: str
    out_dir: str


def _cli_call(argv: list, out_dir: str) -> CliResult:
    from minimaxdyn import cli

    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", out_dir])
    return CliResult(code, err.getvalue(), out_dir)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _csv_last_state(path: str) -> list:
    """z_0..z_{d-1} of the last row of a step,t,z_0,...,F_norm CSV."""
    with open(path) as fh:
        last = fh.readlines()[-1]
    return [float(v) for v in last.split(",")[2:-1]]


def _rounded(x, digits: int = 10):
    """Floats in a digest are kept to 10 significant digits."""
    if isinstance(x, float):
        return float(f"{x:.{digits}g}") if math.isfinite(x) else str(x)
    if isinstance(x, (list, tuple)):
        return [_rounded(v, digits) for v in x]
    if isinstance(x, dict):
        return {k: _rounded(v, digits) for k, v in x.items()}
    return x


def diff_digest(got, want, path: str = "", rtol: float = 1e-6, atol: float = 1e-8) -> list:
    """Differences between two digests; numbers compare within rtol/atol."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for k in want:
            out += diff_digest(got[k], want[k], f"{path}.{k}", rtol, atol)
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff_digest(g, w, f"{path}[{i}]", rtol, atol)
        return out
    num = (int, float)
    if isinstance(want, num) and isinstance(got, num) and not isinstance(want, bool) \
            and not isinstance(got, bool):
        if abs(got - want) <= atol + rtol * abs(want):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


# ---------------------------------------------------------------------------
# base class


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str, size: str = "full"):
        self.seed = int(seed)
        self.work_dir = os.path.join(work_dir, self.name)
        self.slots = self.slot_templates()
        rng = np.random.default_rng([self.seed, 0x6D6D44])
        self.pool_index = [int(rng.integers(POOL)) for _ in self.slots]
        if size == "tiny":
            # one op per distinct template, so every op kind still runs once
            seen, keep = set(), []
            for i, t in enumerate(self.slots):
                if t not in seen:
                    seen.add(t)
                    keep.append(i)
            self.slots = [self.slots[i] for i in keep]
            self.pool_index = [self.pool_index[i] for i in keep]

    # subclasses provide these
    def slot_templates(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Import the modules the ops call and build their problem objects
        (part of setup_s).  CLI ops rebuild theirs per invocation; building
        them here too puts work moved into construction, such as a cached
        H, into setup_s."""
        raise NotImplementedError

    def make_op(self, template: str, k: int, slot: int) -> Op:
        raise NotImplementedError

    # shared
    def prepare(self) -> None:
        """Write input files; runs once, before warm-up, outside timing."""
        os.makedirs(self.work_dir, exist_ok=True)

    def ops(self) -> list:
        return [self.make_op(t, k, i) for i, (t, k) in
                enumerate(zip(self.slots, self.pool_index))]

    def reset_outputs(self) -> None:
        out = os.path.join(self.work_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)

    def out_dir(self, slot: int) -> str:
        return os.path.join(self.work_dir, "out", f"op{slot:03d}")

    def instrument(self, tracer) -> None:
        """Hook for workload-owned callables the tracer should see."""

    def uninstrument(self) -> None:
        pass


# ---------------------------------------------------------------------------
# ensemble_discrete


def _cli_invariants(result: CliResult, digest: dict) -> list:
    if result.code != 0:
        return [f"exit code {result.code}: {result.stderr.strip()[:200]}"]
    return []


def _avoidance_digest(result: CliResult) -> dict:
    s = _read_json(os.path.join(result.out_dir, "avoidance_summary.json"))
    return _rounded({k: s[k] for k in ("fraction_to_target", "acceptance_threshold",
                                       "n_diverged", "eta", "tau", "tau_star", "n")})


def _avoidance_invariants(result: CliResult, digest: dict) -> list:
    out = _cli_invariants(result, digest)
    if not out and not digest["fraction_to_target"] <= digest["acceptance_threshold"]:
        out.append(f"fraction_to_target {digest['fraction_to_target']} above "
                   f"threshold {digest['acceptance_threshold']}")
    return out


def _simulate_digest(result: CliResult, with_rows: bool = False) -> dict:
    s = _read_json(os.path.join(result.out_dir, "simulate_summary.json"))
    d = {k: s[k] for k in ("n", "fraction_converged", "fraction_diverged",
                           "fraction_max_iters")}
    d["clusters"] = [[c["center"], c["count"]] for c in s["clusters"]]
    if with_rows:
        files = sorted(glob.glob(os.path.join(result.out_dir, "traj_*.csv")))
        d["csv_rows"] = [_csv_rows(f) for f in files]
        d["csv_last_state"] = [_csv_last_state(f) for f in files]
    return _rounded(d)


def _eg_bilinear_invariants(result: CliResult, digest: dict) -> list:
    """EG on f = x y converges fully, to the origin."""
    out = _cli_invariants(result, digest)
    if out:
        return out
    if digest["fraction_converged"] != 1.0:
        out.append(f"EG on bilinear converged {digest['fraction_converged']}, expected 1")
    for center, _ in digest["clusters"]:
        if float(np.linalg.norm(center)) > 1e-6:
            out.append(f"EG on bilinear converged to {center}, not the origin")
    return out


def _gda_bilinear_invariants(result: CliResult, digest: dict) -> list:
    """GDA on f = x y never converges."""
    out = _cli_invariants(result, digest)
    if not out and digest["fraction_converged"] != 0.0:
        out.append(f"GDA on bilinear converged {digest['fraction_converged']}, expected 0")
    return out


class EnsembleDiscrete(Workload):
    """CLI avoidance and simulate --no-trajectories runs of eg_tt / gda_tt."""

    name = "ensemble_discrete"
    TEMPLATES = {
        # template: (argv, digest, invariants)
        "avoid_eg_snm": (["avoidance", "--builtin", "strict_nonminimax_demo",
                          "--method", "eg_tt", "--n", "20"],
                         _avoidance_digest, _avoidance_invariants),
        "avoid_gda_bil": (["avoidance", "--builtin", "bilinear", "--method", "gda_tt",
                           "--n", "14"],
                          _avoidance_digest, _avoidance_invariants),
        "sim_eg_tau1": (["simulate", "--builtin", "bilinear", "--method", "eg_tt",
                         "--eta", "0.5", "--tau", "1", "--n", "2", "--no-trajectories"],
                        _simulate_digest, _eg_bilinear_invariants),
        "sim_eg_tau3": (["simulate", "--builtin", "bilinear", "--method", "eg_tt",
                         "--eta", "0.5", "--tau", "3", "--n", "1", "--no-trajectories"],
                        _simulate_digest, _eg_bilinear_invariants),
        "sim_eg_tau10": (["simulate", "--builtin", "bilinear", "--method", "eg_tt",
                          "--eta", "0.5", "--tau", "10", "--n", "1", "--no-trajectories"],
                         _simulate_digest, _eg_bilinear_invariants),
        "sim_gda_tau3": (["simulate", "--builtin", "bilinear", "--method", "gda_tt",
                          "--eta", "0.5", "--tau", "3", "--n", "2", "--no-trajectories"],
                         _simulate_digest, _gda_bilinear_invariants),
        "sim_gda_tau100": (["simulate", "--builtin", "bilinear", "--method", "gda_tt",
                            "--eta", "0.5", "--tau", "100", "--n", "1",
                            "--max-iters", "2000", "--no-trajectories"],
                           _simulate_digest, _gda_bilinear_invariants),
    }

    # 14 cheaper ops, 14 of the fixed-length gda_tt at tau = 100 (2000
    # iterations, so it holds the median op), 14 dearer ops
    COUNTS = {"avoid_eg_snm": 4, "avoid_gda_bil": 4, "sim_eg_tau1": 5, "sim_eg_tau3": 4,
              "sim_eg_tau10": 6, "sim_gda_tau3": 5, "sim_gda_tau100": 14}

    def slot_templates(self):
        return [t for t in self.TEMPLATES for _ in range(self.COUNTS[t])]

    def setup(self):
        from minimaxdyn import cli, problems  # noqa: F401  (the CLI is the entry)

        self.problems = {n: problems.builtin_problem(n)
                         for n in ("bilinear", "strict_nonminimax_demo")}

    def make_op(self, template, k, slot):
        argv, digest, invariants = self.TEMPLATES[template]
        out_dir = self.out_dir(slot)
        argv = argv + ["--seed", str(k)]
        return Op(f"{template}/{k}", f"cli.{argv[0]}",
                  lambda: _cli_call(argv, out_dir), digest, invariants)


# ---------------------------------------------------------------------------
# ensemble_ode


def _ode_digest(result: CliResult) -> dict:
    return _simulate_digest(result, with_rows=True)


def _ode_invariants(result: CliResult, digest: dict) -> list:
    out = _cli_invariants(result, digest)
    if out:
        return out
    rows = digest["csv_rows"]
    if len(rows) != digest["n"]:
        out.append(f"{len(rows)} trajectory CSVs for n = {digest['n']}")
    total = (digest["fraction_converged"] + digest["fraction_diverged"]
             + digest["fraction_max_iters"])
    if abs(total - 1.0) > 1e-12:
        out.append(f"termination fractions sum to {total}")
    return out


class EnsembleOde(Workload):
    """CLI simulate with the ODE methods, trajectory CSVs written."""

    name = "ensemble_ode"
    _COMMON = ["--dt", "0.2", "--max-iters", "60", "--tol-conv", "1e-2", "--n", "1"]
    TEMPLATES = {
        "ode_eg_tt_bil_tau1": ["--builtin", "bilinear", "--method", "ode_eg_tt",
                               "--s", "0.4", "--tau", "1"],
        "ode_eg_tt_bil_tau10": ["--builtin", "bilinear", "--method", "ode_eg_tt",
                                "--s", "0.4", "--tau", "10"],
        "ode_eg_tt_snm": ["--builtin", "strict_nonminimax_demo", "--method", "ode_eg_tt",
                          "--s", "0.2", "--tau", "4", "--diverge-norm", "10"],
        "ode_eg_sd": ["--builtin", "scalar_degenerate", "--a", "2", "--c", "1",
                      "--method", "ode_eg", "--s", "0.3"],
        "ode_plain_sd": ["--builtin", "scalar_degenerate", "--a", "2", "--c", "1",
                         "--method", "ode_plain"],
    }
    # ode_eg_tt at tau = 10 always runs to t_end, so it holds the median op
    COUNTS = {"ode_eg_tt_bil_tau1": 6, "ode_eg_tt_bil_tau10": 16, "ode_eg_tt_snm": 6,
              "ode_eg_sd": 4, "ode_plain_sd": 4}

    def slot_templates(self):
        return [t for t in self.TEMPLATES for _ in range(self.COUNTS[t])]

    def setup(self):
        from minimaxdyn import cli, problems  # noqa: F401

        self.problems = {
            "bilinear": problems.builtin_problem("bilinear"),
            "strict_nonminimax_demo": problems.builtin_problem("strict_nonminimax_demo"),
            "scalar_degenerate": problems.builtin_problem("scalar_degenerate", a=2.0, c=1.0),
        }

    def make_op(self, template, k, slot):
        out_dir = self.out_dir(slot)
        argv = ["simulate"] + self.TEMPLATES[template] + self._COMMON + ["--seed", str(k)]
        return Op(f"{template}/{k}", "cli.simulate",
                  lambda: _cli_call(argv, out_dir), _ode_digest, _ode_invariants)


# ---------------------------------------------------------------------------
# classify_sweep

# (d1, d2, r): r < d2 gives sqrt-order curves and hemicurvatures, r = d2 none
RANDOM_SHAPES = ((2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 2), (2, 2, 2), (3, 2, 2))
BUILTIN_SHAPES = {
    "bilinear": (1, 1, 0),
    "scalar_degenerate": (1, 1, 0),
    "strict_nonminimax_demo": (2, 2, 1),
}


def _random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _symmetric_with_rank(rng, d, r):
    vals = np.zeros(d)
    vals[:r] = rng.choice([-1.0, 1.0], r) * rng.uniform(0.5, 2.0, r)
    Q = _random_orthogonal(rng, d)
    M = (Q * vals) @ Q.T
    return (M + M.T) / 2.0


def random_quadratic(d1: int, d2: int, r: int, k: int) -> dict:
    """Quadratic problem JSON with rank(B) = r and invertible H.

    Draws are redrawn until the structure the classifier needs holds by
    construction: cond(H) < 1e8, exact rank r, singular values of C2 at
    least 0.1 and separated, S_res eigenvalues away from zero and from each
    other, separated nonzero eigenvalues of B.  Uses numpy only, not the
    package, so the inputs stay fixed when the package changes.
    """
    rng = np.random.default_rng([k, d1, d2, r])
    for _ in range(1000):
        A = _symmetric_with_rank(rng, d1, d1)
        B = _symmetric_with_rank(rng, d2, r)
        C = rng.standard_normal((d1, d2))
        if np.linalg.cond(np.block([[A, C], [-C.T, -B]])) > 1e8:
            continue
        w, V = np.linalg.eigh(B)
        order = np.argsort(-np.abs(w))
        w, V = w[order], V[:, order]
        if np.count_nonzero(np.abs(w) > 1e-9 * np.max(np.abs(w), initial=0.0)) != r:
            continue
        C2 = (C @ V)[:, r:]
        sig = np.linalg.svd(C2, compute_uv=False) if C2.size else np.array([])
        if sig.size and (sig.min() < 0.1 or (sig.size > 1 and np.min(
                np.diff(np.sort(sig))) < 0.05 * max(1.0, sig.max()))):
            continue
        S = A + (C @ V)[:, :r] @ np.diag(-1.0 / w[:r]) @ (C @ V)[:, :r].T \
            if r else A.copy()
        if C2.size:
            U, sv, _ = np.linalg.svd(C2, full_matrices=True)
            U = U[:, int(np.count_nonzero(sv > 1e-12)):]
        else:
            U = np.eye(d1)
        mus = np.linalg.eigvalsh(U.T @ S @ U) if U.shape[1] else np.array([])
        if mus.size and (np.min(np.abs(mus)) < 5e-2 or (mus.size > 1 and np.min(
                np.diff(np.sort(mus))) < 1e-2)):
            continue
        if r > 1 and np.min(np.diff(np.sort(w[:r]))) < 5e-2:
            continue
        return {"kind": "quadratic", "A": A.tolist(), "B": B.tolist(), "C": C.tolist()}
    raise RuntimeError(f"no ({d1},{d2},{r}) instance for k = {k}")


def _classify_digest(result: CliResult) -> dict:
    rep = _read_json(os.path.join(result.out_dir, "classify_report.json"))
    return _rounded({
        "r": rep["r"], "w": rep["w"],
        "strict_non_minimax": rep["strict_non_minimax"],
        "second_order": rep["second_order"],
        "s0": rep["s0"],
        "predictions": rep["predictions"],
        "verdicts": [[v["method"], v["stable"], v["tau_star"]] for v in rep["verdicts"]],
        "mismatches": rep["mismatches"],
    })


def _sweep_digest(result: CliResult) -> dict:
    labels = {}
    with open(os.path.join(result.out_dir, "eigencurves.csv")) as fh:
        fh.readline()
        for line in fh:
            _, j, _, _, label = line.strip().split(",")
            labels[int(j)] = label
    with open(os.path.join(result.out_dir, "verdicts.csv"), "rb") as fh:
        verdicts_sha = hashlib.sha256(fh.read()).hexdigest()
    return {
        "labels": [labels[j] for j in sorted(labels)],
        "eigencurve_rows": _csv_rows(os.path.join(result.out_dir, "eigencurves.csv")),
        "verdicts_sha256": verdicts_sha,
    }


def _expected_counts(shape) -> list:
    d1, d2, r = shape
    return [2 * (d2 - r), d1 - d2 + r, r]


def _classify_invariants(shape):
    def check(result: CliResult, digest: dict) -> list:
        out = _cli_invariants(result, digest)
        if out:
            return out
        if digest["mismatches"]:
            out.append(f"mismatches: {digest['mismatches']}")
        if digest["r"] != shape[2]:
            out.append(f"rank r = {digest['r']}, constructed with {shape[2]}")
        return out
    return check


def _sweep_invariants(shape):
    def check(result: CliResult, digest: dict) -> list:
        out = _cli_invariants(result, digest)
        if out:
            return out
        labels = digest["labels"]
        counts = [labels.count(n) for n in ("sqrt_eps_pair", "linear_eps", "order_one")]
        if counts != _expected_counts(shape):
            out.append(f"label counts {counts} != (2(d2-r), d1-d2+r, r) = "
                       f"{_expected_counts(shape)}")
        return out
    return check


class ClassifySweep(Workload):
    """CLI classify and sweep on the builtins and on random quadratics."""

    name = "classify_sweep"
    # random-quadratic templates are "<cmd>_q<d1><d2><r>"; builtins "<cmd>_<name>"
    BUILTIN_ARGS = {
        "bilinear": ["--builtin", "bilinear"],
        "scalar_degenerate": ["--builtin", "scalar_degenerate", "--a", "2", "--c", "1"],
        "strict_nonminimax_demo": ["--builtin", "strict_nonminimax_demo"],
    }

    def slot_templates(self):
        out = []
        for cmd in ("classify", "sweep"):
            out += [f"{cmd}_{name}" for name in self.BUILTIN_ARGS]
            for d1, d2, r in RANDOM_SHAPES:
                out += [f"{cmd}_q{d1}{d2}{r}"] * 3
        return out

    def _split(self, template):
        cmd, rest = template.split("_", 1)
        if rest in self.BUILTIN_ARGS:
            return cmd, rest, BUILTIN_SHAPES[rest]
        d1, d2, r = (int(c) for c in rest[1:])
        return cmd, None, (d1, d2, r)

    def _input_path(self, shape, k):
        return os.path.join(self.work_dir, "inputs", "q{}{}{}_{:02d}.json".format(*shape, k))

    def _inputs(self):
        """(shape, k) of every random quadratic this seed uses."""
        out = set()
        for t, k in zip(self.slots, self.pool_index):
            _, builtin, shape = self._split(t)
            if builtin is None:
                out.add((shape, k))
        return sorted(out)

    def setup(self):
        from minimaxdyn import cli, problems  # noqa: F401

        self.problems = {name: problems.builtin_problem(name) for name in BUILTIN_SHAPES}
        self.problem_json = {(shape, k): random_quadratic(*shape, k)
                             for shape, k in self._inputs()}
        for (shape, k), data in self.problem_json.items():
            self.problems[(shape, k)] = problems.problem_from_json_dict(data)

    def prepare(self):
        super().prepare()
        os.makedirs(os.path.join(self.work_dir, "inputs"), exist_ok=True)
        for (shape, k), data in self.problem_json.items():
            with open(self._input_path(shape, k), "w") as fh:
                json.dump(data, fh)

    def make_op(self, template, k, slot):
        cmd, builtin, shape = self._split(template)
        args = (self.BUILTIN_ARGS[builtin] if builtin
                else ["--problem", self._input_path(shape, k)])
        argv = [cmd] + args
        out_dir = self.out_dir(slot)
        if cmd == "classify":
            digest, inv = _classify_digest, _classify_invariants(shape)
        else:
            digest, inv = _sweep_digest, _sweep_invariants(shape)
        return Op(f"{template}/{k}", f"cli.{cmd}", lambda: _cli_call(argv, out_dir),
                  digest, inv)


# ---------------------------------------------------------------------------
# general_problem
#
#   f(x, y) = (x1^2 - 1)^2 / 4 + x2^2 / 2 + x2^4 / 12 + x2 y1 + x1 y2 / 2
#             - y1^2 / 2 - y1^4 / 12 - y2^2 / 2
#
# is smooth and non-quadratic, with stationary points (0, 0, 0, 0), a
# strict non-minimax point, and (+-sqrt(3)/2, 0, 0, +-sqrt(3)/4), two local
# minimax points.  It has an analytic gradient and no hessian_blocks, so
# every Jacobian comes from finite differences of user callables.

GENERAL_L = 6.0          # bound on ||DF|| over the sampled region
GENERAL_STATIONARY = (
    np.array([0.0, 0.0, 0.0, 0.0]),
    np.array([math.sqrt(3.0) / 2.0, 0.0, 0.0, math.sqrt(3.0) / 4.0]),
    np.array([-math.sqrt(3.0) / 2.0, 0.0, 0.0, -math.sqrt(3.0) / 4.0]),
)
GENERAL_START_BOX = 0.25
NEWTON_TOL = 1e-10


def general_value(z):
    x1, x2, y1, y2 = (float(v) for v in z)
    return ((x1 * x1 - 1.0) ** 2 / 4.0 + x2 * x2 / 2.0 + x2 ** 4 / 12.0 + x2 * y1
            + x1 * y2 / 2.0 - y1 * y1 / 2.0 - y1 ** 4 / 12.0 - y2 * y2 / 2.0)


def general_grad(z):
    x1, x2, y1, y2 = (float(v) for v in z)
    return np.array([
        x1 ** 3 - x1 + 0.5 * y2,
        x2 + x2 ** 3 / 3.0 + y1,
        x2 - y1 - y1 ** 3 / 3.0,
        0.5 * x1 - y2,
    ])


def general_saddle_gradient(z):
    """F = (df/dx, -df/dy), computed by the benchmark itself for checks."""
    g = general_grad(z)
    g[2:] = -g[2:]
    return g


def general_start(k: int) -> tuple:
    """(start point, index of the stationary point it was drawn around)."""
    j = k % len(GENERAL_STATIONARY)
    rng = np.random.default_rng([k, 0x67656E])
    return GENERAL_STATIONARY[j] + rng.uniform(-GENERAL_START_BOX, GENERAL_START_BOX, 4), j


def _point(z) -> list:
    return _rounded([float(v) for v in z])


class GeneralProblem(Workload):
    """Library calls on a non-quadratic objective with finite-difference H."""

    name = "general_problem"
    TAU = 2.0
    ETA = 0.5 / GENERAL_L
    S = 0.5 / GENERAL_L
    TEMPLATES = ("find_stationary", "characterize", "run_discrete", "integrate")
    COUNTS = {"find_stationary": 8, "characterize": 12, "run_discrete": 12, "integrate": 16}

    def slot_templates(self):
        return [t for t in self.TEMPLATES for _ in range(self.COUNTS[t])]

    def setup(self):
        from minimaxdyn import dynamics, problems, stability  # noqa: F401

        self.base_problem = problems.MinimaxProblem(
            d1=2, d2=2, value=general_value, grad=general_grad,
            lipschitz_bound=GENERAL_L, name="benchmark_general")
        self.problem = self.base_problem

    def instrument(self, tracer):
        self.problem = dataclasses.replace(
            self.base_problem,
            grad=tracer.wrap("problems.user_grad", self.base_problem.grad))

    def uninstrument(self):
        self.problem = self.base_problem

    def make_op(self, template, k, slot):
        from minimaxdyn import dynamics, stability

        z0, j = general_start(k)
        target = GENERAL_STATIONARY[j]
        key = f"{template}/{k}"
        if template == "find_stationary":
            def run():
                return dynamics.find_stationary(self.problem, z0, newton_tol=NEWTON_TOL)

            def digest(z):
                return {"point": _point(z)}

            def inv(z, d):
                res = float(np.linalg.norm(general_saddle_gradient(z)))
                return [] if res <= NEWTON_TOL else [f"Newton residual {res:.3e}"]
            return Op(key, "lib.find_stationary", run, digest, inv)
        if template == "characterize":
            def run():
                return stability.characterize_equilibrium(self.problem, target)

            def digest(rep):
                return _rounded({
                    "predictions": dict(rep.predictions),
                    "observed": {m: [v.verdict, v.tau_star] for m, v in rep.observed.items()},
                    "strict_non_minimax": bool(rep.strict_non_minimax),
                    "r": int(rep.r),
                    "counts": list(rep.curves.counts()),
                    "mismatches": list(rep.mismatches),
                })

            def inv(rep, d):
                out = []
                for mode, pred in d["predictions"].items():
                    if pred != d["observed"][mode][0]:
                        out.append(f"{mode}: predicted {pred}, observed "
                                   f"{d['observed'][mode][0]}")
                if d["mismatches"]:
                    out.append(f"mismatches: {d['mismatches']}")
                return out
            return Op(key, "lib.characterize_equilibrium", run, digest, inv)
        if template == "run_discrete":
            params = dynamics.MethodParams(method="eg_tt", eta=self.ETA, tau=self.TAU)

            def run():
                return dynamics.run_discrete(self.problem, z0, params, max_iters=370,
                                             record=False)
        else:
            def run():
                return dynamics.integrate(self.problem, "eg_tt", z0, s=self.S, tau=self.TAU,
                                          dt=0.2, t_end=12.0, tol_conv=1e-4)

        def digest(traj):
            term = traj.termination.reason
            return {"termination": term, "steps": int(traj.times[-1]) if
                    template == "run_discrete" else len(traj.times) - 1,
                    "end": _point(traj.states[-1]) if term == "converged" else None}

        def inv(traj, d):
            if d["termination"] != "converged":
                return []
            res = float(np.linalg.norm(general_saddle_gradient(traj.states[-1])))
            tol = 1e-4 if template == "integrate" else 1e-10
            return [] if res <= tol * (1 + 1e-9) else [f"converged with residual {res:.3e}"]
        return Op(key, f"lib.{template}", run, digest, inv)


WORKLOADS = {w.name: w for w in (EnsembleDiscrete, EnsembleOde, ClassifySweep,
                                 GeneralProblem)}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_op(op: Op, result, reference: dict) -> list:
    """Failure messages for one op's result; empty when it passed."""
    try:
        digest = json.loads(json.dumps(op.digest(result)))
        out = op.invariants(result, digest)
    except Exception as exc:  # missing or malformed output fails the op
        if isinstance(result, CliResult) and result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()[:200]}"]
        return [f"unreadable output: {exc!r}"]
    want = reference.get(op.key)
    if want is None:
        return out + [f"no reference entry for {op.key}"]
    return out + diff_digest(digest, want)
