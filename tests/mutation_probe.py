#!/usr/bin/env python3
"""Run one-line mutants of src/ against the Tier-1 suite and report which are killed.

Each mutant replaces one fragment, which must occur exactly once, in one
file of src/minimaxdyn.  For each mutant the repository (less .git and
caches) is copied to a temporary directory, the fragment is replaced there,
and `python -m pytest -x -q` runs in the copy, whose pyproject puts the
copy's src/ first on the path.  A mutant is killed when pytest fails, or
when it runs past TIMEOUT_S (as it does under a mutant that makes the
engine loop), and then pytest's whole process group is killed; it survives
when every test passes.  The working tree is never edited.

Pytest does not collect this file (no test_ prefix).  The whole table takes
a few minutes; give mutant names to run only those.  The exit status is 0
when every mutant run was killed.

Usage: python tests/mutation_probe.py [NAME ...]
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_out", "out")
TIMEOUT_S = 120  # several times the whole suite's run

# name: (file under src/minimaxdyn, fragment, replacement)
MUTANTS = {
    "K_TAIL 5 -> 4": ("stability.py", "K_TAIL = 5", "K_TAIL = 4"),
    "K_TAIL 5 -> 7": ("stability.py", "K_TAIL = 5", "K_TAIL = 7"),
    "_CROSS_CHECK_GUARD 1e-9 -> 1e-3": ("stability.py", "_CROSS_CHECK_GUARD = 1e-9",
                                        "_CROSS_CHECK_GUARD = 1e-3"),
    "MARGINAL_TOL 1e-8 -> 1e-6": ("stability.py", "MARGINAL_TOL = 1e-8", "MARGINAL_TOL = 1e-6"),
    "SIGMA_SEP_TOL 1e-6 -> 1e-2": ("spectral.py", "SIGMA_SEP_TOL = 1e-6", "SIGMA_SEP_TOL = 1e-2"),
    "repeated sigma: the max(1, max sigma) floor restored": (
        "spectral.py", "np.max(sigma, initial=0.0)", "np.max(sigma, initial=1.0)"),
    "iota pairs: both curves of each pair taken": (
        "stability.py", "np.flatnonzero(finest.imag > 0)", "np.flatnonzero(finest.imag != 0)"),
    "iota pairs: ascending order": ("stability.py", "np.argsort(-np.abs(finest[upper]))",
                                    "np.argsort(np.abs(finest[upper]))"),
    "singular-H check: cond limit x10": ("spectral.py", "if not cond <= HESSIAN_COND_LIMIT:",
                                         "if not cond <= 10 * HESSIAN_COND_LIMIT:"),
    "_rho_margin: mean for max": ("stability.py", "np.abs(jac_eigs).max(axis=-1)",
                                  "np.abs(jac_eigs).mean(axis=-1)"),
    "continuous Jacobian margin: min for max": (
        "stability.py",
        "eg_jacobian_continuous, lambda jac_eigs: -jac_eigs.real.max(axis=-1)",
        "eg_jacobian_continuous, lambda jac_eigs: -jac_eigs.real.min(axis=-1)"),
    "gda Lipschitz flag False -> True": ("stability.py", "_gda_jacobian, _rho_margin, False,",
                                         "_gda_jacobian, _rho_margin, True,"),
    "discrete shift sign: -eta/2 -> eta/2": ("stability.py", "_peanut_u, lambda eta: -eta / 2.0",
                                             "_peanut_u, lambda eta: eta / 2.0"),
    "gda threshold: sides swapped": ("stability.py", "lambda s0, eta: (-s0, eta / 2.0)",
                                     "lambda s0, eta: (eta / 2.0, -s0)"),
    "hemicurvature: flat extrapolation": ("spectral.py",
                                          "    t0, t1, t2 = np.sqrt(curves.eps[-3:])\n",
                                          "    return float(vals[-1])\n"),
    "hemicurvature: +-inf cutoff x10": ("spectral.py", "> 0.5 * curves.eps[-1] ** (-0.25)",
                                        "> 5.0 * curves.eps[-1] ** (-0.25)"),
    "slope bands: centres 0.5 <-> 1.0": ("spectral.py", "np.array([0.5, 1.0, 0.0])",
                                         "np.array([1.0, 0.5, 0.0])"),
    "slope fit: two-point floor 2 -> 3": ("spectral.py", "k = max(2, np.count", "k = max(3, np.count"),
    "RK4: k3 weight 2 -> 1": ("dynamics.py", "add(S, mul(2.0, k3, Y), S)",
                              "add(S, mul(1.0, k3, Y), S)"),
    "run_batch: divergence tested at max_iters": (
        "dynamics.py", "div[c], stop[c] = False, k0 + c == max_iters",
        "stop[c] = k0 + c == max_iters"),
    "run_batch: cut chunk takes the nobody-stopped shortcut (loops)": (
        "dynamics.py", "if cut or not (0 < k0", "if not (0 < k0"),
    "run_batch: cut sample not tested for divergence": (
        "dynamics.py", "                if not cut:  # sample c",
        "                div[c] = False\n                if not cut:  # sample c"),
    "_moving: every row read, no early return": (
        "dynamics.py", "            return True\n    return False",
        "            moving = True\n    return 'moving' in locals()"),
    "run_batch: non-quadratic members in lockstep": (
        "dynamics.py", "if problem.quadratic is None and n > 1:",
        "if problem.quadratic is None and n < 1:"),
    "SOLVE_COND_LIMIT 1e12 -> 1e20": ("dynamics.py", "SOLVE_COND_LIMIT = 1e12",
                                      "SOLVE_COND_LIMIT = 1e20"),
    "SOLVE_COND_LIMIT 1e12 -> 1e6": ("dynamics.py", "SOLVE_COND_LIMIT = 1e12",
                                     "SOLVE_COND_LIMIT = 1e6"),
    "tau row: 1 <= tau -> 1 < tau": ("dynamics.py", "lambda v: (1.0 <= v) & (v < math.inf)",
                                      "lambda v: (1.0 < v) & (v < math.inf)"),
    "check_step: step < 1/L -> step <= 1/L": ("dynamics.py", "not 0.0 < step < 1.0 / L",
                                              "not 0.0 < step <= 1.0 / L"),
    "verdict_table: Lipschitz step checked by its range row only": (
        "stability.py", "            check_step(m.step, step, norm)\n",
        "            check_ranges(**{m.step: step})\n"),
    "integer test: a bool is an integer": (
        "problems.py", "isinstance(v, (int, np.integer)) and not isinstance(v, bool)",
        "isinstance(v, (int, np.integer))"),
    "subspace oracle: n_samples >= 1 -> >= 0": ("spectral.py", "n_samples >= 1):",
                                                "n_samples >= 0):"),
    "s_0: no sqrt-order curve gives 0, not -inf": (
        "spectral.py", 'default=float("-inf")', "default=0.0"),
    "u_S_u: every sigma reads the first singular vector": (
        "spectral.py", "self.S @ self.U_sigma[:, j])", "self.S @ self.U_sigma[:, 0])"),
    "finite-difference step: sqrt(eps) for cbrt(eps)": (
        "problems.py", "_CBRT_EPS = float(np.cbrt(np.finfo(float).eps))",
        "_CBRT_EPS = float(np.sqrt(np.finfo(float).eps))"),
}


def run_mutant(name: str, tmp: str) -> tuple[bool, str]:
    """(killed, the first failing test or pytest's last line) of one mutant."""
    file, old, new = MUTANTS[name]
    copy = os.path.join(tmp, "repo")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    path = os.path.join(copy, "src", "minimaxdyn", file)
    with open(path) as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"mutant {name!r}: {old!r} occurs {text.count(old)} times in {file}")
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                            cwd=copy, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)  # its own process group, children included
    try:
        out = proc.communicate(timeout=TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return True, f"timed out after {TIMEOUT_S} s"
    lines = out.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode != 0, (failed or lines or [""])[-1]


def main(names) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    names = names or list(MUTANTS)
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            start = time.perf_counter()
            dead, detail = run_mutant(name, tmp)
            killed += dead
            print(f"{'killed  ' if dead else 'SURVIVED'} {name} "
                  f"({time.perf_counter() - start:.0f} s): {detail}", flush=True)
    print(f"score: {killed} of {len(names)} mutants killed")
    return 0 if killed == len(names) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
