"""Discrete steppers, ODE fields, trajectory drivers, and a Newton solver.

Methods, with timescale weights Lam_tau = diag{(1/tau) I_d1, I_d2}:

    gda_tt     z+ = z - eta Lam_tau F(z)
    eg_tt      z+ = z - eta Lam_tau F(z - eta Lam_tau F(z))
    ode_plain  dz/dt = -F(z)
    ode_eg     dz/dt = -(I + s DF(z))^{-1} F(z)
    ode_eg_tt  dz/dt = -(I + s Lam_tau DF(z))^{-1} Lam_tau F(z)

ode_eg is ode_eg_tt at tau = 1.  Integration is fixed-step classical RK4;
the fields are smooth and desk-scale, so reproducibility beats adaptivity.

The discrete methods run on a lockstep engine: an (m, d) array of members is
stepped in chunks of LOCKSTEP_CHUNK steps with no checks inside a chunk, and
each member's stopping index is found afterwards from the chunk's buffers.
A single run is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import MinimaxProblem, jacobian_F, saddle_gradient

DISCRETE_METHODS = ("gda_tt", "eg_tt")
FIELD_KINDS = {"ode_plain": "plain", "ode_eg": "eg", "ode_eg_tt": "eg_tt"}  # method -> field
METHODS = DISCRETE_METHODS + tuple(FIELD_KINDS)

TOL_CONV_DEFAULT = 1e-10
DIVERGE_NORM_DEFAULT = 1e8
SOLVE_COND_LIMIT = 1e12
LOCKSTEP_CHUNK = 64           # steps between termination checks
LOCKSTEP_BUFFER = 1 << 20     # floats per chunk buffer (at least two samples)


class SingularOperatorError(np.linalg.LinAlgError):
    """A linear solve hit a numerically singular operator.

    For the EG fields this signals s ||DF|| too close to 1.
    """


class NewtonError(RuntimeError):
    """Newton iteration failed to reach the requested residual."""


@dataclass(frozen=True)
class MethodParams:
    """Parameter bundle for one method run.

    eta: discrete step size; s: continuous step (s = eta/2 matches one EG
    step to first order); tau >= 1: timescale separation; dt: integrator
    step for the ODE methods.
    """

    method: str
    eta: float | None = None
    s: float | None = None
    tau: float = 1.0
    dt: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tau < 1.0:
            raise ValueError("tau must be >= 1")

    def validate(self, problem: MinimaxProblem) -> None:
        """Check the step-size hypotheses against the problem's L."""
        L = problem.lipschitz_bound
        if self.method in DISCRETE_METHODS:
            if self.eta is None or not (0.0 < self.eta < 1.0 / L):
                raise ValueError(
                    f"{self.method} requires 0 < eta < 1/L = {1.0 / L:.6g}, got {self.eta}"
                )
        elif self.method in ("ode_eg", "ode_eg_tt"):
            if self.s is None or not (0.0 < self.s < 1.0 / L):
                raise ValueError(
                    f"{self.method} requires 0 < s < 1/L = {1.0 / L:.6g}, got {self.s}"
                )
        if self.method.startswith("ode") and self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class Termination:
    reason: str  # "converged" | "diverged" | "nonfinite" | "max_iters" | "t_end"
    point: np.ndarray | None = None
    residual: float | None = None
    threshold: float | None = None
    step: int | None = None  # index of the sample the run stopped at


@dataclass
class Trajectory:
    """Recorded iterate sequence; times are step indices or ODE times."""

    times: np.ndarray
    states: np.ndarray
    f_norms: np.ndarray
    termination: Termination
    params: MethodParams

    @property
    def points(self):
        return list(zip(self.times, self.states))

    def __len__(self) -> int:
        return len(self.times)


def timescale_weights(d1: int, d2: int, tau: float) -> np.ndarray:
    """Diagonal of Lam_tau as a vector."""
    w = np.ones(d1 + d2)
    w[:d1] = 1.0 / tau
    return w


def _row_field(problem: MinimaxProblem):
    """Evaluator field(Z, out=None, live=None) of F on each row of an (m, d) array.

    Quadratic problems use F = Z H' with H built once; for m = 1 this is the
    same BLAS product as saddle_gradient, so the two agree bit for bit.
    Other problems call saddle_gradient on the rows selected by the mask
    live (all by default) and leave NaN in the others, so a user's grad is
    never called past the point where a member stops.
    """
    if problem.quadratic is not None:
        HT = problem.quadratic.hessian().T
        return lambda Z, out=None, live=None: np.matmul(Z, HT, out=out)

    def rows(Z, out=None, live=None):
        out = np.empty_like(Z) if out is None else out
        for i in range(len(Z)):
            out[i] = saddle_gradient(problem, Z[i]) if live is None or live[i] else np.nan
        return out
    return rows


def _moving(Z, F, tol_conv: float, diverge_norm: float) -> list:
    """Per row, whether the stopping rule lets it take another step.

    Row by row in Python, which costs less than array calls for the few
    rows of a typical batch; the norms are those of np.linalg.norm.
    """
    moving = []
    for i in range(len(Z)):
        f, z = F[i], Z[i]
        moving.append(tol_conv < math.sqrt(f.dot(f)) < math.inf
                      and math.sqrt(z.dot(z)) < diverge_norm)
    return moving


def _descend(z, F, eta, lam, out):
    """out = z - eta * (lam * F), in this operation order, without temporaries.

    eta and lam come as arrays of the shape of z: same-shape operands skip
    the broadcasting set-up that dominates ufunc calls on a few rows.
    """
    np.multiply(lam, F, out)
    np.multiply(eta, out, out)
    return np.subtract(z, out, out)


def _as_states(problem: MinimaxProblem, Z, name: str) -> np.ndarray:
    Z = np.array(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != problem.dim:
        raise ValueError(f"{name} must have shape (n, {problem.dim}), got {Z.shape}")
    return Z


def step_gda_tt(problem: MinimaxProblem, z, eta: float, tau: float = 1.0) -> np.ndarray:
    z = _as_states(problem, [z], "z")
    lam = timescale_weights(problem.d1, problem.d2, tau)
    return (z - eta * (lam * _row_field(problem)(z)))[0]


def step_eg_tt(problem: MinimaxProblem, z, eta: float, tau: float = 1.0) -> np.ndarray:
    z = _as_states(problem, [z], "z")
    lam = timescale_weights(problem.d1, problem.d2, tau)
    field = _row_field(problem)
    mid = z - eta * (lam * field(z))
    return (z - eta * (lam * field(mid)))[0]


def _solve_checked(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(M)  # one per matrix of a stack
    ok = cond <= SOLVE_COND_LIMIT  # False for NaN and inf too
    if not ok.all():
        raise SingularOperatorError(
            f"linear operator numerically singular (cond ~ {np.extract(~ok, cond)[0]:.3e})"
        )
    return np.linalg.solve(M, rhs)


def _field(problem: MinimaxProblem, kind: str, s: float | None = None, tau: float = 1.0):
    """Evaluator z -> ode_field(problem, kind, z, s, tau) for one run.

    On a quadratic problem the EG fields build I + s Lam_tau H once and
    check its condition on the first call (a run that takes no step raises
    nothing); each call then costs one saddle_gradient and one solve, the
    same numpy calls as a fresh build, so every value is the same.
    """
    if kind not in FIELD_KINDS.values():
        raise ValueError(f"unknown field kind {kind!r}")
    if kind == "plain":
        return lambda z: -saddle_gradient(problem, z)
    if s is None or s <= 0:
        raise ValueError("eg fields require s > 0")
    lam = timescale_weights(problem.d1, problem.d2, 1.0 if kind == "eg" else tau)
    if problem.quadratic is None:
        def field(z):
            F = saddle_gradient(problem, z)
            M = np.eye(problem.dim) + s * (lam[:, None] * jacobian_F(problem, z))
            return -_solve_checked(M, lam * F)
        return field
    M = np.eye(problem.dim) + s * (lam[:, None] * problem.quadratic.hessian())
    solve = _solve_checked  # checks the condition of M on the first call only

    def field(z):
        nonlocal solve
        v = -solve(M, lam * saddle_gradient(problem, z))
        solve = np.linalg.solve
        return v
    return field


def ode_field(problem: MinimaxProblem, kind: str, z, s: float | None = None,
              tau: float = 1.0) -> np.ndarray:
    """Vector field of the named continuous system at z."""
    return _field(problem, kind, s, tau)(_as_states(problem, [z], "z")[0])


def _rk4_step(field, z, dt) -> np.ndarray:
    k1 = field(z)
    k2 = field(z + 0.5 * dt * k1)
    k3 = field(z + 0.5 * dt * k2)
    k4 = field(z + dt * k3)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(problem: MinimaxProblem, kind: str, z0, s: float | None = None,
              tau: float = 1.0, dt: float = 1e-2, t_end: float = 10.0,
              tol_conv: float = TOL_CONV_DEFAULT,
              diverge_norm: float = DIVERGE_NORM_DEFAULT) -> Trajectory:
    """Classical RK4 on the chosen field, sampled every step.

    Stops with the rule of run_discrete_batch; the state at t_end is tested for
    convergence and non-finiteness only.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    z = np.asarray(z0, dtype=float).copy()
    method = next((m for m, k in FIELD_KINDS.items() if k == kind), None)
    if method is None:
        raise ValueError(f"unknown field kind {kind!r}")
    params = MethodParams(method=method, s=s, tau=tau, dt=dt)
    params.validate(problem)
    field = _field(problem, kind, s, tau)

    times = [0.0]
    states = [z.copy()]
    fnorms = [float(np.linalg.norm(saddle_gradient(problem, z)))]
    t = 0.0
    n_steps = int(round(t_end / dt))
    for k in range(n_steps + 1):
        znorm = float(np.linalg.norm(z))
        if fnorms[-1] <= tol_conv:
            term = Termination("converged", point=z.copy(), residual=fnorms[-1], step=k)
            break
        if k < n_steps and znorm >= diverge_norm:
            term = Termination("diverged", threshold=diverge_norm, step=k)
            break
        if not math.isfinite(fnorms[-1] + znorm):
            term = Termination("nonfinite", step=k)
            break
        if k == n_steps:
            term = Termination("t_end", step=k)
            break
        z = _rk4_step(field, z, dt)
        t += dt
        times.append(t)
        states.append(z.copy())
        fnorms.append(float(np.linalg.norm(saddle_gradient(problem, z))))
    return Trajectory(np.array(times), np.array(states), np.array(fnorms), term, params)


_REASONS = ("converged", "diverged", "nonfinite", "max_iters")


def run_discrete_batch(problem: MinimaxProblem, Z0, params: MethodParams,
                       tol_conv: float = TOL_CONV_DEFAULT, max_iters: int = 10000,
                       diverge_norm: float = DIVERGE_NORM_DEFAULT,
                       record: bool = False) -> list[Trajectory]:
    """Run each row of Z0 as one member of a discrete method, all in lockstep.

    A member stops at its first index k with, in this order of precedence,
    ||F(z_k)|| <= tol_conv (converged), ||z_k|| >= diverge_norm (diverged),
    or a non-finite ||F(z_k)|| or ||z_k|| (nonfinite).  The state reached
    after max_iters steps is tested for convergence and non-finiteness
    only, and otherwise ends the run at max_iters.  Live members advance
    through chunks of LOCKSTEP_CHUNK steps (fewer for large m * d); after
    each chunk the stopped ones are dropped.  A member's float operations do
    not depend on the batch, except for BLAS summation order in F = Z H'
    with a dense H.  With record=False a trajectory keeps only its initial
    and final states.
    """
    if params.method not in DISCRETE_METHODS:
        raise ValueError(f"run_discrete needs a discrete method, got {params.method!r}")
    params.validate(problem)
    Z0 = _as_states(problem, Z0, "Z0")
    n, d = Z0.shape
    eta = float(params.eta)
    lam = timescale_weights(problem.d1, problem.d2, float(params.tau))
    field = _row_field(problem)
    quadratic = problem.quadratic is not None  # F is cheap and total: no masking
    is_eg = params.method == "eg_tt"
    K = max(int(max_iters), 0)

    steps, codes = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    Z_end, f_end, f_start = np.empty_like(Z0), np.empty(n), np.empty(n)
    history = [[] for _ in range(n if record else 0)]  # (states, F norms) per chunk
    with np.errstate(all="ignore"):  # members past diverge_norm may overflow
        ids, k0, Z, F = np.arange(n), 0, Z0, field(Z0)
        while ids.size:
            m = ids.size
            c = min(LOCKSTEP_CHUNK, max(1, LOCKSTEP_BUFFER // (m * d) - 1), K - k0)
            Zb, Fb = np.empty((c + 1, m, d)), np.empty((c + 1, m, d))
            Zb[0], Fb[0] = Z, F
            Zr, Fr, F_mid = list(Zb), list(Fb), np.empty((m, d))
            eta_m, lam_m = np.full((m, d), eta), lam * np.ones((m, 1))
            for i in range(c):
                live = None if quadratic else _moving(Zr[i], Fr[i], tol_conv, diverge_norm)
                if live is not None and not any(live):  # all stopped by sample i
                    Zb[i + 1:], Fb[i + 1:] = np.nan, np.nan
                    break
                _descend(Zr[i], Fr[i], eta_m, lam_m, Zr[i + 1])
                if is_eg:  # Zr[i + 1] holds the midpoint
                    field(Zr[i + 1], F_mid, live)
                    _descend(Zr[i], F_mid, eta_m, lam_m, Zr[i + 1])
                field(Zr[i + 1], Fr[i + 1], live)
            fn = np.sqrt(np.vecdot(Fb, Fb))  # bit-equal to np.linalg.norm per row
            zn = np.sqrt(np.vecdot(Zb, Zb))
            if k0 == 0:
                f_start[:] = fn[0]
            conv, div, nonfinite = fn <= tol_conv, zn >= diverge_norm, ~np.isfinite(fn + zn)
            stop = conv | div | nonfinite
            # sample c is the next chunk's first, unless it is the one after
            # max_iters, which ends every run and is not tested for divergence
            div[c], stop[c] = False, k0 + c == K
            if record:
                for col, i in enumerate(ids.tolist()):
                    history[i].append((Zb[:, col], fn[:, col]))
            ended = stop.any(axis=0)
            Z, F = Zb[c], Fb[c]
            if ended.any():
                j, done = stop.argmax(axis=0)[ended], ids[ended]
                steps[done] = k0 + j
                codes[done] = np.where(conv[j, ended], 0, np.where(
                    div[j, ended], 1, np.where(nonfinite[j, ended], 2, 3)))
                Z_end[done], f_end[done] = Zb[j, ended], fn[j, ended]
                ids, Z, F = ids[~ended], Z[~ended], F[~ended]
            k0 += c

    out = []
    for i, k in enumerate(steps.tolist()):
        term = Termination(_REASONS[codes[i]], step=k)
        if term.reason == "converged":
            term.point, term.residual = Z_end[i].copy(), float(f_end[i])
        elif term.reason == "diverged":
            term.threshold = diverge_norm
        if record:  # a chunk's last sample is also the next one's first
            parts = history[i][:-1]
            times = np.arange(k + 1)
            states = np.concatenate([z[:-1] for z, _ in parts] + [history[i][-1][0]])[:k + 1]
            fnorms = np.concatenate([f[:-1] for _, f in parts] + [history[i][-1][1]])[:k + 1]
        else:
            times = np.array([0, k] if k else [0])
            states = np.array([Z0[i], Z_end[i]])[:len(times)]
            fnorms = np.array([f_start[i], f_end[i]])[:len(times)]
        out.append(Trajectory(times, states, fnorms, term, params))
    return out


def run_discrete(problem: MinimaxProblem, z0, params: MethodParams,
                 tol_conv: float = TOL_CONV_DEFAULT, max_iters: int = 10000,
                 diverge_norm: float = DIVERGE_NORM_DEFAULT,
                 record: bool = True) -> Trajectory:
    """Iterate a discrete stepper until convergence, divergence, or max_iters.

    The stopping rule is that of run_discrete_batch, of which this is a
    batch of one.  With record=False only the initial and final states are
    kept.
    """
    return run_discrete_batch(problem, [z0], params, tol_conv=tol_conv,
                              max_iters=max_iters, diverge_norm=diverge_norm,
                              record=record)[0]


def find_stationary(problem: MinimaxProblem, z0, newton_tol: float = 1e-10,
                    newton_max: int = 50) -> np.ndarray:
    """Newton's method on F(z) = 0, for locating equilibria to classify."""
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(newton_max):
        F = saddle_gradient(problem, z)
        if np.linalg.norm(F) <= newton_tol:
            return z
        H = jacobian_F(problem, z)
        z = z - _solve_checked(H, F)
    F = saddle_gradient(problem, z)
    if np.linalg.norm(F) <= newton_tol:
        return z
    raise NewtonError(
        f"no stationary point within {newton_max} iterations "
        f"(residual {np.linalg.norm(F):.3e})"
    )


def replay_deviation(problem: MinimaxProblem, traj: Trajectory) -> float:
    """Max deviation when re-applying the update rule to each recorded state.

    Zero for trajectories recorded every step, since the same float ops are
    replayed.
    """
    p = traj.params
    if p.method in DISCRETE_METHODS:
        step = step_gda_tt if p.method == "gda_tt" else step_eg_tt

        def advance(z):
            return step(problem, z, p.eta, p.tau)
    else:
        field = _field(problem, FIELD_KINDS[p.method], p.s, p.tau)

        def advance(z):
            return _rk4_step(field, z, p.dt)
    worst = 0.0
    for a, b in zip(traj.states[:-1], traj.states[1:]):
        worst = max(worst, float(np.max(np.abs(advance(a) - b))))
    return worst


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header step,t,z_0,...,z_{d-1},F_norm; one row per sample."""
    d = traj.states.shape[1]
    cols = ",".join(f"z_{i}" for i in range(d))
    with open(path, "w") as fh:
        fh.write(f"step,t,{cols},F_norm\n")
        for i, (t, z, fn) in enumerate(zip(traj.times, traj.states, traj.f_norms)):
            zs = ",".join(repr(float(v)) for v in z)
            fh.write(f"{i},{float(t)!r},{zs},{float(fn)!r}\n")
