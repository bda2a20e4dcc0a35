"""Discrete steppers, ODE fields, one lockstep driver, and a Newton solver.

Methods, with timescale weights Lam_tau = diag{(1/tau) I_d1, I_d2}:

    gda_tt     z+ = z - eta Lam_tau F(z)
    eg_tt      z+ = z - eta Lam_tau F(z - eta Lam_tau F(z))
    ode_plain  dz/dt = -F(z)
    ode_eg     dz/dt = -(I + s DF(z))^{-1} F(z)
    ode_eg_tt  dz/dt = -(I + s Lam_tau DF(z))^{-1} Lam_tau F(z)

ode_eg is ode_eg_tt at tau = 1.  The ODE methods take fixed classical RK4
steps of dt (DT_DEFAULT when unset); the fields are smooth and desk-scale,
so reproducibility beats adaptivity.

All five methods run on one lockstep engine, run_batch: an (m, d) array of
members is stepped in chunks of LOCKSTEP_CHUNK steps, and each member's
stopping index is found after each chunk from the chunk's buffers.  The
only per-method part is the stepper: one descent (two for EG) for the
discrete methods, one RK4 step over the rows for the ODE methods.
run_discrete and integrate are batches of one; step_gda_tt, step_eg_tt and
replay_deviation take single steps of the same stepper, and ode_field is
one evaluation of its velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .problems import MinimaxProblem, _grad, jacobian_F, saddle_gradient

DISCRETE_METHODS = ("gda_tt", "eg_tt")
FIELD_KINDS = {"ode_plain": "plain", "ode_eg": "eg", "ode_eg_tt": "eg_tt"}  # method -> field
METHODS = DISCRETE_METHODS + tuple(FIELD_KINDS)

TOL_CONV_DEFAULT = 1e-10
DIVERGE_NORM_DEFAULT = 1e8
DT_DEFAULT = 1e-2
SOLVE_COND_LIMIT = 1e12
LOCKSTEP_CHUNK = 64           # steps between termination checks
LOCKSTEP_BUFFER = 1 << 20     # floats per chunk buffer (at least two samples)


class SingularOperatorError(np.linalg.LinAlgError):
    """A linear solve hit a numerically singular or non-finite operator.

    For the EG fields this signals s ||DF|| too close to 1.
    """


class NewtonError(RuntimeError):
    """Newton iteration failed to reach the requested residual."""


@dataclass(frozen=True)
class MethodParams:
    """Parameter bundle for one method run.

    eta: discrete step size; s: continuous step (s = eta/2 matches one EG
    step to first order); tau >= 1: timescale separation; dt: integrator
    step for the ODE methods (DT_DEFAULT when None).
    """

    method: str
    eta: float | None = None
    s: float | None = None
    tau: float = 1.0
    dt: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
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
        if self.method.startswith("ode") and self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")


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
    Other problems call grad on the rows selected by the mask live (all by
    default) and leave NaN in the others, so a user's grad is never called
    past the point where a member stops.
    """
    if problem.quadratic is not None:
        HT = problem.quadratic.hessian().T
        return lambda Z, out=None, live=None: np.matmul(Z, HT, out=out)

    def rows(Z, out=None, live=None):
        out = np.empty_like(Z) if out is None else out
        for i in range(len(Z)):
            out[i] = _grad(problem, Z[i]) if live is None or live[i] else np.nan
        np.negative(out[:, problem.d1:], out=out[:, problem.d1:])
        return out
    return rows


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve(M, rhs) for float64 arrays, without its type dispatch.

    Calls the same LAPACK gesv gufunc under the same error state, so the
    bits and the singular-matrix LinAlgError are those of np.linalg.solve.
    """
    gufunc = _umath_linalg.solve1 if rhs.ndim == 1 else _umath_linalg.solve
    return gufunc(M, rhs, signature="dd->d")


def _solve_checked(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # ||M - I||_F <= 1/2 puts every singular value of M in [1/2, 3/2] (Weyl),
    # so cond(M) <= 3 and the SVD behind cond is skipped; NaN and inf fail it
    D = M - np.eye(M.shape[-1])
    if not ((D * D).sum(axis=(-2, -1)) <= 0.25).all():
        if not np.isfinite(M).all():  # cond's SVD would fail on it
            raise SingularOperatorError("linear operator has non-finite entries")
        cond = np.linalg.cond(M)  # one per matrix of a stack
        ok = cond <= SOLVE_COND_LIMIT
        if not ok.all():
            raise SingularOperatorError(
                f"linear operator numerically singular (cond ~ {np.extract(~ok, cond)[0]:.3e})")
    return _solve(M, rhs)


def _velocity(problem: MinimaxProblem, params: MethodParams, field):
    """Evaluator v(Y, F=None, live=None) of the method's ODE field on the rows of Y.

    F, if given, is field(Y), which the caller already has.  On a quadratic
    problem every row is evaluated, and the EG fields build M = I + s Lam_tau H
    once and check its condition on the first call (a run that takes no step
    raises nothing); each call then makes one stacked solve against M.  Other
    problems solve against I + s Lam_tau DF(y) row by row; rows where live is
    false get NaN and cost no grad call.
    """
    kind = FIELD_KINDS[params.method]
    if kind == "plain":
        return lambda Y, F=None, live=None: np.negative(field(Y, live=live) if F is None else F)
    s = params.s
    if s is None or s <= 0:
        raise ValueError("eg fields require s > 0")
    lam = timescale_weights(problem.d1, problem.d2, 1.0 if kind == "eg" else params.tau)
    if problem.quadratic is None:
        eye, lam_col = np.eye(problem.dim), lam[:, None]

        def rows(Y, F=None, live=None):
            F = field(Y, live=live) if F is None else F
            out = np.empty_like(Y)
            for i, y in enumerate(Y):
                out[i] = (-_solve_checked(eye + s * (lam_col * jacobian_F(problem, y)), lam * F[i])
                          if live is None or live[i] else np.nan)
            return out
        return rows
    M = np.eye(problem.dim) + s * (lam[:, None] * problem.quadratic.hessian())
    solve = _solve_checked  # checks the condition of M on the first call only

    def stacked(Y, F=None, live=None):
        nonlocal solve
        out = solve(M, (lam * (field(Y) if F is None else F))[..., None])[..., 0]
        solve = _solve
        return np.negative(out, out)
    return stacked


def _descend(z, F, eta, lam, out):
    """out = z - eta * (lam * F), in this operation order, without temporaries.

    eta and lam come as arrays of the shape of z: same-shape operands skip
    the broadcasting set-up that dominates ufunc calls on a few rows.
    """
    np.multiply(lam, F, out)
    np.multiply(eta, out, out)
    return np.subtract(z, out, out)


def _stepper(problem: MinimaxProblem, params: MethodParams, field):
    """The method's one step, as rows(m) -> step(Z, F, out, live).

    step writes into out the states one step after the m rows of Z, given
    F = field(Z), and evaluates field only on the rows where live is true
    (all when live is None).  rows(m) is called once per chunk; what it
    builds around (eta, lam, the EG velocity and its checked operator) is
    built once per run.
    """
    if params.method in DISCRETE_METHODS:
        eta, d = float(params.eta), problem.dim
        lam = timescale_weights(problem.d1, problem.d2, float(params.tau))
        is_eg = params.method == "eg_tt"

        def rows(m):
            eta_m, lam_m, F_mid = np.full((m, d), eta), lam * np.ones((m, 1)), np.empty((m, d))

            def step(Z, F, out, live):
                _descend(Z, F, eta_m, lam_m, out)
                if is_eg:  # out holds the midpoint
                    field(out, F_mid, live)
                    _descend(Z, F_mid, eta_m, lam_m, out)
            return step
        return rows
    v, dt = _velocity(problem, params, field), params.dt or DT_DEFAULT

    def rk4(Z, F, out, live):
        k1 = v(Z, F, live)
        k2 = v(Z + 0.5 * dt * k1, None, live)
        k3 = v(Z + 0.5 * dt * k2, None, live)
        k4 = v(Z + dt * k3, None, live)
        np.add(Z, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out)
    return lambda m: rk4


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


def _as_states(problem: MinimaxProblem, Z, name: str) -> np.ndarray:
    Z = np.array(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != problem.dim:
        raise ValueError(f"{name} must have shape (n, {problem.dim}), got {Z.shape}")
    return Z


def run_batch(problem: MinimaxProblem, Z0, params: MethodParams,
              tol_conv: float = TOL_CONV_DEFAULT, max_iters: int = 10000,
              diverge_norm: float = DIVERGE_NORM_DEFAULT,
              record: bool = False) -> list[Trajectory]:
    """Run each row of Z0 as one member of the method, all in lockstep.

    A member stops at its first index k with, in this order of precedence,
    ||F(z_k)|| <= tol_conv (converged), ||z_k|| >= diverge_norm (diverged),
    or a non-finite ||F(z_k)|| or ||z_k|| (nonfinite).  The state reached
    after max_iters steps is tested for convergence and non-finiteness
    only, and otherwise ends the run at max_iters (t_end for the ODE
    methods, whose times are the running sum of dt).  Live members advance
    through chunks of LOCKSTEP_CHUNK steps (fewer for large m * d); after
    each chunk the stopped ones are dropped.  A member's float operations
    do not depend on the batch, except for BLAS summation order in F = Z H'
    with a dense H.  With record=False a trajectory keeps only its initial
    and final states.
    """
    params.validate(problem)
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    Z0 = _as_states(problem, Z0, "Z0")
    n, d = Z0.shape
    field = _row_field(problem)
    rows = _stepper(problem, params, field)
    discrete = params.method in DISCRETE_METHODS
    # a discrete step on a quadratic costs about as much as a check, so such
    # members are not checked before each step; every other batch stops as
    # soon as all its members have (quadratic evaluators ignore the mask)
    checked = problem.quadratic is None or not discrete
    K = int(max_iters)

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
            Zr, Fr, step = list(Zb), list(Fb), rows(m)
            for i in range(c):
                live = None
                if checked:
                    live = _moving(Zr[i], Fr[i], tol_conv, diverge_norm)
                    if not any(live):  # all stopped by sample i
                        Zb[i + 1:], Fb[i + 1:] = np.nan, np.nan
                        break
                step(Zr[i], Fr[i], Zr[i + 1], live)
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

    reasons = ("converged", "diverged", "nonfinite", "max_iters" if discrete else "t_end")
    top = int(steps.max(initial=0))  # times: step indices or the running sum of dt
    T = (np.arange(top + 1) if discrete
         else np.cumsum(np.r_[0.0, np.full(top, params.dt or DT_DEFAULT)]))
    out = []
    for i, k in enumerate(steps.tolist()):
        term = Termination(reasons[codes[i]], step=k)
        if term.reason == "converged":
            term.point, term.residual = Z_end[i].copy(), float(f_end[i])
        elif term.reason == "diverged":
            term.threshold = diverge_norm
        if record:  # a chunk's last sample is also the next one's first
            parts = history[i][:-1]
            times = T[:k + 1]
            states = np.concatenate([z[:-1] for z, _ in parts] + [history[i][-1][0]])[:k + 1]
            fnorms = np.concatenate([f[:-1] for _, f in parts] + [history[i][-1][1]])[:k + 1]
        else:
            times = T[[0, k] if k else [0]]
            states = np.array([Z0[i], Z_end[i]])[:len(times)]
            fnorms = np.array([f_start[i], f_end[i]])[:len(times)]
        out.append(Trajectory(times, states, fnorms, term, params))
    return out


def run_discrete(problem: MinimaxProblem, z0, params: MethodParams,
                 tol_conv: float = TOL_CONV_DEFAULT, max_iters: int = 10000,
                 diverge_norm: float = DIVERGE_NORM_DEFAULT,
                 record: bool = True) -> Trajectory:
    """Iterate a stepper until convergence, divergence, or max_iters.

    A batch of one of run_batch.  With record=False only the initial and
    final states are kept.
    """
    return run_batch(problem, [z0], params, tol_conv=tol_conv, max_iters=max_iters,
                     diverge_norm=diverge_norm, record=record)[0]


def _ode_method(kind: str) -> str:
    if kind not in FIELD_KINDS.values():
        raise ValueError(f"unknown field kind {kind!r}")
    return f"ode_{kind}"


def integrate(problem: MinimaxProblem, kind: str, z0, s: float | None = None,
              tau: float = 1.0, dt: float = DT_DEFAULT, t_end: float = 10.0,
              tol_conv: float = TOL_CONV_DEFAULT,
              diverge_norm: float = DIVERGE_NORM_DEFAULT) -> Trajectory:
    """Classical RK4 on the chosen field for round(t_end / dt) steps, sampled every step.

    A recorded batch of one of run_batch, so it stops with the same rule;
    the state at t_end is tested for convergence and non-finiteness only.
    """
    params = MethodParams(method=_ode_method(kind), s=s, tau=tau, dt=dt)
    params.validate(problem)  # dt divides t_end below
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    return run_batch(problem, [z0], params, tol_conv=tol_conv, max_iters=round(t_end / dt),
                     diverge_norm=diverge_norm, record=True)[0]


def _steps_from(problem: MinimaxProblem, params: MethodParams, states):
    """The state one step of the method after each given state, each as a batch of one."""
    field = _row_field(problem)
    step = _stepper(problem, params, field)(1)
    for z in _as_states(problem, states, "z")[:, None]:
        out = np.empty_like(z)
        step(z, field(z), out, None)
        yield out[0]


def step_gda_tt(problem: MinimaxProblem, z, eta: float, tau: float = 1.0) -> np.ndarray:
    return next(_steps_from(problem, MethodParams(method="gda_tt", eta=eta, tau=tau), [z]))


def step_eg_tt(problem: MinimaxProblem, z, eta: float, tau: float = 1.0) -> np.ndarray:
    return next(_steps_from(problem, MethodParams(method="eg_tt", eta=eta, tau=tau), [z]))


def ode_field(problem: MinimaxProblem, kind: str, z, s: float | None = None,
              tau: float = 1.0) -> np.ndarray:
    """Vector field of the named continuous system at z."""
    params = MethodParams(method=_ode_method(kind), s=s, tau=tau)
    return _velocity(problem, params, _row_field(problem))(_as_states(problem, [z], "z"))[0]


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
    """Max deviation when re-applying the method's step to each recorded state.

    Zero for trajectories recorded every step by a batch of one, since the
    same float ops are replayed.
    """
    steps = _steps_from(problem, traj.params, traj.states[:-1])
    return max([0.0, *(float(np.max(np.abs(a - b))) for a, b in zip(steps, traj.states[1:]))])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header step,t,z_0,...,z_{d-1},F_norm; one row per sample."""
    d = traj.states.shape[1]
    cols = ",".join(f"z_{i}" for i in range(d))
    with open(path, "w") as fh:
        fh.write(f"step,t,{cols},F_norm\n")
        rows = np.column_stack((traj.times, traj.states, traj.f_norms)).tolist()
        for i, row in enumerate(rows):
            fh.write(f"{i},{','.join(map(repr, row))}\n")
