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
run_discrete and integrate are batches of one, a run of max_iters = 1 is
one step of the stepper, and ode_field is one evaluation of its velocity.
Non-quadratic members run one at a time, each as a batch of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .problems import MinimaxProblem, _finite_point, _integer, _jacobian, _point, _saddle_rows

DISCRETE_METHODS = ("gda_tt", "eg_tt")
METHODS = DISCRETE_METHODS + ("ode_plain", "ode_eg", "ode_eg_tt")

TOL_CONV_DEFAULT = 1e-10
DIVERGE_NORM_DEFAULT = 1e8
DT_DEFAULT = 1e-2
SOLVE_COND_LIMIT = 1e12
LOCKSTEP_CHUNK = 64           # steps between termination checks, buffered once per live set
LOCKSTEP_BUFFER = 1 << 20     # floats per chunk buffer (at least two samples)


class SingularOperatorError(np.linalg.LinAlgError):
    """A linear solve hit a numerically singular or non-finite operator.

    For the EG fields this signals s ||DF|| too close to 1.
    """


class NewtonError(RuntimeError):
    """Newton iteration failed to reach the requested residual."""


# one row per run parameter: its test (NaN passes none; tau's also takes an array) and its wording
_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
_NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
RANGES = {
    "tau": (lambda v: (1.0 <= v) & (v < math.inf), "finite and >= 1"),
    **dict.fromkeys(("dt", "box", "cluster_tol", "target_tol", "s", "eta"), _POSITIVE),
    **dict.fromkeys(("tol_conv", "stationarity_tol", "t_end", "newton_tol"), _NONNEGATIVE),
    "diverge_norm": (lambda v: v > 0.0, "> 0"),  # inf: never
    **dict.fromkeys(("max_iters", "newton_max", "n", "seed"),
                    (lambda v: _integer(v) and v >= 0, "an integer >= 0")),
}
OPTIONAL = {"dt"}  # None stands for the default


def check_ranges(**values) -> None:
    """Raise a ValueError naming the first value outside its row of RANGES; an
    array (a grid of tau) names its first entry outside.  A bool is in no row,
    although True compares as 1."""
    for name, v in values.items():
        test, wording = RANGES[name]
        if isinstance(v, np.ndarray):
            ok = test(v)
            if not ok.all():
                raise ValueError(f"{name} must be {wording}, got {v.flat[ok.argmin()]}")
        elif isinstance(v, (bool, np.bool_)) or not (name in OPTIONAL if v is None else test(v)):
            raise ValueError(f"{name} must be {wording}, got {v}")


def _tau_floats(tau) -> np.ndarray:
    """tau, a scalar or a grid, as floats; a bool entry (True reads as 1) fails the tau row."""
    for v in np.asarray(tau, dtype=object).flat:
        if isinstance(v, (bool, np.bool_)):
            check_ranges(tau=v)
    return np.asarray(tau, dtype=float)


def check_step(name: str, step, L: float) -> None:
    """The step-size hypothesis of every method: 0 < step < 1/L (a bool is no step)."""
    if step is None or isinstance(step, (bool, np.bool_)) or not 0.0 < step < 1.0 / L:
        raise ValueError(f"{name} must lie in (0, 1/L) = (0, {1.0 / L:.6g}), got {step}")


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
        check_ranges(tau=self.tau, dt=self.dt)

    def validate(self, problem: MinimaxProblem) -> None:
        """Check the step-size hypothesis against the problem's L."""
        if self.method != "ode_plain":
            name = "eta" if self.method in DISCRETE_METHODS else "s"
            check_step(name, getattr(self, name), problem.lipschitz_bound)


@dataclass
class Termination:
    reason: str  # "converged" | "diverged" | "nonfinite" | "max_iters" | "t_end"
    step: int | None = None  # index of the sample the run stopped at


@dataclass
class Trajectory:
    """Recorded iterate sequence; times are step indices or ODE times."""

    times: np.ndarray
    states: np.ndarray
    f_norms: np.ndarray
    termination: Termination
    params: MethodParams

    def __len__(self) -> int:
        return len(self.times)


def timescale_weights(d1: int, d2: int, tau: float) -> np.ndarray:
    """Diagonal of Lam_tau as a vector."""
    return np.concatenate((np.full(d1, 1.0 / tau), np.ones(d2)))


def _row_field(problem: MinimaxProblem):
    """Evaluator field(Z, out=None) of F on each row of an (m, d) array.

    Quadratic problems compute F = Z H' as np.dot(Z, H.T, out), H built once:
    the bits of np.matmul(Z, H.T) and, for m = 1, of saddle_gradient.  np.dot
    wants out C-contiguous float64 and apart from Z, as chunk rows are.  Other
    problems run _saddle_rows, one grad call per row.
    """
    if problem.quadratic is not None:
        HT, dot = problem.quadratic.hessian().T, np.dot
        return lambda Z, out=None: dot(Z, HT, out)
    return _saddle_rows(problem)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(M: np.ndarray, rhs: np.ndarray, *out) -> np.ndarray:
    """np.linalg.solve(M, rhs) for float64 arrays, without its type dispatch.

    Calls the same LAPACK gesv gufunc under the same error state, so the
    bits and the singular-matrix LinAlgError are those of np.linalg.solve.
    An output array, if given, may be rhs itself.
    """
    gufunc = _umath_linalg.solve1 if rhs.ndim == 1 else _umath_linalg.solve
    return gufunc(M, rhs, *out, signature="dd->d")


@functools.cache
def _identity(n: int) -> np.ndarray:
    return np.broadcast_to(np.eye(n), (n, n))  # a read-only view


def _solve_checked(M: np.ndarray, rhs: np.ndarray, *out, scratch=None) -> np.ndarray:
    # ||M - I||_F <= 1/2 puts every singular value of M in [1/2, 3/2] (Weyl): cond(M) <= 3, so
    # cond's SVD and solve's zero-pivot error state are both skipped; NaN and inf fail it
    D = np.subtract(M, _identity(M.shape[-1]), scratch)  # scratch: None or shaped like M
    if (np.vdot(D, D) <= 0.25 if M.ndim == 2  # one matrix: no .all() on a scalar
            else ((D * D).sum(axis=(-2, -1)) <= 0.25).all()):
        return _solve.__wrapped__(M, rhs, *out)
    if not np.isfinite(M).all():  # cond's SVD would fail on it
        raise SingularOperatorError("linear operator has non-finite entries")
    cond = np.linalg.cond(M)  # one per matrix of a stack
    ok = cond <= SOLVE_COND_LIMIT
    if not ok.all():
        raise SingularOperatorError(
            f"linear operator numerically singular (cond ~ {np.extract(~ok, cond)[0]:.3e})")
    return _solve(M, rhs, *out)


def _velocity(problem: MinimaxProblem, params: MethodParams, field):
    """Evaluator v(Y, F, out) of the method's ODE field on the rows of Y.

    v writes the velocity into out and returns it; F is field(Y), or None to
    evaluate it into out first.  Quadratic EG fields build M = I + s Lam_tau H
    once, check it on the first call (a run that takes no step raises nothing),
    then solve every row in place with the bare gesv gufunc, whose error state
    depends on M alone.  Other problems solve against I + s Lam_tau DF(y) row by
    row in per-run buffers.
    """
    if params.method == "ode_plain":
        return lambda Y, F, out: np.negative(field(Y, out) if F is None else F, out)
    s = params.s
    check_ranges(s=s)  # ode_field allows s >= 1/L
    tau = 1.0 if params.method == "ode_eg" else params.tau
    lam = timescale_weights(problem.d1, problem.d2, tau)
    if problem.quadratic is None:
        jac = _jacobian(problem)
        eye, lam_col = _identity(problem.dim), lam[:, None]
        J, M, D = np.empty((3, problem.dim, problem.dim))  # DF(y), the operator, M - I
        rhs = np.empty(problem.dim)

        def rows(Y, F, out):
            F = field(Y, out) if F is None else F  # row i is read before out[i] is set
            for i, y in enumerate(Y):
                np.multiply(lam_col, jac(y, J), M)
                np.add(np.multiply(s, M, M), eye, M)  # eye + s (lam J), bit for bit
                np.negative(_solve_checked(M, np.multiply(lam, F[i], rhs), scratch=D), out[i])
            return out
        return rows
    M = np.eye(problem.dim) + s * (lam[:, None] * problem.quadratic.hessian())
    solve = _solve_checked  # checks the condition of M on the first call only

    def stacked(Y, F, out):
        nonlocal solve
        R = np.multiply(lam, field(Y, out) if F is None else F, out)[..., None]
        solve(M, R, R)
        solve = _umath_linalg.solve
        return np.negative(out, out)
    return stacked


def _stepper(problem: MinimaxProblem, params: MethodParams, field):
    """The method's one step, as rows(m) -> step(Z, F, Znext, Fnext).

    step writes into Znext the states one step after the m rows of Z, given
    F = field(Z), and into Fnext their field.  rows(m) is called once per
    live set (again only when members drop out) and allocates its buffers,
    so a quadratic step allocates none; what it builds around (eta, lam, the
    EG velocity and its checked operator) is built once per run.
    """
    mul, add, sub = np.multiply, np.add, np.subtract
    if params.method in DISCRETE_METHODS:
        eta, d = float(params.eta), problem.dim
        lam = timescale_weights(problem.d1, problem.d2, float(params.tau))
        is_eg = params.method == "eg_tt"

        def rows(m):
            # same-shape eta and lam skip the broadcasting set-up of few-row ufuncs
            eta_m, lam_m, F_mid = np.full((m, d), eta), lam * np.ones((m, 1)), np.empty((m, d))

            def step(Z, F, Zn, Fn):
                mul(lam_m, F, Zn)  # Zn = Z - eta * (lam * F), in this order
                mul(eta_m, Zn, Zn)
                sub(Z, Zn, Zn)
                if is_eg:  # Zn holds the midpoint
                    mul(lam_m, field(Zn, F_mid), Zn)
                    mul(eta_m, Zn, Zn)
                    sub(Z, Zn, Zn)
                field(Zn, Fn)
            return step
        return rows
    v, dt = _velocity(problem, params, field), params.dt or DT_DEFAULT
    half, sixth = 0.5 * dt, dt / 6.0

    def rows(m):
        Y, S, k1, k2, k3, k4 = np.empty((6, m, problem.dim))  # stage point, weighted sum

        def rk4(Z, F, Zn, Fn):
            v(Z, F, k1)
            v(add(Z, mul(half, k1, Y), Y), None, k2)
            v(add(Z, mul(half, k2, Y), Y), None, k3)
            v(add(Z, mul(dt, k3, Y), Y), None, k4)
            add(k1, mul(2.0, k2, S), S)  # Zn = Z + (dt/6) (k1 + 2 k2 + 2 k3 + k4)
            add(S, mul(2.0, k3, Y), S)
            add(S, k4, S)
            add(Z, mul(sixth, S, S), Zn)
            field(Zn, Fn)
        return rk4
    return rows


def _rescaled(x, norm: float) -> float:
    """norm = sqrt(x.x) of a row x, or, where x.x overflows on finite entries,
    a * sqrt((x/a).(x/a)) with a = max|x|; inf then means the norm itself overflows."""
    if norm < math.inf or not np.isfinite(x).all():
        return norm
    a = float(np.abs(x).max())
    return a * math.sqrt((x / a).dot(x / a))


def _fix_norms(X, n) -> np.ndarray:
    """Correct in place the norms n = sqrt(x.x) of the rows x of X, and return isfinite(n):
    a NaN norm becomes +NaN (np.dot signs the NaN of F = Z H' at a NaN state by its row
    count), and a row whose squares overflow on finite entries is rescaled."""
    np.abs(n, n)
    for idx in zip(*np.nonzero(n == math.inf)):
        n[idx] = _rescaled(X[idx], n[idx])
    return np.isfinite(n)


def _moving(Z, F, tol_conv: float, diverge_norm: float) -> bool:
    """Whether the stopping rule, on the norms run_batch records, lets some row
    take another step; row by row in Python, up to the first row that can."""
    for f, z in zip(F, Z):
        if (tol_conv < _rescaled(f, math.sqrt(f.dot(f))) < math.inf
                and _rescaled(z, math.sqrt(z.dot(z))) < diverge_norm):
            return True
    return False


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
    ||F(z_k)|| <= tol_conv (converged), ||z_k|| >= diverge_norm < inf
    (diverged), or a non-finite ||F(z_k)|| or ||z_k|| (nonfinite).  The
    state reached after max_iters steps is tested for convergence and
    non-finiteness only, and otherwise ends the run at max_iters (t_end for the ODE
    methods, whose times are the running sum of dt).  Live members advance
    through chunks of LOCKSTEP_CHUNK steps (fewer for large m * d), one
    stepper call writing each next row of the chunk's state and F buffers;
    after each chunk the stopped ones are dropped (buffers are made once per
    live set, and a middle chunk where none stopped skips the stop pass).
    Members of a non-quadratic problem run one at a time, as batches of one,
    so grad is called member by member and never past a member's stop.  A
    member's float operations do not depend on the batch, except for BLAS
    summation order in F = Z H' with a dense H.  With record=False a trajectory
    keeps only its initial and final states; returned arrays share no memory.
    """
    params.validate(problem)
    check_ranges(tol_conv=tol_conv, max_iters=max_iters, diverge_norm=diverge_norm)
    Z0 = _as_states(problem, Z0, "Z0")
    n, d = Z0.shape
    if problem.quadratic is None and n > 1:
        return [run_batch(problem, z0[None], params, tol_conv, max_iters, diverge_norm,
                          record)[0] for z0 in Z0]
    field = _row_field(problem)
    rows = _stepper(problem, params, field)
    discrete = params.method in DISCRETE_METHODS
    # a discrete step on a quadratic costs about as much as a check, so such
    # members are not checked before each step; every other batch stops as
    # soon as no member can move (stopped quadratic members are stepped on)
    checked = problem.quadratic is None or not discrete

    steps, codes = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    Z_end, f_end, f_start = np.empty_like(Z0), np.empty(n), np.empty(n)
    history = [[] for _ in range(n if record else 0)]  # (states, F norms) per chunk
    with np.errstate(all="ignore"):  # members past diverge_norm may overflow
        ids, k0, Z, F, m = np.arange(n), 0, Z0, field(Z0), 0
        while ids.size:
            if ids.size != m:  # buffers, their row views and the stepper, once per live set
                m = ids.size
                c = min(LOCKSTEP_CHUNK, max(1, LOCKSTEP_BUFFER // (m * d) - 1), max_iters - k0)
                Zbuf, Fbuf = np.empty((c + 1, m, d)), np.empty((c + 1, m, d))
                Zr, Fr, step = list(Zbuf), list(Fbuf), rows(m)
            c, cut = min(len(Zr) - 1, max_iters - k0), False
            Zbuf[0], Fbuf[0] = Z, F
            for i in range(c):
                if checked and not _moving(Zr[i], Fr[i], tol_conv, diverge_norm):
                    c, cut = i, True  # all stopped by sample i: the chunk ends there
                    break
                step(Zr[i], Fr[i], Zr[i + 1], Fr[i + 1])
            Zb, Fb = Zbuf[:c + 1], Fbuf[:c + 1]
            fn = np.sqrt(np.vecdot(Fb, Fb))  # bit-equal to np.linalg.norm per row
            zn = np.sqrt(np.vecdot(Zb, Zb))
            Z, F, f, z = Zb[c], Fb[c], fn[:c], zn[:c]
            if record:  # sample c is the next chunk's first; the buffers are reused
                Zs = Zb[:c].copy()
                for col, i in enumerate(ids.tolist()):
                    history[i].append((Zs[:, col], f[:, col]))  # f is fixed in place below
            # in a chunk neither first, last nor cut, no member stopped if samples
            # 0..c-1 all pass this test, which NaN, inf and overflowed squares fail
            if cut or not (0 < k0 < max_iters - c
                    and ((tol_conv < f) & (f < math.inf) & (z < diverge_norm)).all()):
                finite = np.isfinite(fn + zn)
                if not finite.all():  # rare: an overflowed square, a NaN, or a sum past 1.8e308
                    finite = _fix_norms(Fb, fn) & _fix_norms(Zb, zn)
                if k0 == 0:
                    f_start[:] = fn[0]
                conv, nonfinite = fn <= tol_conv, ~finite
                div = (zn >= diverge_norm) & (diverge_norm < math.inf)  # inf: never
                stop = conv | div | nonfinite
                if not cut:  # sample c is the next chunk's first, unless it is the one after
                    # max_iters, which ends every run and is not tested for divergence
                    div[c], stop[c] = False, k0 + c == max_iters
                ended = stop.any(axis=0)
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
        if record:  # the samples before k, from each chunk's first c rows, then sample k
            zs, fs = zip(*history[i], (Z_end[i, None], f_end[i, None]))
            times, states, fnorms = T[:k + 1].copy(), np.concatenate(zs), np.concatenate(fs)
        else:
            times = T[[0, k] if k else [0]]
            states, fnorms = np.array([Z0[i], Z_end[i]]), np.array([f_start[i], f_end[i]])
        out.append(Trajectory(times, states[:len(times)], fnorms[:len(times)],
                              Termination(reasons[codes[i]], k), params))
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


def integrate(problem: MinimaxProblem, kind: str, z0, s: float | None = None,
              tau: float = 1.0, dt: float = DT_DEFAULT, t_end: float = 10.0,
              tol_conv: float = TOL_CONV_DEFAULT,
              diverge_norm: float = DIVERGE_NORM_DEFAULT) -> Trajectory:
    """Classical RK4 on the chosen field for round(t_end / dt) steps, sampled every step.

    A recorded batch of one of run_batch, so it stops with the same rule;
    the state at t_end is tested for convergence and non-finiteness only.
    """
    params = MethodParams(method=f"ode_{kind}", s=s, tau=tau, dt=dt)  # checks kind and dt
    check_ranges(t_end=t_end)
    return run_batch(problem, [z0], params, tol_conv=tol_conv, max_iters=round(t_end / dt),
                     diverge_norm=diverge_norm, record=True)[0]


def ode_field(problem: MinimaxProblem, kind: str, z, s: float | None = None,
              tau: float = 1.0) -> np.ndarray:
    """Vector field of the named continuous system at z."""
    params, Y = MethodParams(method=f"ode_{kind}", s=s, tau=tau), _as_states(problem, [z], "z")
    return _velocity(problem, params, _row_field(problem))(Y, None, np.empty_like(Y))[0]


def find_stationary(problem: MinimaxProblem, z0, newton_tol: float = 1e-10,
                    newton_max: int = 50) -> np.ndarray:
    """Newton's method on F(z) = 0, F and DF from evaluators built once per call."""
    check_ranges(newton_tol=newton_tol, newton_max=newton_max)
    z = _point(problem, _finite_point(z0, "z0"))
    field, jac, H = _saddle_rows(problem), _jacobian(problem), np.empty((problem.dim,) * 2)
    for it in range(newton_max + 1):  # the last iterate is tested, not stepped from
        F = field(z[None])[0]
        if np.linalg.norm(F) <= newton_tol:
            return z
        if it < newton_max:
            z = z - _solve_checked(jac(z, H), F)
    raise NewtonError(f"no stationary point within {newton_max} iterations "
                      f"(residual {np.linalg.norm(F):.3e})")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with header step,t,z_0,...,z_{d-1},F_norm; one row per sample."""
    cols = ",".join(f"z_{i}" for i in range(traj.states.shape[1]))
    with open(path, "w") as fh:
        fh.write(f"step,t,{cols},F_norm\n")
        rows = np.column_stack((traj.times, traj.states, traj.f_norms)).tolist()
        for i, row in enumerate(rows):
            fh.write(f"{i},{','.join(map(repr, row))}\n")
