import dataclasses
import math

import numpy as np
import pytest
from conftest import (
    random_saddle_blocks,
    random_sufficient_blocks,
    reference_fd_jacobian,
    replay_deviation,
    step,
)
from numpy.testing import assert_allclose

from minimaxdyn import dynamics
from minimaxdyn.dynamics import (
    LOCKSTEP_CHUNK,
    MethodParams,
    NewtonError,
    SingularOperatorError,
    Termination,
    Trajectory,
    find_stationary,
    integrate,
    ode_field,
    run_discrete,
    run_batch,
    write_trajectory_csv,
)
from minimaxdyn.problems import (
    MinimaxProblem,
    QuadraticSpec,
    builtin_problem,
    default_fd_step,
    jacobian_F,
    saddle_gradient,
)
from minimaxdyn.spectral import timescaled_hessian
from minimaxdyn.stability import MODES, verdict_table


@pytest.fixture
def bilinear():
    return builtin_problem("bilinear")


@pytest.fixture
def nondeg():
    return QuadraticSpec(A=[[2.0]], B=[[-1.0]], C=[[1.0]]).to_problem()


# --- steppers ---------------------------------------------------------------


def test_gda_step_hand_values(bilinear):
    assert_allclose(step(bilinear, [1.0, 0.0], "gda_tt", eta=0.1, tau=1.0), [1.0, 0.1])
    # F(0,1) = (1, 0); the x-block is slowed by 1/tau
    assert_allclose(step(bilinear, [0.0, 1.0], "gda_tt", eta=0.1, tau=10.0), [-0.01, 1.0])


def test_gda_step_fixed_point(nondeg):
    assert_allclose(step(nondeg, [0.0, 0.0], "gda_tt", eta=0.3, tau=4.0), [0.0, 0.0])


def test_eg_step_hand_values(bilinear):
    out = step(bilinear, [1.0, 0.0], "eg_tt", eta=0.5, tau=1.0)
    assert_allclose(out, [0.75, 0.5])
    assert np.linalg.norm(out) < 1.0  # plain EG contracts on the bilinear problem


def test_eg_step_fixed_point(nondeg, bilinear):
    for p in (nondeg, bilinear):
        for tau in (1.0, 4.0, 10.0):
            assert_allclose(step(p, np.zeros(2), "eg_tt", eta=0.3, tau=tau), np.zeros(2))


def test_eg_near_fixed_point_implies_small_gradient(bilinear, nondeg):
    # reverse direction of the fixed-point property, on tau = 1 quadratics
    tol = 1e-6
    rng = np.random.default_rng(5)
    for p in (bilinear, nondeg):
        eta = 0.4 / p.lipschitz_bound
        for _ in range(20):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            move = np.linalg.norm(step(p, direction, "eg_tt", eta=eta, tau=1.0) - direction)
            z = direction * (0.99 * tol / move)
            assert np.linalg.norm(step(p, z, "eg_tt", eta=eta, tau=1.0) - z) <= tol
            assert np.linalg.norm(saddle_gradient(p, z)) <= 10.0 * tol


# --- ODE fields -------------------------------------------------------------


def test_ode_field_plain_is_negated_gradient(bilinear):
    assert_allclose(ode_field(bilinear, "plain", [1.0, 1.0]), [-1.0, 1.0])


def test_ode_field_eg_hand_solve(bilinear):
    # (I + 0.5 H) v = F( (1,0) ) = (0, -1); field = -v
    assert_allclose(ode_field(bilinear, "eg", [1.0, 0.0], s=0.5), [-0.4, 0.8])


def test_ode_field_zero_at_stationary(nondeg):
    assert_allclose(ode_field(nondeg, "eg_tt", np.zeros(2), s=0.2, tau=8.0), np.zeros(2))


def test_ode_field_eg_matches_eg_tt_at_tau_one(nondeg):
    z = np.array([0.7, -0.3])
    assert_allclose(
        ode_field(nondeg, "eg", z, s=0.2),
        ode_field(nondeg, "eg_tt", z, s=0.2, tau=1.0),
    )


def test_ode_field_singular_solve():
    # H = diag(-2, -1), so I + s H is singular at s = 1/2 = 1/L
    p = QuadraticSpec(A=[[-2.0]], B=[[1.0]], C=[[0.0]]).to_problem()
    with pytest.raises(SingularOperatorError):
        ode_field(p, "eg", [1.0, 1.0], s=0.5)


@pytest.mark.parametrize("name", ["bilinear", "quartic"])
@pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kind", ["eg", "eg_tt"])
def test_ode_field_names_a_bad_s(name, s, kind):
    problem = builtin_problem(name) if name == "bilinear" else quartic_problem()
    with pytest.raises(ValueError, match=f"^s must be finite and > 0, got {s}$"):
        ode_field(problem, kind, [0.5, -0.4], s=s, tau=2.0)


def test_ode_field_unknown_kind(bilinear):
    with pytest.raises(ValueError):
        ode_field(bilinear, "nope", [0.0, 0.0])


# --- order-of-accuracy properties -------------------------------------------


def one_step_consistency_error(problem, z, eta):
    eg = step(problem, z, "eg_tt", eta=eta, tau=1.0)
    ode = z + eta * ode_field(problem, "eg_tt", z, s=eta / 2.0, tau=1.0)
    return np.linalg.norm(eg - ode)


def test_eg_step_matches_ode_to_second_order(nondeg):
    z = np.array([1.0, 1.0])
    e1 = one_step_consistency_error(nondeg, z, 0.2)
    e2 = one_step_consistency_error(nondeg, z, 0.1)
    assert 3.5 <= e1 / e2 <= 4.5


def test_gda_and_eg_share_continuous_limit(nondeg):
    z = np.array([1.0, 1.0])
    diffs = []
    for eta in (0.2, 0.1):
        diffs.append(np.linalg.norm(
            step(nondeg, z, "gda_tt", eta=eta, tau=1.0)
            - step(nondeg, z, "eg_tt", eta=eta, tau=1.0)))
    assert 3.5 <= diffs[0] / diffs[1] <= 4.5


# --- integrate --------------------------------------------------------------


def test_rk4_energy_conservation_on_bilinear(bilinear):
    traj = integrate(bilinear, "plain", [1.0, 0.0], dt=1e-3, t_end=10.0)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def test_rk4_eg_tt_contracts_on_bilinear(bilinear):
    traj = integrate(bilinear, "eg_tt", [1.0, 0.0], s=0.4, tau=4.0, dt=1e-2, t_end=20.0)
    assert np.linalg.norm(traj.states[-1]) < 1.0


def test_integrate_zero_horizon(bilinear):
    traj = integrate(bilinear, "plain", [1.0, 0.0], dt=1e-2, t_end=0.0)
    assert len(traj) == 1
    assert_allclose(traj.states[0], [1.0, 0.0])
    assert traj.termination.reason == "t_end"


def test_integrate_times_are_the_running_sum_of_dt(bilinear):
    traj = integrate(bilinear, "plain", [1.0, 0.0], dt=0.1, t_end=5.0)
    t, times = 0.0, [0.0]
    for _ in range(50):
        t += 0.1
        times.append(t)
    assert traj.times.tolist() == times
    assert (traj.termination.reason, traj.termination.step) == ("t_end", 50)


# --- build-once ODE evaluator ----------------------------------------------


def dense_quadratic(d1, d2, seed):
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((d1, d1)), rng.standard_normal((d2, d2))
    return QuadraticSpec(A=(A + A.T) / 2, B=(B + B.T) / 2,
                         C=rng.standard_normal((d1, d2))).to_problem()


def reference_integrate(problem, kind, z0, jacobian, s, tau, dt, t_end, tol_conv,
                        diverge_norm):
    """RK4 with the operator rebuilt in every stage: H = jacobian(z), then
    cond and np.linalg.solve.  Returns (states, F norms, reason, stopping
    index) under the stopping rule of integrate."""
    lam = dynamics.timescale_weights(problem.d1, problem.d2, 1.0 if kind == "eg" else tau)

    def field(z):
        M = np.eye(problem.dim) + s * (lam[:, None] * jacobian(z))
        assert np.linalg.cond(M) <= dynamics.SOLVE_COND_LIMIT
        return -np.linalg.solve(M, lam * saddle_gradient(problem, z))

    z = np.asarray(z0, dtype=float)
    states, fnorms = [z], [np.linalg.norm(saddle_gradient(problem, z))]
    n_steps = int(round(t_end / dt))
    for k in range(n_steps + 1):
        znorm = np.linalg.norm(z)
        if fnorms[-1] <= tol_conv:
            return states, fnorms, "converged", k
        if k < n_steps and znorm >= diverge_norm:
            return states, fnorms, "diverged", k
        if not np.isfinite(fnorms[-1] + znorm):
            return states, fnorms, "nonfinite", k
        if k == n_steps:
            return states, fnorms, "t_end", k
        k1 = field(z)
        k2 = field(z + 0.5 * dt * k1)
        k3 = field(z + 0.5 * dt * k2)
        k4 = field(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(z)
        fnorms.append(np.linalg.norm(saddle_gradient(problem, z)))


def block_jacobian(problem):
    """The constant H of a quadratic, assembled from its blocks in every call."""
    q = problem.quadratic
    return lambda z: np.block([[q.A, q.C], [-q.C.T, -q.B]])


def fd_jacobian(problem):
    """H(z) from per-column central differences with the default step."""
    return lambda z: reference_fd_jacobian(problem, z, default_fd_step(z))


def ode_problem(name):
    if name == "dense32":
        return dense_quadratic(3, 2, seed=7)
    if name == "dense64":
        return dense_quadratic(6, 4, seed=8)
    return builtin_problem(name)


@pytest.mark.parametrize("kind", ["eg", "eg_tt"])
@pytest.mark.parametrize("tau", [1.0, 10.0, 1e4])
@pytest.mark.parametrize("name", ["bilinear", "scalar_degenerate", "strict_nonminimax_demo",
                                  "dense32", "dense64"])
def test_integrate_equals_per_stage_solve_reference(name, tau, kind):
    problem = ode_problem(name)
    z0 = np.random.default_rng(3).uniform(-1.0, 1.0, problem.dim)
    # members converge, diverge and reach t_end across the cases
    options = dict(s=0.4 / problem.lipschitz_bound, tau=tau, dt=0.1, t_end=12.0,
                   tol_conv=1e-2, diverge_norm=10.0)
    traj = integrate(problem, kind, z0, **options)
    states, fnorms, reason, step = reference_integrate(problem, kind, z0,
                                                       block_jacobian(problem), **options)
    assert (traj.termination.reason, traj.termination.step) == (reason, step)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.f_norms, fnorms)


@pytest.mark.parametrize("kind", ["eg", "eg_tt"])
@pytest.mark.parametrize("name, z0, t_end, reason", [
    ("quartic", [0.5, -0.4], 12.0, "converged"),
    ("quartic", [0.9, 0.9], 2.0, "t_end"),
    ("coupled", [0.3, -0.2, 0.25, 0.1], 12.0, "converged"),
    ("coupled", [0.6, 0.5, -0.4, 0.7], 2.0, "t_end"),
])
def test_general_integrate_equals_per_stage_fd_reference(name, z0, t_end, reason, kind):
    problem = quartic_problem() if name == "quartic" else coupled_problem()
    options = dict(s=0.4 / problem.lipschitz_bound, tau=3.0, dt=0.1, t_end=t_end,
                   tol_conv=1e-3, diverge_norm=1e3)
    traj = integrate(problem, kind, z0, **options)
    states, fnorms, want, step = reference_integrate(problem, kind, z0, fd_jacobian(problem),
                                                     **options)
    assert (traj.termination.reason, traj.termination.step) == (want, step)
    assert want == reason
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.f_norms, fnorms)


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def count_jacobian_calls(monkeypatch, calls):
    """Count, under "jacobian_F", the calls of every Jacobian evaluator the engine builds."""
    build = dynamics._jacobian
    monkeypatch.setattr(dynamics, "_jacobian",
                        lambda problem: counting(calls, "jacobian_F", build(problem)))


def test_quadratic_run_builds_and_checks_operator_once(monkeypatch):
    calls = {}
    count_jacobian_calls(monkeypatch, calls)
    monkeypatch.setattr(np.linalg, "cond", counting(calls, "cond", np.linalg.cond))
    monkeypatch.setattr(dynamics, "_solve_checked",
                        counting(calls, "checked", dynamics._solve_checked))
    # ||s Lam H||_F <= 1/2 on both: the norm bound certifies M, so no cond
    for problem in (builtin_problem("bilinear"), dense_quadratic(3, 2, seed=7)):
        traj = integrate(problem, "eg_tt", np.ones(problem.dim), s=0.3 / problem.lipschitz_bound,
                         tau=4.0, dt=0.1, t_end=5.0)
        assert len(traj) == 51
    assert calls == {"checked": 2}
    # s ||H|| = 0.9 at tau = 1: M is not certified and cond runs, once per run
    calls.clear()
    problem = dense_quadratic(3, 2, seed=7)
    traj = integrate(problem, "eg", np.ones(problem.dim), s=0.9 / problem.lipschitz_bound,
                     dt=0.1, t_end=5.0)
    assert len(traj) == 51
    assert calls == {"checked": 1, "cond": 1}


def test_general_problem_field_builds_operator_per_stage(monkeypatch):
    calls, operators = {}, []
    count_jacobian_calls(monkeypatch, calls)
    monkeypatch.setattr(np.linalg, "cond", counting(calls, "cond", np.linalg.cond))
    solve = dynamics._solve_checked  # M is a per-run buffer: keep a copy of each operator
    monkeypatch.setattr(dynamics, "_solve_checked", lambda M, b, scratch: operators.append(
        M.copy()) or solve(M, b, scratch=scratch))
    traj = integrate(quartic_problem(), "eg_tt", [0.5, -0.4], s=0.05, tau=2.0, dt=0.1,
                     t_end=2.0)
    assert len(traj) == 21
    assert calls == {"jacobian_F": 80} and len(operators) == 80
    # from [2, -2] the first operators have ||M - I||_F > 1/2 and need cond;
    # near the origin the norm bound certifies them
    calls.clear()
    operators.clear()
    traj = integrate(quartic_problem(), "eg_tt", [2.0, -2.0], s=0.05, tau=2.0, dt=0.1,
                     t_end=2.0)
    uncertified = sum(np.linalg.norm(M - np.eye(2)) > 0.5 for M in operators)
    assert len(traj) == 21 and 0 < uncertified < 80
    assert calls == {"jacobian_F": 80, "cond": uncertified}


@pytest.mark.parametrize("kind", ["plain", "eg", "eg_tt"])
def test_integrate_reuses_the_gradient_of_each_step(kind):
    """Each step evaluates F at the new state once, for its norm, and the
    next step's first stage reuses it: 3 + 1 gradient evaluations per step,
    one fewer than four stages plus the norm."""
    counter = [0]
    problem = quartic_problem(counter)
    traj = integrate(problem, kind, [0.5, -0.4], s=0.05, tau=2.0, dt=0.1, t_end=2.0)
    steps = len(traj) - 1
    fd_calls = 0 if kind == "plain" else 4 * 2 * problem.dim  # jacobian_F per stage
    assert steps == 20
    assert counter[0] == 1 + steps * (3 + 1 + fd_calls)
    assert replay_deviation(problem, traj) == 0.0


def count_field_calls(monkeypatch):
    """A one-element list that counts every call of the engine's evaluator of F."""
    calls = [0]
    row_field = dynamics._row_field

    def counted_row_field(problem):
        field = row_field(problem)

        def counted(*args, **kwargs):
            calls[0] += 1
            return field(*args, **kwargs)
        return counted
    monkeypatch.setattr(dynamics, "_row_field", counted_row_field)
    return calls


def test_quadratic_integrate_calls_saddle_gradient_four_times_per_step(monkeypatch):
    """The engine evaluates F = Z H' once at the start and four times per
    step: three RK4 stages and the new state, whose F the next step's first
    stage reuses."""
    calls = count_field_calls(monkeypatch)
    traj = integrate(builtin_problem("bilinear"), "eg_tt", [1.0, 1.0], s=0.4, tau=10.0,
                     dt=0.1, t_end=3.0)
    assert len(traj) == 31
    assert calls[0] == 1 + 4 * (len(traj) - 1)


@pytest.mark.parametrize("method, evaluations", [("gda_tt", 1), ("eg_tt", 2)])
def test_quadratic_run_discrete_calls_saddle_gradient_once_per_descent(monkeypatch, method,
                                                                       evaluations):
    """The engine evaluates F = Z H' once at the start and once per descent:
    at the new state for GDA, at the midpoint and the new state for EG."""
    calls = count_field_calls(monkeypatch)
    max_iters = 2 * LOCKSTEP_CHUNK + 22  # three chunks, the last one short
    traj = run_discrete(builtin_problem("bilinear"), [1.0, 1.0],
                        MethodParams(method=method, eta=0.5, tau=100.0), max_iters=max_iters)
    assert (traj.termination.reason, len(traj)) == ("max_iters", max_iters + 1)
    assert calls[0] == 1 + evaluations * max_iters


def test_quadratic_field_dot_is_matmul_bit_for_bit():
    """F = Z H' is np.dot(Z, H.T, out) into a row of a chunk buffer; it must
    keep the bits of np.matmul(Z, H.T), NaN, inf and signed zeros included,
    or batches stop equalling their reference runs.  Every problem has
    d = d1 + d2 >= 2; at d = 1 np.dot scales by the 1 x 1 H, and a zero
    product keeps the sign that matmul's sum drops."""
    rng = np.random.default_rng(19)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    with np.errstate(invalid="ignore"):
        for _ in range(3000):
            d, m, c = int(rng.integers(2, 9)), int(rng.integers(1, 26)), int(rng.integers(1, 5))
            H = rng.standard_normal((d, d))
            H[rng.random((d, d)) < 0.3] = 0.0
            Z = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-300, 300, (m, 1))
            hit = rng.random((m, d)) < rng.choice([0.0, 0.1, 0.5, 1.0])
            Z[hit] = rng.choice(specials, hit.sum())
            buffer = np.empty((c + 1, m, d))
            row = buffer[int(rng.integers(1, c + 1))]
            assert np.dot(Z, H.T, row) is row
            assert row.tobytes() == np.matmul(Z, H.T).tobytes()


# --- _solve_checked ---------------------------------------------------------


def singular_error(M):
    """The exception the check raises on M: a named non-finite operator, or
    the SingularOperatorError of a cond check."""
    if not np.all(np.isfinite(M)):
        return SingularOperatorError, "linear operator has non-finite entries"
    cond = np.linalg.cond(M)
    return SingularOperatorError, f"linear operator numerically singular (cond ~ {cond:.3e})"


def test_solve_is_numpy_solve_bit_for_bit():
    """The engine's solve calls numpy's gesv gufunc directly: same bits and
    same singular-matrix error as np.linalg.solve, error state restored."""
    rng = np.random.default_rng(11)
    errstate = np.geterr()
    for d in range(1, 9):
        for scale in (0.4, 4.0):  # ||M - I||_F up to 0.4 (certified) or up to 4
            K = rng.standard_normal((d, d))
            M = np.eye(d) + K * (rng.uniform(0.0, scale) / np.linalg.norm(K))
            stack = np.eye(d) + K * rng.uniform(-scale, scale, (5, 1, 1)) / np.linalg.norm(K)
            for A, rhs in ((M, rng.standard_normal(d)), (M, rng.standard_normal((5, d, 1))),
                           (M, rng.standard_normal((5, d, 3))),
                           (stack, rng.standard_normal((5, d, 2)))):
                ours, numpys = dynamics._solve(A, rhs), np.linalg.solve(A, rhs)
                assert ours.dtype == numpys.dtype and np.array_equal(ours, numpys)
    for M in (np.zeros((2, 2)), np.ones((3, 3))):
        for rhs in (np.ones(len(M)), np.ones((4, len(M), 1))):
            with pytest.raises(np.linalg.LinAlgError) as ours:
                dynamics._solve(M, rhs)
            with pytest.raises(np.linalg.LinAlgError) as numpys:
                np.linalg.solve(M, rhs)
            assert type(ours.value) is type(numpys.value) is np.linalg.LinAlgError
            assert str(ours.value) == str(numpys.value) == "Singular matrix"
    assert np.geterr() == errstate


def test_solve_checked_skips_cond_on_certified_operators(monkeypatch):
    calls = {}
    monkeypatch.setattr(np.linalg, "cond", counting(calls, "cond", np.linalg.cond))
    rng = np.random.default_rng(8)
    for d in range(1, 7):
        for _ in range(20):
            K = rng.standard_normal((d, d))
            K *= rng.uniform(0.0, 0.5) / np.linalg.norm(K)  # ||K||_F <= 1/2
            M, rhs = np.eye(d) + K, rng.standard_normal(d)
            assert np.array_equal(dynamics._solve_checked(M, rhs), np.linalg.solve(M, rhs))
            stack = np.eye(d) + K * rng.uniform(-1.0, 1.0, (3, 1, 1))
            rhs = rng.standard_normal((3, d, 2))
            assert np.array_equal(dynamics._solve_checked(stack, rhs),
                                  np.linalg.solve(stack, rhs))
    assert calls == {}


def test_solve_checked_runs_cond_just_above_the_bound(monkeypatch):
    calls = {}
    monkeypatch.setattr(np.linalg, "cond", counting(calls, "cond", np.linalg.cond))
    K = np.array([[0.0, 1.0], [0.0, 0.0]])
    for scale, n_cond in ((0.5, 0), (np.nextafter(0.5, 1.0), 1), (0.5 + 1e-9, 2)):
        M = np.eye(2) + scale * K  # ||M - I||_F = scale
        assert np.array_equal(dynamics._solve_checked(M, np.ones(2)),
                              np.linalg.solve(M, np.ones(2)))
        assert calls.get("cond", 0) == n_cond


@pytest.mark.parametrize("M", [
    [[1.0, 1.0], [1.0, 1.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 0.0], [0.0, 1e-13]],
    [[1.0, np.nan], [0.0, 1.0]],
    [[1.0, 0.0], [np.inf, 1.0]],
])
def test_solve_checked_still_raises_on_singular_operators(M):
    M = np.array(M)
    with pytest.raises(np.linalg.LinAlgError) as info:
        dynamics._solve_checked(M, np.ones(2))
    assert (type(info.value), str(info.value)) == singular_error(M)


def test_cond_limit_is_one_trillion():
    """dynamics.SOLVE_COND_LIMIT is 1e12: cond 1e11 is solved, 1e13 raises; the
    literals are deliberate."""
    x = dynamics._solve_checked(np.diag([1.0, 1e-11]), np.ones(2))
    assert_allclose(x, [1.0, 1e11], rtol=1e-15)
    with pytest.raises(SingularOperatorError, match="numerically singular"):
        dynamics._solve_checked(np.diag([1.0, 1e-13]), np.ones(2))


def test_solve_checked_names_the_first_failing_member_of_a_stack(monkeypatch):
    calls = {}
    monkeypatch.setattr(np.linalg, "cond", counting(calls, "cond", np.linalg.cond))
    good = np.eye(2) + 0.1
    wide = np.diag([3.0, 1.0])  # not certified, but well conditioned
    bad1, bad2 = np.diag([1.0, 1e-13]), np.diag([1.0, 1e-15])
    rhs = np.ones((3, 2, 1))
    assert np.array_equal(dynamics._solve_checked(np.stack([good, wide, good]), rhs),
                          np.linalg.solve(np.stack([good, wide, good]), rhs))
    assert calls == {"cond": 1}
    with pytest.raises(SingularOperatorError) as info:
        dynamics._solve_checked(np.stack([good, bad1, wide, bad2]), np.ones((4, 2, 1)))
    assert (type(info.value), str(info.value)) == singular_error(bad1)


def test_singular_operator_raises_only_once_stepped():
    # H = diag(-2, -1), so I + s H is singular at s = 1/2; an understated
    # lipschitz_bound lets s = 1/2 through validation
    p = dataclasses.replace(
        QuadraticSpec(A=[[-2.0]], B=[[1.0]], C=[[0.0]]).to_problem(),
        lipschitz_bound=1.0)
    traj = integrate(p, "eg", [0.0, 0.0], s=0.5, dt=0.1, t_end=1.0)
    assert (traj.termination.reason, traj.termination.step) == ("converged", 0)
    with pytest.raises(SingularOperatorError):
        integrate(p, "eg", [1.0, 1.0], s=0.5, dt=0.1, t_end=1.0)


# --- run_discrete -----------------------------------------------------------


def test_run_discrete_eg_converges(bilinear):
    params = MethodParams(method="eg_tt", eta=0.5, tau=10.0)
    traj = run_discrete(bilinear, [1.0, 1.0], params, tol_conv=1e-8, max_iters=100000)
    assert traj.termination.reason == "converged"
    assert np.linalg.norm(traj.states[-1]) <= 1e-6


@pytest.mark.parametrize("tau", [1.0, 4.0])
def test_run_discrete_gda_diverges(bilinear, tau):
    params = MethodParams(method="gda_tt", eta=0.5, tau=tau)
    traj = run_discrete(bilinear, [1.0, 1.0], params, max_iters=100000)
    assert traj.termination.reason == "diverged"


@pytest.mark.parametrize("params", [MethodParams(method="gda_tt", eta=0.5),
                                    MethodParams(method="ode_plain", dt=10.0)])
@pytest.mark.parametrize("diverge_norm, reason", [(dynamics.DIVERGE_NORM_DEFAULT, "diverged"),
                                                  (math.inf, "nonfinite")])
def test_overflowing_norm_diverges_only_below_an_infinite_diverge_norm(
        bilinear, params, diverge_norm, reason):
    """||z|| (about 2.1e308) overflows to inf at the start: diverged under
    the default, nonfinite under inf."""
    (traj,) = run_batch(bilinear, [[1.5e308, 1.5e308]], params, max_iters=5,
                        diverge_norm=diverge_norm)
    assert traj.termination == Termination(reason, 0)


def overflow_stops(traj, problem):
    """Whether traj stopped at its first sample with a non-finite coordinate
    of z or of F(z): every earlier sample is finite, and so are its norms."""
    with np.errstate(all="ignore"):
        finite = [np.isfinite(z).all() and np.isfinite(saddle_gradient(problem, z)).all()
                  for z in traj.states]
    return (traj.termination.reason == "nonfinite" and not finite[-1] and all(finite[:-1])
            and np.isfinite(traj.f_norms[:-1]).all())


def test_finite_state_whose_squares_overflow_is_not_nonfinite():
    """x.x overflows once ||x|| passes about 1.34e154.  With divergence
    off, the run from (1e300, -1e300) goes on until a coordinate of F
    overflows, at step 101; until then its norms are finite, rescaled by
    max|x|.  Rows whose squares do not overflow keep the bits of
    np.linalg.norm, and a batch equals its batches of one."""
    p = QuadraticSpec(A=[[-2.0]], B=[[1.0]], C=[[0.0]]).to_problem()
    params = MethodParams(method="gda_tt", eta=0.1)
    traj = run_discrete(p, [1e300, -1e300], params, diverge_norm=math.inf)
    assert traj.termination == Termination("nonfinite", 101) and overflow_stops(traj, p)
    assert traj.f_norms[0] == 2e300 * math.sqrt(1.25)  # F = (2e300, -1e300), a = 2e300
    Z0 = [[1e300, -1e300], [1e100, -1e100], [np.nan, 1.0], [1.0, -1.0]]
    options = dict(max_iters=200, diverge_norm=math.inf, record=True)
    batch = run_batch(p, Z0, params, **options)
    for z0, a in zip(Z0, batch, strict=True):
        (b,) = run_batch(p, [z0], params, **options)
        assert a.termination == b.termination
        assert a.states.tobytes() == b.states.tobytes()
        assert a.f_norms.tobytes() == b.f_norms.tobytes()
    assert batch[0].states.tobytes() == traj.states.tobytes()
    # from 1e100 the state grows to about 1e116 in 200 steps: no square overflows
    assert batch[1].f_norms.tobytes() == np.array([np.linalg.norm(saddle_gradient(p, z))
                                                   for z in batch[1].states]).tobytes()


def test_run_discrete_immediate_convergence(nondeg):
    params = MethodParams(method="eg_tt", eta=0.3, tau=1.0)
    traj = run_discrete(nondeg, np.zeros(2), params)
    assert traj.termination.reason == "converged"
    assert len(traj) == 1


def test_run_discrete_record_false_keeps_endpoints(bilinear):
    params = MethodParams(method="eg_tt", eta=0.5, tau=10.0)
    traj = run_discrete(bilinear, [1.0, 1.0], params, tol_conv=1e-8,
                        max_iters=100000, record=False)
    assert traj.termination.reason == "converged"
    assert len(traj) == 2
    assert_allclose(traj.states[0], [1.0, 1.0])


def test_method_params_validation(bilinear):
    with pytest.raises(ValueError):
        MethodParams(method="gda_tt", eta=0.5, tau=0.5)  # tau < 1
    with pytest.raises(ValueError):
        MethodParams(method="mystery", eta=0.5)
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tau must be finite and >= 1, got {tau}$"):
            MethodParams(method="gda_tt", eta=0.5, tau=tau)
    params = MethodParams(method="eg_tt", eta=1.5, tau=1.0)  # eta >= 1/L = 1
    with pytest.raises(ValueError):
        run_discrete(bilinear, [1.0, 0.0], params)


# --- lockstep engine ----------------------------------------------------------


def sequential_reference(problem, z0, params, tol_conv, max_iters, diverge_norm):
    """One member at a time, one check per step: the stopping rule written
    out directly.  Returns (reason, stopping index, final state)."""
    lam = dynamics.timescale_weights(problem.d1, problem.d2, params.tau)
    eta = params.eta
    z = np.asarray(z0, dtype=float).copy()
    with np.errstate(all="ignore"):
        F = saddle_gradient(problem, z)
        for k in range(max_iters + 1):
            fnorm, znorm = np.linalg.norm(F), np.linalg.norm(z)
            if fnorm <= tol_conv:
                return "converged", k, z
            if k < max_iters and znorm >= diverge_norm:
                return "diverged", k, z
            if not np.isfinite(fnorm + znorm):
                return "nonfinite", k, z
            if k == max_iters:
                return "max_iters", k, z
            if params.method == "eg_tt":
                F = saddle_gradient(problem, z - eta * (lam * F))
            z = z - eta * (lam * F)
            F = saddle_gradient(problem, z)


def quartic_problem(counter=None):
    """f = x^2/2 + x^4/4 + x y - y^2/2 - y^4/4: non-quadratic, saddle at 0."""
    def grad(z):
        if counter is not None:
            counter[0] += 1
        x, y = z
        return np.array([x + x ** 3 + y, x - y - y ** 3])
    return MinimaxProblem(d1=1, d2=1, value=lambda z: 0.0, grad=grad,
                          lipschitz_bound=8.0, name="quartic")


def coupled_problem():
    """f = x1^2/2 + x1^4/4 + x2^2 + x1 y1 + x2 y2/2 + x1 x2 y2/2 - y1^2/2 - y1^4/4
    - y2^2/2: non-quadratic with d1 = d2 = 2 and a coupling whose second
    derivatives vary in every block; local minimax at 0."""
    def grad(z):
        x1, x2, y1, y2 = z
        return np.array([x1 + x1 ** 3 + y1 + 0.5 * x2 * y2, 2.0 * x2 + 0.5 * y2 + 0.5 * x1 * y2,
                         x1 - y1 - y1 ** 3, 0.5 * x2 + 0.5 * x1 * x2 - y2])
    return MinimaxProblem(d1=2, d2=2, value=lambda z: 0.0, grad=grad,
                          lipschitz_bound=8.0, name="coupled")


# --- the engine runs the operator that the verdicts judge --------------------

OPERATOR_TAUS = (1.0, 10.0, 1e4)
OPERATOR_STEPS = (0.1, 0.5, 0.95)  # times 1/L
# method -> the MODES row of its linearization, and the tau of that operator
# (None: the run's tau); ode_plain's operator is -H
OPERATORS = {"gda_tt": ("gda", None), "eg_tt": ("discrete", None),
             "ode_eg_tt": ("continuous", None), "ode_eg": ("continuous", 1.0)}


def judged_operator(H, d1, method, step, tau):
    """The stability module's operator of the method at an equilibrium with Jacobian H."""
    if method == "ode_plain":
        return -H
    mode, op_tau = OPERATORS[method]
    return MODES[mode].jacobian(timescaled_hessian(H, op_tau or tau, d1), step)


def engine_map(problem, method, step, tau):
    """Z -> rows of one engine step from the rows of Z (discrete methods, by
    run_batch) or of the ODE field at them (ode_field)."""
    if method in dynamics.DISCRETE_METHODS:
        params = MethodParams(method, eta=step, tau=tau)
        return lambda Z: np.array([t.states[-1] for t in run_batch(
            problem, Z, params, tol_conv=0.0, max_iters=1, diverge_norm=math.inf)])
    kind = method.removeprefix("ode_")
    return lambda Z: np.array([ode_field(problem, kind, z, s=step, tau=tau) for z in Z])


def operator_problems():
    """The builtins and random quadratics of random_saddle_blocks shapes, and
    one local minimax, whose gda and eg verdicts turn stable at large tau."""
    out = [builtin_problem(name) for name in ("bilinear", "scalar_degenerate",
                                              "strict_nonminimax_demo")]
    rng = np.random.default_rng(26)
    for d1, d2, r in [(1, 1, 0), (1, 2, 1), (2, 1, 1), (2, 2, 0), (2, 3, 2), (3, 3, 3)]:
        A, B, C = random_saddle_blocks(rng, d1, d2, r)
        out.append(QuadraticSpec(A=A, B=B, C=C).to_problem())
    A, B, C = random_sufficient_blocks(rng, 2, 2, 1)
    return out + [QuadraticSpec(A=A, B=B, C=C).to_problem()]


def test_engine_runs_the_judged_operator():
    """On a quadratic one engine step is linear: run_batch from the basis
    vectors gives the rows of the discrete Jacobian J', and ode_field at them
    the columns of the continuous one.  Both equal the operators whose spectra
    the verdicts judge, within 1e-13 relative, at steps inside and outside
    every mode's region."""
    seen = {mode: set() for mode in MODES}
    for problem in operator_problems():
        H, d1, n = problem.quadratic.hessian(), problem.d1, problem.dim
        for tau in OPERATOR_TAUS:
            for step in np.array(OPERATOR_STEPS) / problem.lipschitz_bound:
                for method in dynamics.METHODS:
                    got = engine_map(problem, method, step, tau)(np.eye(n)).T
                    want = judged_operator(H, d1, method, step, tau)
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
                        (problem.name, method, tau, step)
                table = verdict_table(H, d1, [(mode, step) for mode in MODES], [tau])
                for mode, v in zip(MODES, table):
                    seen[mode].update(v.labels)
    assert all(labels == {"stable", "unstable"} for labels in seen.values()), seen


@pytest.mark.parametrize("name", ["quartic", "coupled"])
def test_engine_linearizes_to_the_judged_operator(name):
    """On a general problem, the central difference of the engine step (or
    field) about z* = 0 over +-h e_i matches the operator built on
    jacobian_F(z*): within 1e-7 relative, above the O(h^2) = 1e-10 error of
    the difference (times third derivatives of at most 6) and jacobian_F's
    own finite-difference error."""
    problem = quartic_problem() if name == "quartic" else coupled_problem()
    z_star, h = np.zeros(problem.dim), 1e-5
    DF, E = jacobian_F(problem, z_star), h * np.eye(problem.dim)
    for tau in OPERATOR_TAUS:
        for step in np.array(OPERATOR_STEPS) / problem.lipschitz_bound:
            for method in dynamics.METHODS:
                G = engine_map(problem, method, step, tau)
                got = ((G(z_star + E) - G(z_star - E)) / (2.0 * h)).T
                want = judged_operator(DF, problem.d1, method, step, tau)
                assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want)), \
                    (method, tau, step)


def mixed_ensemble():
    """F = (x, -y) / 100: x contracts and y expands under both methods, so
    with tol_conv = 1e-3 and diverge_norm = 2 members started on the axes
    converge or diverge at indices set by their distance from the origin,
    and the far ones run to max_iters.  NaN and inf starts end at once."""
    problem = QuadraticSpec(A=[[0.01]], B=[[0.01]], C=[[0.0]]).to_problem()
    j = np.arange(0, 150, 7)
    Z0 = np.concatenate([
        np.stack([0.1 / 0.995 ** j, np.zeros_like(j, dtype=float)], axis=1),
        np.stack([np.zeros_like(j, dtype=float), 2.0 / 1.005 ** j], axis=1),
        [[0.74, 0.0], [0.0, 0.27], [0.05, 0.3], [np.nan, 0.0], [np.inf, 0.0]],
    ])
    return problem, Z0, dict(tol_conv=1e-3, diverge_norm=2.0)


# (problem, method, eta, tau, z0, options) -> (reason, steps, end state), from
# the one-member-at-a-time driver this engine replaced
PINNED = [
    ("bilinear", "eg_tt", 0.5, 10.0, [1.0, 1.0], dict(tol_conv=1e-8, max_iters=100000),
     "converged", 1502, [-9.30950778401161e-09, 3.6110735202917954e-09]),
    ("bilinear", "gda_tt", 0.5, 3.0, [0.3, -0.2], dict(max_iters=100000),
     "diverged", 476, [6772115.514385607, 103826501.041818]),
    ("bilinear", "gda_tt", 0.5, 100.0, [0.3, -0.2], dict(max_iters=2000),
     "max_iters", 2000, [2.8375653007225745, -22.9811214583557]),
    # eta = 0.9 (sqrt(5) - 1) / (2 L), the avoidance default
    ("strict_nonminimax_demo", "eg_tt", 0.21246117974981074,
     4.0, [0.1, -0.2, 0.3, 0.05], dict(max_iters=20000),
     "diverged", 314, [83360765.2756827, -8.14110143277464e-06, 63681958.014217585,
                       -1.5601611832202032e-06]),
    ("dense", "eg_tt", 0.3, 2.0, [0.9, -0.7, 0.4, 0.3], dict(tol_conv=1e-12, max_iters=5000),
     "converged", 176, [8.594634909979937e-14, -2.6378059320422675e-13,
                        2.6795639411064094e-13, 9.04716890490951e-13]),
    ("dense", "gda_tt", 0.3, 2.0, [0.9, -0.7, 0.4, 0.3], dict(tol_conv=1e-12, max_iters=5000),
     "converged", 230, [-1.5975280998262286e-13, 6.627003165647285e-13,
                        -3.0506832638376005e-13, -7.16539461494765e-13]),
    ("quartic", "eg_tt", 0.1, 2.0, [0.5, -0.4], dict(tol_conv=1e-10, max_iters=5000),
     "converged", 307, [3.444979613558718e-11, -6.004597980246377e-11]),
    ("quartic", "gda_tt", 0.1, 1.0, [0.5, -0.4], dict(tol_conv=1e-10, max_iters=5000),
     "converged", 230, [6.251117280397427e-11, -2.380782558586564e-11]),
]


def pinned_problem(name):
    if name == "dense":
        return QuadraticSpec(A=[[2.0, 0.3], [0.3, 1.0]], B=[[-1.0, 0.2], [0.2, -0.5]],
                             C=[[0.7, -0.4], [0.25, 0.9]]).to_problem()
    if name == "quartic":
        return quartic_problem()
    return builtin_problem(name)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}-{c[1]}-tau{c[3]:g}")
@pytest.mark.parametrize("record", [False, True])
def test_run_discrete_matches_pinned_results(case, record):
    name, method, eta, tau, z0, options, reason, steps, end = case
    traj = run_discrete(pinned_problem(name), z0, MethodParams(method=method, eta=eta, tau=tau),
                        record=record, **options)
    assert traj.termination.reason == reason
    assert traj.termination.step == steps == int(traj.times[-1])
    assert_allclose(traj.states[-1], end, rtol=1e-12, atol=0.0)
    assert len(traj) == (steps + 1 if record else 2)


def assert_same_members(batch, singles):
    for a, b in zip(batch, singles, strict=True):
        assert a.termination.reason == b.termination.reason
        assert a.termination.step == b.termination.step
        assert_allclose(a.states, b.states, rtol=1e-12, atol=0.0)
        assert_allclose(a.f_norms, b.f_norms, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("method", ["gda_tt", "eg_tt"])
@pytest.mark.parametrize("max_iters", [0, 1, LOCKSTEP_CHUNK - 1, LOCKSTEP_CHUNK,
                                       LOCKSTEP_CHUNK + 1, 2 * LOCKSTEP_CHUNK + 3])
def test_batch_equals_batches_of_one_and_reference(method, max_iters):
    problem, Z0, options = mixed_ensemble()
    params = MethodParams(method=method, eta=0.5, tau=3.0)
    batch = run_batch(problem, Z0, params, max_iters=max_iters, **options)
    singles = [run_discrete(problem, z0, params, max_iters=max_iters, record=False,
                            **options) for z0 in Z0]
    assert_same_members(batch, singles)
    for traj, z0 in zip(batch, Z0):
        reason, k, z = sequential_reference(problem, z0, params, max_iters=max_iters,
                                            **options)
        assert (traj.termination.reason, traj.termination.step) == (reason, k)
        assert_allclose(traj.states[-1], z, rtol=1e-12, atol=0.0)
    reasons = {t.termination.reason for t in batch}
    assert {"nonfinite", "max_iters"} <= reasons
    if max_iters > 2 * LOCKSTEP_CHUNK:
        # several members converge and several diverge inside one chunk
        second = [t.termination.reason for t in batch
                  if LOCKSTEP_CHUNK < t.termination.step < 2 * LOCKSTEP_CHUNK]
        assert second.count("converged") >= 2 and second.count("diverged") >= 2


def test_batch_record_equals_recorded_batches_of_one(monkeypatch):
    problem, Z0, options = mixed_ensemble()
    params = MethodParams(method="eg_tt", eta=0.5, tau=3.0)
    singles = [run_discrete(problem, z0, params, max_iters=150, **options) for z0 in Z0]
    # a buffer cap below one chunk of this batch forces shorter chunks
    monkeypatch.setattr(dynamics, "LOCKSTEP_BUFFER", 7 * len(Z0) * 2)
    batch = run_batch(problem, Z0, params, max_iters=150, record=True, **options)
    assert_same_members(batch, singles)
    for traj in batch:
        assert_allclose(traj.times, np.arange(traj.termination.step + 1))
        if np.all(np.isfinite(traj.states)):
            assert replay_deviation(problem, traj) == 0.0


@pytest.mark.parametrize("method", ["gda_tt", "eg_tt"])
def test_batch_general_problem_calls_grad_like_reference(method):
    counter = [0]
    problem = quartic_problem(counter)
    rng = np.random.default_rng(11)
    # small starts converge in 130-240 steps, [0.9, 0.9] needs about 300, and
    # cubic overshoot makes [10, -10] diverge
    Z0 = np.concatenate([rng.uniform(-1e-3, 1e-3, (6, 2)),
                         [[10.0, -10.0], [0.9, 0.9], [np.nan, 0.0]]])
    params = MethodParams(method=method, eta=0.1, tau=2.0)
    options = dict(tol_conv=1e-10, max_iters=260, diverge_norm=1e3)
    batch = run_batch(problem, Z0, params, **options)
    batch_calls = counter[0]
    counter[0] = 0
    for traj, z0 in zip(batch, Z0):
        reason, k, z = sequential_reference(problem, z0, params, **options)
        assert (traj.termination.reason, traj.termination.step) == (reason, k)
        assert_allclose(traj.states[-1], z, rtol=1e-12, atol=0.0)
    # the user's grad is never called past the point where a member stops
    assert batch_calls == counter[0]
    assert {t.termination.reason for t in batch} == {"converged", "diverged", "nonfinite",
                                                    "max_iters"}


@pytest.mark.parametrize("method", ["gda_tt", "eg_tt"])
@pytest.mark.parametrize("z0, max_iters", [([0.3, -0.2, 0.25, 0.1], 2000),
                                           ([0.6, 0.5, -0.4, 0.7], 40)])
def test_run_discrete_general_problem_equals_reference_bitwise(method, z0, max_iters):
    problem = coupled_problem()
    params = MethodParams(method=method, eta=0.1, tau=3.0)
    options = dict(tol_conv=1e-10, max_iters=max_iters, diverge_norm=1e3)
    traj = run_discrete(problem, z0, params, **options)
    reason, k, z = sequential_reference(problem, z0, params, **options)
    assert (traj.termination.reason, traj.termination.step) == (reason, k)
    assert reason == ("converged" if max_iters > 100 else "max_iters")
    assert np.array_equal(traj.states[-1], z)


ODE_METHODS = ["ode_plain", "ode_eg", "ode_eg_tt"]


@pytest.mark.parametrize("method", ODE_METHODS)
@pytest.mark.parametrize("max_iters", [0, 1, LOCKSTEP_CHUNK - 1, LOCKSTEP_CHUNK,
                                       LOCKSTEP_CHUNK + 1, 2 * LOCKSTEP_CHUNK + 3])
def test_ode_batch_equals_batches_of_one(method, max_iters):
    problem, Z0, options = mixed_ensemble()
    params = MethodParams(method=method, s=10.0, tau=3.0, dt=0.5)
    batch = run_batch(problem, Z0, params, max_iters=max_iters, **options)
    singles = [run_batch(problem, [z0], params, max_iters=max_iters, **options)[0]
               for z0 in Z0]
    assert_same_members(batch, singles)
    for a, b in zip(batch, singles):
        assert np.array_equal(a.times, b.times)
    reasons = {t.termination.reason for t in batch}
    assert {"nonfinite", "t_end"} <= reasons
    if max_iters > 2 * LOCKSTEP_CHUNK:
        assert {"converged", "diverged"} <= reasons
        second = [t.termination.reason for t in batch
                  if LOCKSTEP_CHUNK < t.termination.step < 2 * LOCKSTEP_CHUNK]
        assert second.count("converged") >= 2 and second.count("diverged") >= 2


@pytest.mark.parametrize("method", ODE_METHODS)
def test_ode_batch_record_equals_integrate(monkeypatch, method):
    problem, Z0, options = mixed_ensemble()
    kind = method.removeprefix("ode_")
    singles = [integrate(problem, kind, z0, s=10.0, tau=3.0, dt=0.5, t_end=75.0, **options)
               for z0 in Z0]
    # a buffer cap below one chunk of this batch forces shorter chunks
    monkeypatch.setattr(dynamics, "LOCKSTEP_BUFFER", 7 * len(Z0) * 2)
    params = MethodParams(method=method, s=10.0, tau=3.0, dt=0.5)
    batch = run_batch(problem, Z0, params, max_iters=150, record=True, **options)
    assert_same_members(batch, singles)
    assert {t.termination.reason for t in batch} == {"converged", "diverged", "nonfinite",
                                                    "t_end"}
    for traj, single in zip(batch, singles):
        assert np.array_equal(traj.times, single.times)  # the running sum of dt
        assert len(traj) == traj.termination.step + 1
        if np.all(np.isfinite(traj.states)):
            assert replay_deviation(problem, traj) == 0.0


@pytest.mark.parametrize("method", ODE_METHODS)
def test_ode_batch_general_problem_calls_grad_like_single_runs(method):
    counter = [0]
    problem = quartic_problem(counter)
    rng = np.random.default_rng(11)
    Z0 = np.concatenate([rng.uniform(-1e-3, 1e-3, (6, 2)),
                         [[10.0, -10.0], [0.9, 0.9], [np.nan, 0.0]]])
    params = MethodParams(method=method, s=0.05, tau=2.0, dt=0.1)
    options = dict(tol_conv=1e-6, diverge_norm=1e3)
    batch = run_batch(problem, Z0, params, max_iters=120, **options)
    batch_calls = counter[0]
    counter[0] = 0
    singles = [integrate(problem, method.removeprefix("ode_"), z0, s=0.05, tau=2.0, dt=0.1,
                         t_end=12.0, **options) for z0 in Z0]
    for traj, single in zip(batch, singles):
        assert traj.termination.reason == single.termination.reason
        assert traj.termination.step == single.termination.step
        assert np.array_equal(traj.states[-1], single.states[-1], equal_nan=True)
    # the user's grad is never called past the point where a member stops
    assert batch_calls == counter[0]
    assert {"converged", "nonfinite", "t_end"} <= {t.termination.reason for t in batch}


@pytest.mark.parametrize("method", dynamics.METHODS)
def test_general_batch_runs_member_by_member(method):
    """A non-quadratic batch runs its members one at a time: grad sees every
    point of the first member, then of the second, and so on, and each
    recorded trajectory has the bytes of its recorded batch of one."""
    points, quartic = [], quartic_problem()
    problem = dataclasses.replace(quartic, grad=lambda z: points.append(z.copy())
                                  or quartic.grad(z))
    Z0 = [[1e-3, -1e-3], [0.9, 0.9], [np.nan, 0.0], [10.0, -10.0], [0.2, 0.1]]
    params = MethodParams(method=method, eta=0.1, s=0.05, tau=2.0, dt=0.1)
    options = dict(tol_conv=1e-6, max_iters=120, diverge_norm=1e3, record=True)
    batch = run_batch(problem, Z0, params, **options)
    in_batch, points[:] = points[:], []
    singles = [run_batch(problem, [z0], params, **options)[0] for z0 in Z0]
    assert np.array_equal(in_batch, points, equal_nan=True)
    assert all(same_bytes(a, b) for a, b in zip(batch, singles, strict=True))
    assert sum(t.termination.step > 0 for t in batch) >= 3  # the order shows


@pytest.mark.parametrize("method", ODE_METHODS)
def test_checked_quadratic_batch_reads_one_row_per_step(monkeypatch, bilinear, method):
    """Before each step, a checked batch looks only as far as the first member
    that can move; here that is the first member at every step, so the check
    rescales its two norms and reads no other row."""
    calls, rescaled = [0], dynamics._rescaled

    def counted(x, norm):
        calls[0] += 1
        return rescaled(x, norm)
    monkeypatch.setattr(dynamics, "_rescaled", counted)
    Z0 = [[1.0, 0.0], [0.0, 0.0], [np.nan, 0.0], [0.5, 0.5], [0.3, -0.2]]
    max_iters = 2 * LOCKSTEP_CHUNK + 3
    batch = run_batch(bilinear, Z0, MethodParams(method=method, s=0.3, tau=2.0, dt=0.01),
                      max_iters=max_iters)
    assert [t.termination for t in batch] == [
        Termination("t_end", max_iters), Termination("converged", 0),
        Termination("nonfinite", 0), Termination("t_end", max_iters),
        Termination("t_end", max_iters)]
    assert calls[0] == 2 * max_iters


# --- buffers made once per live set ------------------------------------------


def shrinking_ensemble(name):
    """(problem, Z0, options) whose members stop in at least three different
    chunks of a run of REUSE_ITERS steps, besides a NaN start and a member
    that runs to the end; bilinear and quartic fields are exact in any row order."""
    if name == "mixed":
        return mixed_ensemble()
    if name == "bilinear":
        r, angle = 2.0 ** -np.arange(12), np.linspace(0.0, 3.0, 12)
        ring = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        Z0 = np.concatenate([ring * 1e-6, ring, [[np.nan, 0.0], [1.0, 1.0]]])
        return builtin_problem("bilinear"), Z0, dict(tol_conv=1e-10, diverge_norm=1e3)
    rng = np.random.default_rng(11)
    Z0 = np.concatenate([rng.uniform(-1e-2, 1e-2, (6, 2)) * 10.0 ** -np.arange(6)[:, None],
                         [[10.0, -10.0], [0.9, 0.9], [np.nan, 0.0]]])
    return quartic_problem(), Z0, dict(tol_conv=1e-10, diverge_norm=1e3)


REUSE_ITERS = 4 * LOCKSTEP_CHUNK + 5
REUSE_CASES = [(name, MethodParams(method=method, eta=eta, tau=tau))
               for name, eta, tau in (("bilinear", 0.5, 3.0), ("quartic", 0.1, 2.0))
               for method in ("gda_tt", "eg_tt")] + [
    ("mixed", MethodParams(method=method, s=10.0, tau=3.0, dt=0.5)) for method in ODE_METHODS]


def trajectory_arrays(batch):
    return [a for t in batch for a in (t.times, t.states, t.f_norms)]


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("name, params", REUSE_CASES,
                         ids=[f"{n}-{p.method}" for n, p in REUSE_CASES])
def test_reused_buffers_leak_nothing_between_live_sets_or_runs(name, params, record):
    problem, Z0, options = shrinking_ensemble(name)
    options = dict(options, max_iters=REUSE_ITERS, record=record)
    batch = run_batch(problem, Z0, params, **options)
    stops = [t.termination.step for t in batch if 0 < t.termination.step < REUSE_ITERS]
    assert len({k // LOCKSTEP_CHUNK for k in stops}) >= 3  # the live set shrinks 3 times
    for traj, z0 in zip(batch, Z0, strict=True):
        (single,) = run_batch(problem, [z0], params, **options)
        assert traj.termination == single.termination
        for a, b in zip(trajectory_arrays([traj]), trajectory_arrays([single])):
            np.testing.assert_array_equal(a, b)  # NaN equals NaN
    arrays = trajectory_arrays(batch)
    following = trajectory_arrays(run_batch(problem, Z0, params, **options))
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + following)


@pytest.mark.parametrize("k", [LOCKSTEP_CHUNK - 1, LOCKSTEP_CHUNK, 2 * LOCKSTEP_CHUNK - 1,
                               2 * LOCKSTEP_CHUNK, REUSE_ITERS - 1])
@pytest.mark.parametrize("method, z0", [("eg_tt", [0.6, -0.8]), ("gda_tt", [6e-4, -8e-4])])
def test_only_member_stops_at_a_chunk_boundary(bilinear, method, z0, k):
    """eg_tt converges and gda_tt diverges on bilinear; started from the state
    k samples before a long run's stop, one member stops at exactly sample k,
    whether that is the last sample a chunk tests, the first, or the last
    before max_iters."""
    params = MethodParams(method=method, eta=0.5, tau=3.0)
    options = dict(tol_conv=1e-10, diverge_norm=1e3, record=True)
    far = run_discrete(bilinear, z0, params, max_iters=100000, **options)
    end = far.termination.step
    assert end > REUSE_ITERS and far.termination.reason in ("converged", "diverged")
    traj = run_discrete(bilinear, far.states[end - k], params, max_iters=REUSE_ITERS,
                        **options)
    assert traj.termination == Termination(far.termination.reason, k)
    np.testing.assert_array_equal(traj.states, far.states[end - k:])
    np.testing.assert_array_equal(traj.f_norms, far.f_norms[end - k:])


@pytest.mark.parametrize("j", [5, LOCKSTEP_CHUNK + 5])
@pytest.mark.parametrize("method", ODE_METHODS)
def test_last_member_diverging_mid_chunk_is_diverged(method, j):
    """A checked batch ends at the sample where its last live member stops,
    here j samples in, in the first chunk and in the second; that sample is
    tested for divergence like any other.  The other member stops at once."""
    p = QuadraticSpec(A=[[-2.0]], B=[[1.0]], C=[[0.0]]).to_problem()  # the flow leaves 0
    params = MethodParams(method=method, s=0.4, tau=3.0, dt=0.01)
    far = run_discrete(p, [1e-4, -1e-4], params, max_iters=3000, diverge_norm=10.0)
    k = far.termination.step
    assert far.termination.reason == "diverged" and k > j
    batch = run_batch(p, [[0.0, 0.0], far.states[k - j]], params, max_iters=1000,
                      diverge_norm=10.0, record=True)
    assert [t.termination for t in batch] == [Termination("converged", 0),
                                              Termination("diverged", j)]
    np.testing.assert_array_equal(batch[1].states, far.states[k - j:])


def test_finite_run_stopping_mid_chunk_fixes_no_norm(monkeypatch):
    """The chunk ends at the sample where the run converged, so its stop pass
    sees only finite norms and leaves _fix_norms alone."""
    calls, fix = [], dynamics._fix_norms
    monkeypatch.setattr(dynamics, "_fix_norms", lambda *a: calls.append(a) or fix(*a))
    p = builtin_problem("scalar_degenerate", a=2.0, c=1.0)
    traj = run_discrete(p, [0.1, -0.1], MethodParams(method="ode_plain", dt=0.2),
                        tol_conv=1e-2, max_iters=60)
    assert traj.termination == Termination("converged", 14)
    assert np.isfinite(traj.f_norms).all() and calls == []


def same_bytes(a, b):
    """Whether two trajectories agree byte for byte."""
    return (a.termination == b.termination and a.times.tobytes() == b.times.tobytes()
            and a.states.tobytes() == b.states.tobytes()
            and a.f_norms.tobytes() == b.f_norms.tobytes())


def written_out_eg_tt(problem, z0, eta, tau, n):
    """n eg_tt steps, z - eta (lam F(z - eta (lam F(z)))), and the norms of F."""
    lam = dynamics.timescale_weights(problem.d1, problem.d2, tau)
    states = [np.asarray(z0, dtype=float)]
    for _ in range(n):
        z = states[-1]
        mid = z - eta * (lam * saddle_gradient(problem, z))
        states.append(z - eta * (lam * saddle_gradient(problem, mid)))
    return np.array(states), np.array([np.linalg.norm(saddle_gradient(problem, z))
                                       for z in states])


@pytest.mark.parametrize("name", ["quartic", "coupled"])
def test_general_path_equals_written_out_reference_bytewise(name):
    """The engine on a non-quadratic problem, byte for byte against the
    methods written out from saddle_gradient, the public jacobian_F and
    np.linalg.solve in the engine's order of operations."""
    problem = quartic_problem() if name == "quartic" else coupled_problem()
    rng = np.random.default_rng(21)
    start, far = rng.uniform(-0.5, 0.5, problem.dim), rng.uniform(-0.9, 0.9, problem.dim)
    ode = dict(s=0.4 / problem.lipschitz_bound, tau=3.0, dt=0.1, tol_conv=1e-3,
               diverge_norm=1e3)

    def reference(kind, z0):
        states, fnorms, reason, step = reference_integrate(
            problem, kind, z0, lambda z: jacobian_F(problem, z), t_end=2.0, **ode)
        return np.array(states), np.array(fnorms), Termination(reason, step)

    for kind in ("eg", "eg_tt"):
        traj = integrate(problem, kind, start, t_end=2.0, **ode)
        states, fnorms, term = reference(kind, start)
        assert traj.termination == term and traj.states.tobytes() == states.tobytes()
        assert traj.f_norms.tobytes() == fnorms.tobytes()
    # the member at the stationary origin stops at once and leaves the mask
    # false on its rows for the rest of the chunk
    Z0 = [np.zeros(problem.dim), start, far]
    params = MethodParams(method="ode_eg_tt", s=ode["s"], tau=3.0, dt=0.1)
    batch = run_batch(problem, Z0, params, tol_conv=1e-3, max_iters=20, diverge_norm=1e3,
                      record=True)
    assert batch[0].termination == Termination("converged", 0)
    assert batch[2].termination.step > 0
    for z0, traj in zip(Z0, batch, strict=True):
        states, fnorms, term = reference("eg_tt", z0)
        assert traj.termination == term and traj.states.tobytes() == states.tobytes()
        assert traj.f_norms.tobytes() == fnorms.tobytes()
    eta = 0.4 / problem.lipschitz_bound
    traj = run_discrete(problem, far, MethodParams(method="eg_tt", eta=eta, tau=3.0),
                        tol_conv=0.0, max_iters=40)
    states, fnorms = written_out_eg_tt(problem, far, eta, 3.0, 40)
    assert traj.termination == Termination("max_iters", 40)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.f_norms.tobytes() == fnorms.tobytes()


def contract_runs(grad, newton=True):
    """eg_tt and ode_eg_tt batches, and a Newton solve, on a 1 + 1 problem with grad."""
    problem = MinimaxProblem(d1=1, d2=1, value=lambda z: 0.0, grad=grad, lipschitz_bound=8.0)
    Z0 = [[0.5, -0.4], [0.9, 0.9]]
    runs = [run_batch(problem, Z0, MethodParams(method="eg_tt", eta=0.05, tau=2.0),
                      max_iters=30, record=True),
            run_batch(problem, Z0, MethodParams(method="ode_eg_tt", s=0.05, tau=2.0, dt=0.1),
                      max_iters=30, record=True)]
    return [t for batch in runs for t in batch], (
        find_stationary(problem, [0.3, 0.2]).tobytes() if newton else None)


def test_engine_takes_each_grad_result_whatever_its_container():
    """A list, an int array, or one buffer that grad overwrites on every
    call: each result is converted and copied before the next grad call."""
    def values(z):
        x, y = z
        return [x + x ** 3 + y, x - y - y ** 3]
    buf = np.empty(2)

    def reused(z):
        buf[:] = values(z)
        return buf
    want, want_root = contract_runs(lambda z: np.array(values(z)))
    for grad in (values, reused):
        got, root = contract_runs(grad)
        assert root == want_root and all(map(same_bytes, got, want))
    # an int-valued grad: rint(4 z), as int64 and as float64
    want, _ = contract_runs(lambda z: np.rint(4.0 * np.asarray(z)), newton=False)
    got, _ = contract_runs(lambda z: np.rint(4.0 * np.asarray(z)).astype(np.int64),
                           newton=False)
    assert all(map(same_bytes, got, want))


def test_engine_names_a_grad_of_the_wrong_shape():
    good, z0 = quartic_problem(), np.array([0.5, -0.4])
    everywhere = dataclasses.replace(good, grad=lambda z: np.ones(3))
    for run in (lambda p: integrate(p, "eg_tt", z0, s=0.05, tau=2.0),
                lambda p: run_discrete(p, z0, MethodParams(method="eg_tt", eta=0.05))):
        with pytest.raises(ValueError, match=r"grad must return shape \(2,\), got \(3,\)"):
            run(everywhere)  # from the rows of F
    # right at z0, wrong at the points z0 +- h e_i of the Jacobian's rows
    off = dataclasses.replace(good, grad=lambda z: good.grad(z) if np.array_equal(z, z0)
                              else np.ones((2, 1)))
    for run in (lambda p: integrate(p, "eg_tt", z0, s=0.05, tau=2.0),
                lambda p: find_stationary(p, z0)):
        with pytest.raises(ValueError, match=r"grad must return shape \(2,\), got \(2, 1\)"):
            run(off)


@pytest.mark.parametrize("method", ODE_METHODS)
def test_quadratic_ode_batch_overflowing_inside_a_chunk_equals_batches_of_one(method):
    """Stopped members ride the chunk through the stacked solve (quadratic
    fields ignore the mask): the inf start at once, the 1e300 start within
    25 steps (the flow grows 1.5x to 65x per step), and the 1e140, 1e120
    and (1, -1) starts mid-chunk, each at the first sample with a
    non-finite coordinate, not where their squares overflow.  Neither they
    nor the others change, down to the sign of a NaN norm: np.dot signs the
    NaN of F = Z H' at a NaN state by its row count, and the norm drops it."""
    p = QuadraticSpec(A=[[-2.0]], B=[[1.0]], C=[[0.0]]).to_problem()
    Z0 = [[np.inf, 0.0], [1e300, -1e300], [-1e140, 1e140], [1e120, -1e110], [1.0, -1.0]]
    params = MethodParams(method=method, s=0.4, tau=3.0, dt=0.5)
    options = dict(max_iters=1000, diverge_norm=math.inf, record=True)
    batch = run_batch(p, Z0, params, **options)
    singles = [run_batch(p, [z0], params, **options)[0] for z0 in Z0]
    for a, b in zip(batch, singles, strict=True):
        assert (a.termination.reason, a.termination.step) == (b.termination.reason,
                                                             b.termination.step)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.f_norms.tobytes() == b.f_norms.tobytes()
    steps = [t.termination.step for t in batch]
    assert steps[0] == 0 and 0 < steps[1] < 25
    assert all(overflow_stops(t, p) for t in batch[1:])
    assert all(k % LOCKSTEP_CHUNK for k in steps[2:])


def test_ode_run_that_takes_no_step_raises_nothing():
    # I + s H is singular; a batch whose members all stop at their first
    # sample never builds a stage, so the operator is never checked
    p = dataclasses.replace(
        QuadraticSpec(A=[[-2.0]], B=[[1.0]], C=[[0.0]]).to_problem(),
        lipschitz_bound=1.0)
    params = MethodParams(method="ode_eg", s=0.5, dt=0.1)
    batch = run_batch(p, [[0.0, 0.0], [np.nan, 0.0], [1e9, 0.0]], params, max_iters=10)
    assert [t.termination.reason for t in batch] == ["converged", "nonfinite", "diverged"]
    with pytest.raises(SingularOperatorError):
        run_batch(p, [[0.0, 0.0], [1.0, 1.0]], params, max_iters=10)


def test_eg_field_on_nan_gradient_names_the_non_finite_operator():
    with pytest.raises(SingularOperatorError, match="non-finite entries"):
        integrate(nan_beyond_two(), "eg", [1.0, 1.0], s=0.5, dt=0.1, t_end=10.0)


def test_batch_rejects_negative_max_iters(bilinear):
    for method in ("gda_tt", "ode_plain"):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 0, got -1"):
            run_batch(bilinear, [[1.0, 0.0]], MethodParams(method=method, eta=0.5),
                      max_iters=-1)


def test_batch_rejects_bad_shape(bilinear):
    params = MethodParams(method="gda_tt", eta=0.5)
    with pytest.raises(ValueError):
        run_batch(bilinear, np.zeros((3, 3)), params)
    assert run_batch(bilinear, np.zeros((0, 2)), params) == []


@pytest.mark.parametrize("bad", [lambda z: np.ones(3), lambda z: 1.0,
                                 lambda z: np.ones((2, 1))])
def test_grad_of_wrong_shape_is_rejected_by_every_entry_point(bad):
    p = dataclasses.replace(quartic_problem(), grad=bad)
    z0 = [0.5, -0.4]
    calls = [lambda kind=kind: integrate(p, kind, z0, s=0.05, dt=0.1, t_end=1.0)
             for kind in ("plain", "eg", "eg_tt")]
    calls += [lambda m=m: run_discrete(p, z0, MethodParams(method=m, eta=0.1, tau=2.0))
              for m in ("gda_tt", "eg_tt")]
    calls += [lambda: run_batch(p, [z0, z0], MethodParams(method="eg_tt", eta=0.1)),
              lambda: find_stationary(p, z0), lambda: ode_field(p, "eg", z0, s=0.05)]
    for call in calls:
        with pytest.raises(ValueError, match=r"grad must return shape \(2,\), got"):
            call()


# --- non-finite termination -------------------------------------------------


def nan_beyond_two():
    """F = (-x, y) while |x| <= 2 and NaN beyond: x grows under every
    method, so each run reaches the NaN region in a few steps."""
    def grad(z):
        x, y = z
        return np.array([-x, -y]) if abs(x) <= 2.0 else np.array([np.nan, np.nan])
    return MinimaxProblem(d1=1, d2=1, value=lambda z: 0.0, grad=grad, lipschitz_bound=1.0)


@pytest.mark.parametrize("method", ["gda_tt", "eg_tt"])
def test_run_discrete_nan_gradient_is_nonfinite(method):
    params = MethodParams(method=method, eta=0.5)
    traj = run_discrete(nan_beyond_two(), [1.0, 1.0], params, max_iters=1000)
    assert traj.termination.reason == "nonfinite"
    step = traj.termination.step
    assert step == len(traj) - 1 and 0 < step < 10
    assert np.isnan(traj.f_norms[-1]) and np.all(np.isfinite(traj.f_norms[:-1]))


def test_integrate_nan_gradient_is_nonfinite():
    traj = integrate(nan_beyond_two(), "plain", [1.0, 1.0], dt=0.1, t_end=10.0)
    assert traj.termination.reason == "nonfinite"
    step = traj.termination.step
    assert step == len(traj) - 1 and 0 < step < 100
    assert not np.isfinite(traj.f_norms[-1]) and np.all(np.isfinite(traj.f_norms[:-1]))


def test_inf_start_is_diverged_before_nonfinite(bilinear):
    params = MethodParams(method="gda_tt", eta=0.5)
    traj = run_discrete(bilinear, [np.inf, 0.0], params)
    assert (traj.termination.reason, traj.termination.step) == ("diverged", 0)
    with np.errstate(invalid="ignore"):  # F(inf, 0) takes inf * 0
        traj = integrate(bilinear, "plain", [np.inf, 0.0], dt=0.1, t_end=1.0)
    assert (traj.termination.reason, traj.termination.step) == ("diverged", 0)


# --- Newton -----------------------------------------------------------------


def test_newton_bilinear_one_shot(bilinear):
    z = find_stationary(bilinear, [0.3, -0.2], newton_tol=1e-12)
    assert np.linalg.norm(z) <= 1e-12


def test_newton_quadratic_single_step(nondeg):
    z = find_stationary(nondeg, [5.0, -7.0], newton_tol=1e-12, newton_max=2)
    assert np.linalg.norm(z) <= 1e-12


def test_newton_already_stationary(nondeg):
    z0 = np.zeros(2)
    assert_allclose(find_stationary(nondeg, z0), z0)


def test_newton_singular_jacobian():
    # H = [[1, 1], [-1, -1]] is singular
    p = QuadraticSpec(A=[[1.0]], B=[[1.0]], C=[[1.0]]).to_problem()
    with pytest.raises(SingularOperatorError):
        find_stationary(p, [1.0, 1.0])


def test_newton_error_names_the_iterations_and_the_residual(bilinear):
    """Newton on F = (x^3, y) shrinks x by 2/3 per step, so five steps from x = 1
    leave |F| = (2/3)^15; with newton_max = 0 the start itself is the last iterate."""
    cubic = MinimaxProblem(d1=1, d2=1, value=lambda z: z[0] ** 4 / 4 - z[1] ** 2 / 2,
                           grad=lambda z: np.array([z[0] ** 3, -z[1]]), lipschitz_bound=3.0)
    with pytest.raises(NewtonError, match=r"^no stationary point within 5 iterations "
                                          r"\(residual 2\.28[0-9]e-03\)$"):
        find_stationary(cubic, [1.0, 1.0], newton_max=5)
    assert abs(find_stationary(cubic, [1.0, 1.0])[0]) ** 3 <= 1e-10
    with pytest.raises(NewtonError, match=r"^no stationary point within 0 iterations "
                                          r"\(residual 3\.162e-01\)$"):
        find_stationary(bilinear, [0.3, 0.1], newton_max=0)


# --- trajectory bookkeeping -------------------------------------------------


def test_replay_matches_recorded_discrete(bilinear):
    params = MethodParams(method="eg_tt", eta=0.5, tau=4.0)
    traj = run_discrete(bilinear, [1.0, 1.0], params, max_iters=50)
    assert replay_deviation(bilinear, traj) == 0.0


def test_replay_matches_recorded_ode(bilinear):
    traj = integrate(bilinear, "eg_tt", [1.0, 0.0], s=0.3, tau=2.0, dt=0.05, t_end=1.0)
    assert replay_deviation(bilinear, traj) == 0.0
    dense = dense_quadratic(3, 2, seed=7)
    traj = integrate(dense, "eg_tt", np.ones(5), s=0.4 / dense.lipschitz_bound, tau=10.0,
                     dt=0.1, t_end=3.0)
    assert len(traj) == 31 and replay_deviation(dense, traj) == 0.0


def test_trajectory_csv_format(tmp_path, bilinear):
    params = MethodParams(method="gda_tt", eta=0.5, tau=1.0)
    traj = run_discrete(bilinear, [1.0, 0.0], params, max_iters=10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,z_0,z_1,F_norm"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 1.0 and float(first[3]) == 0.0
    # re-parse a full row and check the recorded gradient norm
    row = lines[-1].split(",")
    z = np.array([float(row[2]), float(row[3])])
    assert float(row[4]) == pytest.approx(np.linalg.norm(saddle_gradient(bilinear, z)))


def reference_trajectory_csv(traj, path):
    """The writer formatted one value at a time, as a fixed reference."""
    d = traj.states.shape[1]
    cols = ",".join(f"z_{i}" for i in range(d))
    with open(path, "w") as fh:
        fh.write(f"step,t,{cols},F_norm\n")
        for i, (t, z, fn) in enumerate(zip(traj.times, traj.states, traj.f_norms)):
            zs = ",".join(repr(float(v)) for v in z)
            fh.write(f"{i},{float(t)!r},{zs},{float(fn)!r}\n")


def test_trajectory_csv_matches_reference_writer(tmp_path, bilinear):
    special = np.array([[-0.0, np.nan], [np.inf, -np.inf], [1e-300, -5e-324],
                        [0.1, 1.0 / 3.0]])
    trajs = [
        run_discrete(bilinear, [1.0, 0.0], MethodParams(method="gda_tt", eta=0.5, tau=3.0),
                     max_iters=40),
        integrate(bilinear, "eg_tt", [1.0, 0.0], s=0.3, tau=2.0, dt=0.05, t_end=3.0),
        integrate(dense_quadratic(3, 2, seed=7), "plain", np.ones(5), dt=0.1, t_end=1.0),
        Trajectory(times=np.arange(4), states=special, f_norms=np.array([0.0, np.nan, np.inf, 2.0]),
                   termination=Termination("nonfinite"), params=MethodParams(method="gda_tt")),
        Trajectory(times=np.array([0.0, 0.1, 0.2, 1e300]), states=special[:, ::-1],
                   f_norms=np.array([-0.0, 1e-300, 3.0, np.nan]),
                   termination=Termination("nonfinite"), params=MethodParams(method="ode_plain")),
    ]
    assert trajs[0].times.dtype.kind == "i"
    for k, traj in enumerate(trajs):
        write_trajectory_csv(traj, tmp_path / f"new_{k}.csv")
        reference_trajectory_csv(traj, tmp_path / f"ref_{k}.csv")
        assert (tmp_path / f"new_{k}.csv").read_bytes() == (tmp_path / f"ref_{k}.csv").read_bytes()
    assert "\n0,0.0,-0.0,nan,0.0\n" in (tmp_path / "new_3.csv").read_text()
