import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minimaxdyn import spectral
from minimaxdyn.problems import (
    BUILTIN_NAMES,
    MinimaxProblem,
    QuadraticSpec,
    builtin_problem,
    default_fd_step,
    hessian_blocks_at,
    jacobian_F,
    load_problem,
    problem_from_json_dict,
    problem_to_json_dict,
    saddle_gradient,
    save_problem,
)


def x2y_problem():
    """f(x, y) = x^2 y, gradient only (exercises the finite-difference path)."""
    return MinimaxProblem(
        d1=1,
        d2=1,
        value=lambda z: z[0] ** 2 * z[1],
        grad=lambda z: np.array([2 * z[0] * z[1], z[0] ** 2]),
        lipschitz_bound=10.0,
        name="x2y",
    )


def test_saddle_gradient_bilinear():
    p = builtin_problem("bilinear")
    assert_allclose(saddle_gradient(p, [1.0, 1.0]), [1.0, -1.0])


def test_saddle_gradient_quadratic():
    p = builtin_problem("nondegenerate_quadratic", A=[[2.0]], B=[[-1.0]], C=[[1.0]])
    assert_allclose(saddle_gradient(p, [0.0, 0.0]), [0.0, 0.0])
    # Ax + Cy = 2 + 2, -(C'x + By) = -(1 - 2)
    assert_allclose(saddle_gradient(p, [1.0, 2.0]), [4.0, 1.0])


def test_saddle_gradient_rejects_bad_length():
    p = builtin_problem("bilinear")
    with pytest.raises(ValueError):
        saddle_gradient(p, [1.0, 2.0, 3.0])


def test_jacobian_bilinear_constant():
    p = builtin_problem("bilinear")
    for z in ([0.0, 0.0], [3.0, -2.0]):
        assert_allclose(jacobian_F(p, z), [[0.0, 1.0], [-1.0, 0.0]])


def test_jacobian_quadratic_exact():
    p = builtin_problem(
        "nondegenerate_quadratic",
        A=[[2.0, 0.5], [0.5, 1.0]], B=[[-1.0]], C=[[1.0], [0.0]],
    )
    H = jacobian_F(p, np.zeros(3))
    assert_allclose(H, [[2.0, 0.5, 1.0], [0.5, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def test_jacobian_finite_difference_fallback():
    # d2f/dx2 = 2y, d2f/dxdy = 2x, d2f/dy2 = 0 at (1, 1)
    H = jacobian_F(x2y_problem(), [1.0, 1.0])
    assert_allclose(H, [[2.0, 2.0], [-2.0, 0.0]], atol=1e-6)


def test_hessian_blocks_from_finite_differences():
    A, B, C = hessian_blocks_at(x2y_problem(), [1.0, 1.0])
    assert_allclose(A, [[2.0]], atol=1e-6)
    assert_allclose(B, [[0.0]], atol=1e-6)
    assert_allclose(C, [[2.0]], atol=1e-6)


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_problem("does_not_exist")
    with pytest.raises(ValueError):
        builtin_problem("bilinear", a=2.0)  # unused parameter


def test_builtin_bilinear_spec():
    p = builtin_problem("bilinear")
    q = p.quadratic
    assert_allclose(q.A, [[0.0]])
    assert_allclose(q.B, [[0.0]])
    assert_allclose(q.C, [[1.0]])


def test_builtin_scalar_degenerate_echo():
    p = builtin_problem("scalar_degenerate", a=2.0, c=1.0)
    q = p.quadratic
    assert_allclose(q.A, [[2.0]])
    assert_allclose(q.B, [[0.0]])
    assert_allclose(q.C, [[1.0]])


def test_builtin_strict_nonminimax_demo_has_negative_sres():
    p = builtin_problem("strict_nonminimax_demo")
    blocks = spectral.canonicalize(*hessian_blocks_at(p, np.zeros(p.dim)))
    rsc = spectral.restricted_schur(blocks)
    assert rsc.eigenvalues().min() < 0
    # H itself must be invertible for the curve machinery
    H = p.quadratic.hessian()
    assert abs(np.linalg.det(H)) > 1e-10


@pytest.mark.parametrize("name,params", [
    ("bilinear", {}),
    ("scalar_degenerate", {"a": 2.0, "c": 1.0}),
    ("scalar_degenerate", {"a": -2.0, "c": 1.0}),
    ("nondegenerate_quadratic", {"A": [[2.0]], "B": [[-1.0]], "C": [[1.0]]}),
    ("strict_nonminimax_demo", {}),
])
def test_jacobian_matches_finite_differences(name, params):
    p = builtin_problem(name, **params)
    fd_twin = dataclasses.replace(p, hessian_blocks=None)
    rng = np.random.default_rng(42)
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, p.dim)
        H = jacobian_F(p, z)
        H_fd = jacobian_F(fd_twin, z)
        scale = max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - H_fd)) <= 1e-5 * scale


def reference_fd_jacobian(problem, z, h):
    """One column per loop pass, each from two saddle_gradient calls."""
    n = problem.dim
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[:, i] = (saddle_gradient(problem, z + e) - saddle_gradient(problem, z - e)) / (2 * h)
    return H


def polynomial_problem(rng, d1, d2, seen=None):
    """grad = Q z + c * z^3 with sparse Q and c, so that some second
    derivatives are exactly zero; seen, if given, records every grad point."""
    d = d1 + d2
    Q = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.5)
    c = rng.standard_normal(d) * (rng.random(d) < 0.5)

    def grad(z):
        if seen is not None:
            seen.append(np.array(z))
        return (Q + Q.T) @ z + c * z ** 3
    return MinimaxProblem(d1=d1, d2=d2, value=lambda z: 0.0, grad=grad, lipschitz_bound=1.0)


def test_fd_jacobian_equals_per_column_reference():
    rng = np.random.default_rng(2024)
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            for _ in range(6):
                seen = []
                p = polynomial_problem(rng, d1, d2, seen)
                z = rng.standard_normal(d1 + d2) * (rng.random(d1 + d2) < 0.7)
                z[rng.random(d1 + d2) < 0.3] = -0.0
                for h_fd in (None, 1e-3, 10.0 ** rng.uniform(-8, 0)):
                    h = default_fd_step(z) if h_fd is None else h_fd
                    seen.clear()
                    H = jacobian_F(p, z, h_fd=h_fd)
                    got_points = list(seen)
                    seen.clear()
                    want = reference_fd_jacobian(p, z, h)
                    assert H.flags.c_contiguous
                    assert np.array_equal(H, want)
                    assert np.array_equal(np.signbit(H), np.signbit(want))
                    # grad sees the same points in the same order
                    assert len(got_points) == len(seen) == 2 * (d1 + d2)
                    for a, b in zip(got_points, seen):
                        assert np.array_equal(a, b)
                        assert np.array_equal(np.signbit(a), np.signbit(b))
                A, B, C = hessian_blocks_at(p, z)
                H = reference_fd_jacobian(p, z, default_fd_step(z))
                assert np.array_equal(A, (H[:d1, :d1] + H[:d1, :d1].T) / 2.0)
                assert np.array_equal(C, (H[:d1, d1:] - H[d1:, :d1].T) / 2.0)


def test_fd_jacobian_keeps_nonfinite_points_local():
    # at z = (inf, 1, -2) the default step is inf; each perturbed point must
    # differ from z in one coordinate only, so grad, which ignores z_0,
    # stays finite at z +- h e_0 (eye * inf would put NaN in every coordinate)
    p = MinimaxProblem(d1=1, d2=2, value=lambda z: 0.0, lipschitz_bound=1.0,
                       grad=lambda z: np.array([1.0, z[1] ** 2, z[1] * z[2]]))
    z = np.array([np.inf, 1.0, -2.0])
    with np.errstate(invalid="ignore"):
        H = jacobian_F(p, z)
        assert np.array_equal(H, reference_fd_jacobian(p, z, default_fd_step(z)), equal_nan=True)
    assert np.array_equal(H[:, 0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("h_fd", [0.0, -1e-4, np.nan, np.inf, -np.inf])
def test_bad_fd_step_is_rejected(h_fd):
    p = x2y_problem()
    with pytest.raises(ValueError, match="h_fd"):
        jacobian_F(p, [1.0, 1.0], h_fd=h_fd)
    with pytest.raises(ValueError, match="h_fd"):
        hessian_blocks_at(p, [1.0, 1.0], h_fd=h_fd)


@pytest.mark.parametrize("bad", [lambda z: np.ones(3), lambda z: 1.0,
                                 lambda z: np.ones((2, 1))])
def test_grad_of_wrong_shape_is_rejected(bad):
    p = dataclasses.replace(x2y_problem(), grad=bad)
    for call in (lambda: saddle_gradient(p, [1.0, 1.0]), lambda: jacobian_F(p, [1.0, 1.0]),
                 lambda: hessian_blocks_at(p, [1.0, 1.0])):
        with pytest.raises(ValueError, match=r"grad must return shape \(2,\), got"):
            call()


def test_fd_jacobian_rejects_bad_point():
    p = x2y_problem()
    for z in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="z must have length 2"):
            jacobian_F(p, z)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0])
def test_quadratic_saddle_gradient_is_linear(alpha):
    p = builtin_problem("strict_nonminimax_demo")
    rng = np.random.default_rng(0)
    z = rng.standard_normal(p.dim)
    assert_allclose(
        saddle_gradient(p, alpha * z), alpha * saddle_gradient(p, z), atol=1e-12
    )


def test_lipschitz_bound_is_spectral_norm():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        spec_q = QuadraticSpec(A=A + A.T, B=B + B.T, C=rng.standard_normal((2, 2)))
        p = spec_q.to_problem()
        assert abs(p.lipschitz_bound - np.linalg.norm(spec_q.hessian(), 2)) <= 1e-10


def test_quadratic_hessian_is_built_once_and_read_only():
    rng = np.random.default_rng(2)
    A, B = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
    spec_q = QuadraticSpec(A=A + A.T, B=B + B.T, C=rng.standard_normal((3, 2)))
    H = spec_q.hessian()
    assert np.array_equal(H, np.block([[spec_q.A, spec_q.C], [-spec_q.C.T, -spec_q.B]]))
    assert spec_q.hessian() is H and not H.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        H[0, 0] = 1.0


def test_symmetrize_rejects_asymmetric_blocks():
    with pytest.raises(ValueError, match="asymmetric"):
        QuadraticSpec(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0, 0.0], [0.0, 0.0]],
                      C=[[1.0, 0.0], [0.0, 1.0]])


def test_quadratic_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        QuadraticSpec(A=[[1.0]], B=[[1.0]], C=[[1.0, 2.0]])
    with pytest.raises(ValueError):
        QuadraticSpec(A=[[np.nan]], B=[[1.0]], C=[[1.0]])


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_bilinear_value_and_grad_consistent(x, y):
    p = builtin_problem("bilinear")
    z = np.array([x, y])
    assert p.value(z) == pytest.approx(x * y)
    assert_allclose(saddle_gradient(p, z), [y, -x])


def test_json_round_trip_quadratic(tmp_path):
    p = builtin_problem(
        "nondegenerate_quadratic",
        A=[[2.0, 0.5], [0.5, 1.0]], B=[[-1.0]], C=[[1.0], [0.25]],
    )
    path = tmp_path / "problem.json"
    save_problem(p, path)
    q = load_problem(path)
    assert_allclose(q.quadratic.A, p.quadratic.A)
    assert_allclose(q.quadratic.B, p.quadratic.B)
    assert_allclose(q.quadratic.C, p.quadratic.C)


def test_json_round_trip_builtin(tmp_path):
    p = builtin_problem("scalar_degenerate", a=-2.0, c=1.0)
    path = tmp_path / "problem.json"
    save_problem(p, path)
    q = load_problem(path)
    assert q.name == "scalar_degenerate"
    assert_allclose(q.quadratic.A, [[-2.0]])
    assert_allclose(q.quadratic.C, [[1.0]])


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown problem kind"):
        problem_from_json_dict({"kind": "mystery"})


def test_json_dict_shape():
    p = builtin_problem("bilinear")
    d = problem_to_json_dict(p)
    assert d == {"kind": "builtin", "name": "bilinear"}
