import dataclasses
import itertools
import json
import pathlib
import re

import numpy as np
import pytest
from conftest import assemble_hessian, random_saddle_blocks
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from minimaxdyn import spectral
from minimaxdyn.problems import QuadraticSpec, builtin_problem, hessian_blocks_at
from minimaxdyn.spectral import (
    DEFAULT_EPS_GRID,
    EigenCurves,
    EigencurveLabelError,
    LABEL_LINEAR,
    LABEL_ORDER_ONE,
    LABEL_SQRT,
    SLOPE_BAND,
    SingularHessianError,
    _assign,
    _check_invertible,
    _repeated_sigma_gap,
    canonicalize,
    default_psd_tol,
    eigencurves,
    hemicurvature,
    hemicurvature_closed_form,
    mu_roots_oracle,
    restricted_schur,
    rsc_subspace_oracle,
    s_zero,
    second_order_necessary,
    timescaled_hessian,
)
from minimaxdyn.stability import characterize_equilibrium

SHAPES = [(2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 2)]


def blocks_of(name, **params):
    p = builtin_problem(name, **params)
    return canonicalize(*hessian_blocks_at(p, np.zeros(p.dim)))


def hessian_of(name, **params):
    return builtin_problem(name, **params).quadratic.hessian()


def is_strict_non_minimax(blocks, tol=None):
    """The complement of second_order_necessary under the same tolerances."""
    so = second_order_necessary(blocks, psd_tol=tol)
    return not (so.B_nsd and so.Sres_psd)


# --- canonicalize -----------------------------------------------------------


def test_canonicalize_bilinear():
    b = blocks_of("bilinear")
    assert b.r == 0
    assert b.C1.shape == (1, 0)
    assert_allclose(b.C2, [[1.0]])


def test_canonicalize_already_diagonal():
    b = canonicalize(np.eye(2), np.diag([-2.0, 0.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert b.r == 1
    assert_allclose(b.D, [2.0])
    assert_allclose(b.C1, [[1.0], [3.0]])
    assert_allclose(b.C2, [[2.0], [4.0]])


def test_canonicalize_rotates_and_reconstructs():
    B = np.array([[-1.0, 1.0], [1.0, -1.0]])  # eigenvalues {-2, 0}
    b = canonicalize(np.eye(2), B, np.eye(2))
    assert b.r == 1
    assert_allclose(b.D, [2.0])
    assert np.max(np.abs(b.P @ b.B_diag @ b.P.T - B)) <= 1e-10
    assert_allclose(np.abs(b.P), np.full((2, 2), np.sqrt(0.5)), atol=1e-12)


def test_canonicalize_orders_by_magnitude():
    b = canonicalize(np.eye(3), np.diag([0.5, 0.0, -3.0]), np.zeros((3, 3)))
    assert b.r == 2
    assert_allclose(np.diag(b.B_diag), [-3.0, 0.5, 0.0])


@pytest.mark.parametrize("C", [[[np.nan]], [[np.inf]]], ids=["nan", "inf"])
def test_canonicalize_rejects_non_finite_C(C):
    # a NaN in C used to pass through to C2 and fail later as an SVD that did not converge
    with pytest.raises(ValueError, match="^C contains non-finite entries$"):
        canonicalize(np.eye(1), np.zeros((1, 1)), C)


def test_canonicalize_rejects_C_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"^C must be 2x1, got \(1, 2\)$"):
        canonicalize(np.eye(2), np.zeros((1, 1)), [[1.0, 2.0]])


# --- restricted Schur complement ---------------------------------------------


def test_restricted_schur_bilinear_vacuous():
    rsc = restricted_schur(blocks_of("bilinear"))
    assert rsc.S_res.shape == (0, 0)
    assert rsc.vacuous
    assert rsc.eigenvalues().size == 0


def test_restricted_schur_invertible_B_is_classical():
    A = np.array([[2.0, 0.5], [0.5, 3.0]])
    B = np.array([[-1.0, 0.2], [0.2, -2.0]])
    C = np.array([[1.0, 0.0], [0.5, 1.0]])
    b = canonicalize(A, B, C)
    rsc = restricted_schur(b)
    assert rsc.w == 2
    classical = A - C @ np.linalg.inv(B) @ C.T
    assert_allclose(np.sort(rsc.eigenvalues()), np.sort(np.linalg.eigvalsh(classical)),
                    atol=1e-10)


def test_restricted_schur_worked_example():
    # A = diag(3, -5), B = [0], C = e1: the complement of span{e1} is span{e2}
    b = canonicalize(np.diag([3.0, -5.0]), [[0.0]], [[1.0], [0.0]])
    rsc = restricted_schur(b)
    assert_allclose(rsc.S_res, [[-5.0]])
    assert_allclose(np.abs(rsc.U), [[0.0], [1.0]], atol=1e-12)


def test_subspace_oracle():
    assert rsc_subspace_oracle(blocks_of("bilinear"), seed=0) is True
    bad = canonicalize(np.diag([3.0, -5.0]), [[0.0]], [[1.0], [0.0]])
    assert rsc_subspace_oracle(bad, seed=0) is False
    # invertible B with PSD Schur complement: true on the whole space
    good = canonicalize(np.diag([3.0, 2.0]), [[-1.0]], [[0.5], [0.0]])
    assert rsc_subspace_oracle(good, seed=0) is True


@pytest.mark.parametrize("n_samples", [0, -3, True, np.True_, 1.5, 2.0])
def test_subspace_oracle_refuses_a_sample_count_that_is_no_count(n_samples):
    """Without a sample the oracle would read "vacuously PSD" on strict_nonminimax_demo,
    whose S_res has a negative eigenvalue."""
    blocks = blocks_of("strict_nonminimax_demo")
    assert not second_order_necessary(blocks).Sres_psd
    with pytest.raises(ValueError, match=f"^n_samples must be an integer >= 1, "
                                         f"got {re.escape(repr(n_samples))}$"):
        rsc_subspace_oracle(blocks, n_samples=n_samples)
    assert rsc_subspace_oracle(blocks, n_samples=np.int64(200)) is False


def test_second_order_necessary_examples():
    v = second_order_necessary(blocks_of("bilinear"))
    assert v.B_nsd and v.Sres_psd
    v = second_order_necessary(canonicalize([[2.0]], [[1.0]], [[1.0]]))
    assert not v.B_nsd
    v = second_order_necessary(blocks_of("scalar_degenerate", a=2.0, c=1.0))
    assert v.B_nsd and v.Sres_psd and v.rsc.vacuous


def test_strict_non_minimax_examples():
    assert is_strict_non_minimax(blocks_of("bilinear")) is False
    assert is_strict_non_minimax(canonicalize([[2.0]], [[1.0]], [[1.0]])) is True
    bad = canonicalize(np.diag([3.0, -5.0]), [[0.0]], [[1.0], [0.0]])
    assert is_strict_non_minimax(bad) is True
    assert is_strict_non_minimax(blocks_of("strict_nonminimax_demo")) is True


def reference_strict_non_minimax(blocks, tol=None):
    """The direct test: lambda_min(-B) < -tol, else lambda_min(S_res) < -tol."""
    eig_B = np.diag(blocks.B_diag)
    lam_min_negB = float(np.min(-eig_B)) if eig_B.size else 0.0
    if lam_min_negB < -(default_psd_tol(blocks.B_diag) if tol is None else tol):
        return True
    rsc = restricted_schur(blocks)
    if rsc.vacuous:
        return False
    return float(np.min(rsc.eigenvalues())) < -(default_psd_tol(rsc.S_res) if tol is None else tol)


def test_strict_non_minimax_is_the_complement_of_the_necessary_condition():
    rng = np.random.default_rng(21)
    cases = [blocks_of(n) for n in ("bilinear", "strict_nonminimax_demo")]
    cases += [blocks_of("scalar_degenerate", a=a, c=1.0) for a in (-1.0, 0.0, 2.0)]
    for d1, d2, r in SHAPES + [(2, 2, 2)]:
        for _ in range(25):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            cases.append(canonicalize(A, B if rng.random() < 0.7 else -B, C))
    verdicts = set()
    for blocks in cases:
        for tol in (None, 0.0, 1e-8, 0.3):
            snm = is_strict_non_minimax(blocks, tol)
            assert snm is reference_strict_non_minimax(blocks, tol)
            verdicts.add(snm)
    assert verdicts == {True, False}


# --- timescaled Hessian -------------------------------------------------------


def test_timescaled_bilinear():
    H = hessian_of("bilinear")
    assert_allclose(timescaled_hessian(H, 10.0, 1), [[0.0, 0.1], [-1.0, 0.0]])
    assert_allclose(timescaled_hessian(H, 1.0, 1), H)


def test_timescaled_scales_top_rows_only():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((5, 5))
    Ht = timescaled_hessian(H, 4.0, 2)
    assert_allclose(Ht[:2], H[:2] / 4.0)
    assert_allclose(Ht[2:], H[2:])
    with pytest.raises(ValueError):
        timescaled_hessian(H, 0.5, 2)


@pytest.mark.parametrize("d1", [1.5, True, np.True_, 0, 3, 5],  # H is 2 x 2
                         ids=["fraction", "True", "np.True_", "zero", "n+1", "5"])
def test_timescaled_hessian_rejects_bad_d1(d1):
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match=r"^d1 must be an integer with 0 < d1 <= 2, got "):
        timescaled_hessian(H, 10.0, d1)
    with pytest.raises(ValueError, match=r"^H must be square with 0 < d1 <= n$"):
        timescaled_hessian(np.ones((2, 3)), 10.0, 1)
    assert timescaled_hessian(H, 10.0, np.int64(1)).tobytes() == timescaled_hessian(
        H, 10.0, 1).tobytes()


@pytest.mark.parametrize("tau", [np.ones((2, 2)), np.ones((1, 3)), np.ones((0, 2))],
                         ids=["2x2", "1x3", "0x2"])
def test_timescaled_hessian_takes_a_scalar_or_a_1d_grid(tau):
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match=r"^tau must be a scalar or a 1-d grid, got shape "):
        timescaled_hessian(H, tau, 1)
    assert timescaled_hessian(H, [1.0, 2.0], 1).shape == (2, 2, 2)
    assert timescaled_hessian(H, np.float64(2.0), 1).shape == (2, 2)


# --- eigencurves ---------------------------------------------------------------


def test_eigencurves_bilinear_exact():
    curves = eigencurves(hessian_of("bilinear"), 1)
    assert curves.labels == [LABEL_SQRT, LABEL_SQRT]
    for i, eps in enumerate(curves.eps):
        lam = np.sort_complex(curves.lam[:, i])
        assert abs(lam[0] + 1j * np.sqrt(eps)) <= 1e-12
        assert abs(lam[1] - 1j * np.sqrt(eps)) <= 1e-12


def test_eigencurves_nondegenerate_types():
    H = QuadraticSpec(A=[[2.0]], B=[[-1.0]], C=[[1.0]]).hessian()
    curves = eigencurves(H, 1)
    assert sorted(curves.labels) == [LABEL_LINEAR, LABEL_ORDER_ONE]
    j_lin = curves.labels.index(LABEL_LINEAR)
    j_one = curves.labels.index(LABEL_ORDER_ONE)
    eps_min = curves.eps[-1]
    assert curves.lam[j_lin, -1] / eps_min == pytest.approx(3.0, abs=1e-4)
    assert curves.lam[j_one, -1] == pytest.approx(1.0, abs=1e-4)


def test_eigencurves_scalar_degenerate_closed_form():
    # char poly lambda^2 - a eps lambda + c^2 eps = 0 with a=2, c=1
    curves = eigencurves(hessian_of("scalar_degenerate", a=2.0, c=1.0), 1)
    assert curves.labels == [LABEL_SQRT, LABEL_SQRT]
    for i, eps in enumerate(curves.eps):
        expected = eps + 1j * np.sqrt(eps - eps**2)
        lam = np.sort_complex(curves.lam[:, i])
        assert abs(lam[1] - expected) <= 1e-10
        assert abs(lam[0] - expected.conjugate()) <= 1e-10
    assert 0.4 <= curves.slopes[0] <= 0.6


def test_eigencurves_rejects_singular_H():
    H = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularHessianError):
        eigencurves(H, 1)


def test_singular_H_is_one_check_at_cond_1e12():
    """spectral.HESSIAN_COND_LIMIT is 1e12; the literals are deliberate.  eigencurves
    and mu_roots_oracle refuse through the same check, with the same message."""
    for cond in (1e12 * 0.999, 1e12):
        _check_invertible(np.diag([1.0, 1.0 / cond]))
    for cond in (1e12 * 1.001, np.inf):
        with pytest.raises(SingularHessianError, match=r"^H numerically singular \(cond ~ "):
            _check_invertible(np.diag([1.0, 1.0 / cond]))
    singular = canonicalize(np.zeros((2, 2)), [[0.0]], [[1.0], [0.0]])  # H has a zero row
    messages = []
    for call in (lambda: eigencurves(np.block([[singular.A, singular.C2],
                                               [-singular.C2.T, -singular.B_diag]]), 2),
                 lambda: mu_roots_oracle(singular)):
        with pytest.raises(SingularHessianError) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("H numerically singular (cond ~ ")


@pytest.mark.parametrize("H", [np.float64(1.0), 1.0, np.ones(2), np.ones((2, 3))],
                         ids=["float64", "float", "vector", "2x3"])
def test_eigencurves_rejects_non_square_H(H):
    with pytest.raises(ValueError, match=r"^H must be square with 0 < d1 <= n$"):
        eigencurves(H, 1)


@pytest.mark.parametrize("d1", [1.5, True, np.True_, 0, 3],  # H is 2 x 2
                         ids=["fraction", "True", "np.True_", "zero", "n+1"])
def test_eigencurves_rejects_bad_d1(d1):
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match=r"^d1 must be an integer with 0 < d1 <= 2, got "):
        eigencurves(H, d1)
    assert eigencurves(H, np.int64(1)).counts() == eigencurves(H, 1).counts()


def test_eigencurves_rejects_bad_grid():
    H = hessian_of("bilinear")
    with pytest.raises(ValueError):
        eigencurves(H, 1, eps_grid=np.array([1e-3, 1e-2, 1e-1, 1.0]))  # increasing
    with pytest.raises(ValueError):
        eigencurves(H, 1, eps_grid=np.array([2.0, 1.0, 0.5, 0.25]))  # leaves (0, 1]
    for grid in ([np.nan, 1e-1, 1e-2, 1e-3], [1e-1, 1e-2, np.nan, 1e-3], [np.inf, 1.0, 0.5, 0.25]):
        with pytest.raises(ValueError, match="^eps_grid must be finite$"):
            eigencurves(H, 1, eps_grid=np.array(grid))


def test_eigencurves_label_error_on_coarse_grid():
    # real roots at eps in [0.3, 0.9] for a=4, c=1; slopes fit no band there
    H = hessian_of("scalar_degenerate", a=4.0, c=1.0)
    grid = np.geomspace(0.9, 0.3, 5)
    _, slopes, labels, _ = reference_curves(H, 1, grid)
    j = labels.index(None)
    with pytest.raises(EigencurveLabelError,
                       match=rf"^curve {j}: slope {slopes[j]:.3f} fits no asymptotic type$"):
        eigencurves(H, 1, eps_grid=grid)


def test_eigencurves_refuses_H_not_in_saddle_form():
    with pytest.raises(ValueError, match=r"^H is not in saddle block form: lower-left != -C'$"):
        eigencurves(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)


def test_eigencurves_label_counts_must_match_the_structure(monkeypatch):
    """Slopes that all fit a band but contradict rank(B) raise; forced here by
    handing the tracker bilinear's blocks with r = 1 where rank(B) = 0."""
    real = spectral.canonicalize
    monkeypatch.setattr(spectral, "canonicalize",
                        lambda A, B, C: dataclasses.replace(real(A, B, C), r=1))
    with pytest.raises(EigencurveLabelError, match=r"^label counts \(2, 0, 0\) inconsistent "
                                                   r"with structural counts \(0, 1, 1\)$"):
        eigencurves(hessian_of("bilinear"), 1)


def test_eigencurves_structural_counts_on_random_instances():
    rng = np.random.default_rng(11)
    for d1, d2, r in SHAPES:
        for _ in range(5):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            curves = eigencurves(assemble_hessian(A, B, C), d1)
            assert curves.counts() == (2 * (d2 - r), d1 - d2 + r, r)


def test_eigencurves_asymptotic_values_on_random_instances():
    rng = np.random.default_rng(12)
    for d1, d2, r in SHAPES:
        for _ in range(3):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            blocks = canonicalize(A, B, C)
            curves = eigencurves(assemble_hessian(A, B, C), d1)
            mus = np.sort(restricted_schur(blocks).eigenvalues())
            nus = np.sort(-np.diag(blocks.B_diag)[:r])
            lin = np.sort([curves.lam[j, -1].real / curves.eps[-1]
                           for j, l in enumerate(curves.labels) if l == LABEL_LINEAR])
            one = np.sort([curves.lam[j, -1].real
                           for j, l in enumerate(curves.labels) if l == LABEL_ORDER_ONE])
            assert_allclose(lin, mus, atol=1e-4)
            assert_allclose(one, nus, atol=1e-4)
            # sqrt curves come two per singular value of C2
            est = np.abs(curves.lam[curves.sqrt_indices, -1]) / np.sqrt(curves.eps[-1])
            assert_allclose(np.sort(est), np.sort(np.repeat(restricted_schur(blocks).sigma, 2)),
                            atol=1e-3)


def test_eigencurves_never_vanish():
    rng = np.random.default_rng(13)
    for d1, d2, r in SHAPES:
        A, B, C = random_saddle_blocks(rng, d1, d2, r)
        curves = eigencurves(assemble_hessian(A, B, C), d1)
        assert np.min(np.abs(curves.lam)) > 0.0


def reference_curves(H, d1, eps_grid):
    """lam, slopes and labels computed one at a time: one
    eigvals call per grid point and scipy's assignment per step, with the same
    power-law prediction as eigencurves; one np.polyfit per curve over the
    finest decade (the last two points when it holds one) and the bands tested
    in turn, None for a slope in none.  Also returns the tracking cost matrices."""
    n = H.shape[0]
    lam = np.empty((n, len(eps_grid)), dtype=complex)
    costs = []
    for i, eps in enumerate(eps_grid):
        vals = np.linalg.eigvals(timescaled_hessian(H, 1.0 / eps, d1))
        if i == 0:
            lam[:, 0] = vals[np.lexsort((vals.imag, vals.real))]
            continue
        if i == 1:
            pred = lam[:, 0]
        else:
            beta = np.log(eps_grid[i] / eps_grid[i - 1]) / np.log(
                eps_grid[i - 1] / eps_grid[i - 2])
            pred = lam[:, i - 1] * (lam[:, i - 1] / lam[:, i - 2]) ** beta
        costs.append(np.abs(pred[:, None] - vals[None, :]))
        _, cols = linear_sum_assignment(costs[-1])
        lam[:, i] = vals[cols]
    finest = eps_grid <= eps_grid[-1] * 10.0 * (1.0 + 1e-12)
    if np.count_nonzero(finest) < 2:
        finest[-2:] = True
    slopes, labels = np.empty(n), []
    for j in range(n):
        slopes[j] = np.polyfit(np.log(eps_grid[finest]), np.log(np.abs(lam[j, finest])), 1)[0]
        if abs(slopes[j] - 0.5) <= SLOPE_BAND:
            labels.append(LABEL_SQRT)
        elif abs(slopes[j] - 1.0) <= SLOPE_BAND:
            labels.append(LABEL_LINEAR)
        elif abs(slopes[j]) <= SLOPE_BAND:
            labels.append(LABEL_ORDER_ONE)
        else:
            labels.append(None)
    return lam, slopes, labels, costs


def has_tie(cost):
    """True when more than one assignment attains the minimal total cost."""
    rows = np.arange(cost.shape[0])
    totals = [cost[rows, list(p)].sum() for p in itertools.permutations(rows)]
    return totals.count(min(totals)) > 1


def test_eigencurves_match_per_eps_reference():
    cases = {
        "bilinear": (hessian_of("bilinear"), 1),
        "strict_nonminimax_demo": (hessian_of("strict_nonminimax_demo"), 2),
        "scalar_degenerate": (hessian_of("scalar_degenerate", a=2.0, c=1.0), 1),
        # two real curves meet and leave as a conjugate pair: a tracking tie
        "tie": (hessian_of("scalar_degenerate", a=10.0, c=1.0), 1),
    }
    rng = np.random.default_rng(14)
    for d1, d2, r in SHAPES:
        for k in range(3):
            cases[(d1, d2, r, k)] = (assemble_hessian(*random_saddle_blocks(rng, d1, d2, r)), d1)
    coarse = np.geomspace(1e-1, 1e-9, 4)
    assert np.count_nonzero(coarse <= 10.0 * coarse[-1]) == 1  # slopes from the last two points
    for grid in (DEFAULT_EPS_GRID, np.geomspace(0.5, 1e-8, 17), coarse):
        for key, (H, d1) in cases.items():
            curves = eigencurves(H, d1, eps_grid=grid)
            lam, slopes, labels, costs = reference_curves(H, d1, grid)
            assert np.array_equal(curves.lam, lam), key
            assert curves.slopes.tobytes() == slopes.tobytes(), key
            assert curves.labels == labels, key
            if key == "tie" and grid is not coarse:
                assert any(has_tie(c) for c in costs)


# --- assignment solver ---------------------------------------------------------

ASSIGN_CORPUS = pathlib.Path(__file__).with_name("assign_corpus.json")


def assert_assign_is_scipys(cost):
    """_assign gives scipy's columns, or refuses the matrix where scipy does."""
    try:
        want = linear_sum_assignment(cost)[1]
    except ValueError:
        with pytest.raises(ValueError, match="^cost matrix (is infeasible|holds NaN or -inf)"):
            _assign(cost)
        return
    got = _assign(cost)
    assert got.tolist() == want.tolist(), cost


def square_costs(elements):
    """n x n cost matrices, n from 1 to 8, with entries drawn from elements."""
    return st.integers(1, 8).flatmap(lambda n: arrays(np.float64, (n, n), elements=elements))


@given(square_costs(st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=200, deadline=None)
def test_assign_matches_scipy_on_random_floats(cost):
    assert_assign_is_scipys(cost)


@given(square_costs(st.integers(-2, 2).map(float)))
@settings(max_examples=300, deadline=None)
def test_assign_matches_scipy_on_tie_heavy_small_integers(cost):
    assert_assign_is_scipys(cost)


@given(st.integers(1, 8), st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_assign_matches_scipy_on_constant_matrices(n, value):
    assert_assign_is_scipys(np.full((n, n), value))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    arrays(np.float64, (3, 3), elements=st.integers(0, 3).map(float)),
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
    st.lists(st.integers(0, 2), min_size=n, max_size=n))))
@settings(max_examples=200, deadline=None)
def test_assign_matches_scipy_with_duplicated_rows_and_columns(drawn):
    base, rows, cols = drawn
    assert_assign_is_scipys(base[np.ix_(rows, cols)])


@given(square_costs(st.sampled_from([0.0, 1.0, 2.0, np.inf])))
@settings(max_examples=150, deadline=None)
def test_assign_matches_scipy_with_infinite_costs(cost):
    assert_assign_is_scipys(cost)


def test_assign_matches_scipy_on_the_tracking_corpus():
    """Every cost matrix of one classify_sweep and one general_problem round
    of perfbench that misses the first-minima fast path: real curve crossings."""
    corpus = json.loads(ASSIGN_CORPUS.read_text())
    assert (len(corpus["classify_sweep"]), len(corpus["general_problem"])) == (48, 93)
    for cost in map(np.array, corpus["classify_sweep"] + corpus["general_problem"]):
        assert len(set(cost.argmin(1).tolist())) < len(cost)
        assert_assign_is_scipys(cost)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_assign_refuses_nan_and_minus_inf_by_name(bad):
    for n in (1, 2, 4):
        for i, j in itertools.product(range(n), repeat=2):
            cost = np.arange(n * n, dtype=float).reshape(n, n)
            cost[i, j] = bad
            with pytest.raises(ValueError, match="^cost matrix holds NaN or -inf entries$"):
                _assign(cost)
            with pytest.raises(ValueError):
                linear_sum_assignment(cost)


@pytest.mark.parametrize("cost", [
    [[np.inf]],
    [[1.0, np.inf], [2.0, np.inf]],
    [[np.inf, np.inf], [0.0, 1.0]],
    [[0.0, np.inf, np.inf], [np.inf, 0.0, np.inf], [np.inf, 1.0, np.inf]],
])
def test_assign_refuses_an_infeasible_matrix_by_name(cost):
    cost = np.array(cost)
    with pytest.raises(ValueError, match="^cost matrix is infeasible$"):
        _assign(cost)
    with pytest.raises(ValueError, match="infeasible"):
        linear_sum_assignment(cost)


def tracker_betas(grid):
    """The power-law exponents as the curve tracker computes them: one vector pass."""
    steps = np.log(grid[1:] / grid[:-1])
    return (steps[1:] / steps[:-1]).tolist()


def eps_grid_forms():
    """DEFAULT_EPS_GRID, and the geometric grids of sweep's --eps-grid lo:hi:n."""
    lo, hi = st.floats(1e-12, 1.0), st.floats(1e-300, 1.0)
    grids = st.tuples(lo, hi, st.integers(4, 200)).filter(lambda t: t[1] < t[0])
    return st.one_of(st.just(DEFAULT_EPS_GRID), grids.map(lambda t: np.geomspace(*t)))


@given(eps_grid_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_vectorised_betas_are_the_per_point_scalars_bit_for_bit(grid, seed):
    """The tracker computes every exponent in one vector pass and raises the
    ratios to them as Python floats; each must keep the bits of the scalar
    np.log(eps_i / eps_{i-1}) / np.log(eps_{i-1} / eps_{i-2}), and so must
    the complex power, or the tracked curves move in the last bit."""
    if np.any(np.diff(grid) >= 0):
        return  # geomspace rounded two points together: no eigencurves grid
    ratio = np.random.default_rng(seed).standard_normal((6, 2)) @ [1.0, 1j]
    for i, beta in enumerate(tracker_betas(grid), 2):
        scalar = np.log(grid[i] / grid[i - 1]) / np.log(grid[i - 1] / grid[i - 2])
        assert type(beta) is float and beta == scalar
        assert (ratio**beta).tobytes() == (ratio**scalar).tobytes()


def test_tracker_betas_on_the_default_grid_hold_the_unit_powers_it_skips():
    betas = tracker_betas(DEFAULT_EPS_GRID)
    assert len(betas) == 38 and betas.count(1.0) == 8


def complex_with_specials(rng, shape):
    """Complex normals over 600 decades, with NaN, infinities, signed zeros,
    the smallest subnormal and near-overflow values in either part."""
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7e308])
    parts = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-300, 300, (2, *shape))
    hit = rng.random((2, *shape)) < rng.choice([0.0, 0.2, 1.0])
    parts[hit] = rng.choice(specials, hit.sum())
    x = np.empty(shape, dtype=complex)
    x.real, x.imag = parts  # 1j * inf would put NaN into the real part
    return x


def test_complex_power_one_keeps_the_tracking_cost_bit_for_bit():
    """The tracker takes lam * ratio, not lam * ratio ** beta, where beta ==
    1.0.  Complex x ** 1.0 keeps every bit of x, NaN and inf included, except
    that a zero comes back as +0+0j whatever the signs of its parts; the cost
    |lam * ratio ** 1.0 - v| the tracker assigns on keeps every bit."""
    rng = np.random.default_rng(22)
    with np.errstate(all="ignore"):
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            lam, prev, vals = (complex_with_specials(rng, (n,)) for _ in range(3))
            ratio = lam / prev
            zero = ratio == 0
            assert (ratio[~zero] ** 1.0).tobytes() == ratio[~zero].tobytes()
            assert (ratio[zero] ** 1.0).tobytes() == np.zeros(zero.sum(), complex).tobytes()
            cost = np.abs(lam[:, None] * ratio[:, None] ** 1.0 - vals)
            assert cost.tobytes() == np.abs(lam[:, None] * ratio[:, None] - vals).tobytes()


# --- mu-equation pencil oracle -------------------------------------------------


def test_mu_roots_worked_examples():
    roots = mu_roots_oracle(canonicalize([[2.0]], [[-1.0]], [[1.0]]))
    assert_allclose(roots, [3.0 + 0.0j], atol=1e-10)
    roots = mu_roots_oracle(canonicalize(np.diag([3.0, -5.0]), [[0.0]], [[1.0], [0.0]]))
    assert_allclose(roots, [-5.0 + 0.0j], atol=1e-10)
    assert mu_roots_oracle(blocks_of("bilinear")).size == 0


def test_mu_roots_match_sres_spectrum():
    rng = np.random.default_rng(21)
    for d1, d2, r in SHAPES:
        for _ in range(50):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            blocks = canonicalize(A, B, C)
            mus = np.sort(restricted_schur(blocks).eigenvalues())
            roots = mu_roots_oracle(blocks)
            assert np.max(np.abs(np.imag(roots)), initial=0.0) <= 1e-8
            assert_allclose(np.sort(np.real(roots)), mus, atol=1e-8)


def test_subspace_oracle_agrees_with_sres_verdict():
    rng = np.random.default_rng(22)
    checked = 0
    for d1, d2, r in SHAPES:
        for _ in range(50):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            blocks = canonicalize(A, B, C)
            rsc = restricted_schur(blocks)
            if rsc.vacuous:
                assert rsc_subspace_oracle(blocks, seed=checked) is True
                checked += 1
                continue
            lam_min = float(np.min(rsc.eigenvalues()))
            psd_tol = max(1e-8 * np.linalg.norm(rsc.S_res, 2), 1e-10)
            if abs(lam_min) < 10 * psd_tol:
                continue  # margin case excluded by protocol
            verdict = lam_min >= 0
            assert rsc_subspace_oracle(blocks, n_samples=300, seed=checked) is verdict
            checked += 1
    assert checked >= 100


# --- hemicurvature ---------------------------------------------------------------


def test_hemicurvature_bilinear_zero():
    curves = eigencurves(hessian_of("bilinear"), 1)
    for j in curves.sqrt_indices:
        assert hemicurvature(curves, j) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a,c", [(2.0, 1.0), (-2.0, 1.0), (4.0, 3.0)])
def test_hemicurvature_scalar_degenerate(a, c):
    curves = eigencurves(hessian_of("scalar_degenerate", a=a, c=c), 1)
    expected = a / (2 * c * c)
    for j in curves.sqrt_indices:
        assert hemicurvature(curves, j) == pytest.approx(expected, abs=1e-3)
    blocks = blocks_of("scalar_degenerate", a=a, c=c)
    assert hemicurvature_closed_form(blocks, 0) == expected


@pytest.mark.parametrize("j", [-1, -2, True, np.True_, 1.0, 0.5, 2, None],
                         ids=["-1", "-2", "True", "np.True_", "1.0", "0.5", "n", "None"])
def test_hemicurvature_rejects_bad_index(j):
    curves = eigencurves(hessian_of("bilinear"), 1)  # two sqrt-order curves
    with pytest.raises(ValueError, match=r"^j must be an integer with 0 <= j < 2, got "):
        hemicurvature(curves, j)
    assert hemicurvature(curves, np.int64(1)) == hemicurvature(curves, 1)


def test_hemicurvature_requires_sqrt_label():
    H = QuadraticSpec(A=[[2.0]], B=[[-1.0]], C=[[1.0]]).hessian()
    curves = eigencurves(H, 1)
    with pytest.raises(ValueError):
        hemicurvature(curves, 0)


def test_hemicurvature_closed_form_two_dim_example():
    # A = diag(4, -4), B = [0], C = e1: u_1 = e1, iota = 4 / (2 * 1) = 2
    blocks = canonicalize(np.diag([4.0, -4.0]), [[0.0]], [[1.0], [0.0]])
    assert hemicurvature_closed_form(blocks, 0) == pytest.approx(2.0)
    H = assemble_hessian(np.diag([4.0, -4.0]), [[0.0]], [[1.0], [0.0]])
    curves = eigencurves(H, 2)
    for j in curves.sqrt_indices:
        assert hemicurvature(curves, j) == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("j", [True, 1.0, -1, 2])
def test_hemicurvature_closed_form_rejects_bad_index(j):
    blocks = canonicalize(np.diag([4.0, -4.0]), np.zeros((2, 2)), np.diag([1.0, 2.0]))
    assert hemicurvature_closed_form(blocks, np.int64(1)) == hemicurvature_closed_form(blocks, 1)
    with pytest.raises(ValueError, match=r"^no singular value with index "):
        hemicurvature_closed_form(blocks, j)


def test_hemicurvature_closed_form_needs_a_C2():
    blocks = canonicalize([[1.0]], [[-1.0]], [[1.0]])  # r = d2 = 1: no sqrt-order curve
    with pytest.raises(ValueError, match="^no sqrt-order curves: C2 is empty$"):
        hemicurvature_closed_form(blocks, 0)


def test_hemicurvature_closed_form_refuses_repeated_sigma():
    blocks = canonicalize(np.eye(2), np.zeros((2, 2)), np.eye(2))  # sigma = {1, 1}
    with pytest.raises(ValueError, match="not distinct"):
        hemicurvature_closed_form(blocks, 0)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 100.0])
def test_sigma_pairs_repeat_within_one_millionth(scale):
    """spectral.SIGMA_SEP_TOL is 1e-6 of max sigma, with no floor below sigma = 1;
    the literals are deliberate."""
    assert _repeated_sigma_gap([scale * (1 + 1e-5), scale]) is None
    gap = _repeated_sigma_gap([scale * (1 + 1e-7), scale])
    assert gap == pytest.approx(scale * 1e-7, rel=1e-6)


def test_hemicurvature_numeric_matches_closed_form_on_random_instances():
    """report.iota[k], the numeric iota of sigma_k's pair, against the closed form."""
    rng = np.random.default_rng(31)
    for d1, d2, r in SHAPES:
        if d2 - r == 0:
            continue
        for _ in range(5):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            blocks = canonicalize(A, B, C)
            rep = characterize_equilibrium(QuadraticSpec(A, B, C).to_problem(),
                                           np.zeros(d1 + d2))
            assert rep.distinct_sigma and len(rep.iota) == d2 - r
            for k, numeric in enumerate(rep.iota):
                closed = hemicurvature_closed_form(blocks, k)
                assert abs(numeric - closed) <= max(1e-3, 1e-2 * abs(closed))


def test_hemicurvature_divergence_detection():
    # synthetic sqrt-order curve with Re(lambda) ~ -eps^{3/4}: iota = -inf
    eps = DEFAULT_EPS_GRID
    lam = (-(eps**0.75) + 1j * np.sqrt(eps)).reshape(1, -1)
    curves = EigenCurves(eps=eps, lam=lam, labels=[LABEL_SQRT], slopes=np.array([0.5]))
    assert hemicurvature(curves, 0) == -np.inf
    assert s_zero(curves) == np.inf


def test_s_zero_values():
    assert s_zero(eigencurves(hessian_of("bilinear"), 1)) == pytest.approx(0.0, abs=1e-12)
    assert s_zero(eigencurves(hessian_of("scalar_degenerate", a=2.0, c=1.0), 1)) \
        == pytest.approx(-1.0, abs=1e-3)
    assert s_zero(eigencurves(hessian_of("scalar_degenerate", a=-2.0, c=1.0), 1)) \
        == pytest.approx(1.0, abs=1e-3)
    H = QuadraticSpec(A=[[2.0]], B=[[-1.0]], C=[[1.0]]).hessian()
    assert s_zero(eigencurves(H, 1)) == -np.inf


# --- curvature relation -----------------------------------------------------------


def menger_curvature(p1, p2, p3):
    """Signed curvature of the circle through three plane points."""
    d12, d23, d13 = p2 - p1, p3 - p2, p3 - p1
    cross = d12[0] * d23[1] - d12[1] * d23[0]
    return 2.0 * cross / (np.linalg.norm(d12) * np.linalg.norm(d23) * np.linalg.norm(d13))


@pytest.mark.parametrize("a,c", [(2.0, 1.0), (-2.0, 1.0)])
def test_hemicurvature_is_minus_half_curvature(a, c):
    curves = eigencurves(hessian_of("scalar_degenerate", a=a, c=c), 1)
    j = next(j for j in curves.sqrt_indices if curves.lam[j, -1].imag > 0)
    iota = hemicurvature(curves, j)
    # positive-imaginary branch, points ordered by increasing eps
    pts = [np.array([curves.lam[j, i].real, curves.lam[j, i].imag])
           for i in (-1, -2, -3)]
    kappa = menger_curvature(*pts)
    assert -0.5 * kappa == pytest.approx(iota, abs=5e-2)
