"""The classifier does not depend on coordinates inside each block.

Under H -> Q H Q' with Q = diag(Qx, Qy) orthogonal, that is A -> Qx A Qx',
B -> Qy B Qy' and C -> Qx C Qy', the paper's objects stay put: r, w, the
curve families, the predictions and the swept verdicts exactly; sigma up to
rounding; s0 up to the extrapolation error of the three finest grid points,
measured at up to 1.6e-4 relative on the benchmark's pool.

The scale half of the property (H -> cH with the steps scaled by 1/c) is
not here: hemicurvature's absolute +-inf cutoff and the absolute marginal
band break it at small and at large c.
"""

import numpy as np
import pytest
from conftest import random_orthogonal, random_saddle_blocks

from minimaxdyn.problems import QuadraticSpec, builtin_problem
from minimaxdyn.stability import characterize_equilibrium

SHAPES = [(2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 2), (2, 2, 2), (3, 2, 2)]


def instances():
    for name in ("bilinear", "scalar_degenerate", "strict_nonminimax_demo"):
        q = builtin_problem(name).quadratic
        yield name, (q.A, q.B, q.C)
    rng = np.random.default_rng(25)
    for shape in SHAPES:
        for k in range(3):
            yield (*shape, k), random_saddle_blocks(rng, *shape)


def report(A, B, C):
    p = QuadraticSpec(A=A, B=B, C=C).to_problem()
    return characterize_equilibrium(p, np.zeros(p.dim)), p.lipschitz_bound


CASES = list(instances())


@pytest.mark.parametrize("i", range(len(CASES)), ids=[str(key) for key, _ in CASES])
def test_block_rotations_change_no_verdict(i):
    A, B, C = CASES[i][1]
    want, L = report(A, B, C)
    rng = np.random.default_rng([25, i])
    for _ in range(3):
        Qx, Qy = random_orthogonal(rng, len(A)), random_orthogonal(rng, len(B))
        got, L_rot = report(Qx @ A @ Qx.T, Qy @ B @ Qy.T, Qx @ C @ Qy.T)
        assert (got.r, got.w) == (want.r, want.w)
        assert got.curves.counts() == want.curves.counts()
        assert got.predictions == want.predictions
        assert {m: v.verdict for m, v in got.observed.items()} == {
            m: v.verdict for m, v in want.observed.items()}
        assert got.mismatches == want.mismatches
        np.testing.assert_allclose(got.sigma, want.sigma, rtol=1e-12, atol=0.0)
        if np.isfinite(want.s0):
            assert got.s0 * L_rot == pytest.approx(want.s0 * L, rel=1e-3)
        else:
            assert got.s0 == want.s0
