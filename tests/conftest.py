"""Shared generators for random saddle-block instances.

All generators take an explicit rng so the suites stay deterministic; they
resample until structural guards hold (exact rank of B, invertible H,
separated singular values / eigenvalues) so that curve tracking and slope
fits are well posed.
"""

import dataclasses
import math

import numpy as np

from minimaxdyn import spectral
from minimaxdyn.dynamics import MethodParams, run_batch
from minimaxdyn.problems import saddle_gradient


def step(problem, z, method, **params):
    """The state one step of the method after z: a run of one step of run_batch,
    whose stepper every run uses.  A stationary z (F = 0) is its own step."""
    params = MethodParams(method=method, **params)
    return run_batch(problem, [z], params, max_iters=1, tol_conv=0.0,
                     diverge_norm=math.inf)[0].states[-1]


def replay_deviation(problem, traj):
    """Max deviation when re-applying traj's step to each recorded state: zero
    for a trajectory recorded every step by a batch of one."""
    steps = [step(problem, z, **dataclasses.asdict(traj.params)) for z in traj.states[:-1]]
    return max([0.0, *(float(np.max(np.abs(a - b))) for a, b in zip(steps, traj.states[1:]))])


def reference_fd_jacobian(problem, z, h):
    """Central differences of F, one column per loop pass, each from two
    saddle_gradient calls."""
    n = problem.dim
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[:, i] = (saddle_gradient(problem, z + e) - saddle_gradient(problem, z - e)) / (2 * h)
    return H


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rank_deficient_symmetric(rng, d, r, lo=0.5, hi=2.0, sign=None):
    """Symmetric d x d matrix with exactly r nonzero eigenvalues.

    sign=-1 makes the nonzero eigenvalues all negative (NSD B), sign=+1 all
    positive; None mixes signs at random.
    """
    vals = np.zeros(d)
    mags = rng.uniform(lo, hi, r)
    if sign is None:
        signs = rng.choice([-1.0, 1.0], r)
    else:
        signs = np.full(r, float(sign))
    vals[:r] = signs * mags
    Q = random_orthogonal(rng, d)
    return (Q * vals) @ Q.T


def assemble_hessian(A, B, C):
    A, B, C = np.asarray(A, float), np.asarray(B, float), np.asarray(C, float)
    return np.block([[A, C], [-C.T, -B]])


def random_saddle_blocks(rng, d1, d2, r, max_tries=500):
    """(A, B, C) with rank(B) = r, invertible H, and separated asymptotics.

    Guards: cond(H) below 1e8; singular values of C2 at least 0.1 and
    pairwise separated; eigenvalues of S_res bounded away from zero and
    from each other; nonzero eigenvalues of B pairwise separated.
    """
    for _ in range(max_tries):
        A = rank_deficient_symmetric(rng, d1, d1)
        A = (A + A.T) / 2
        B = rank_deficient_symmetric(rng, d2, r)
        C = rng.standard_normal((d1, d2))
        H = assemble_hessian(A, B, C)
        if np.linalg.cond(H) > 1e8:
            continue
        blocks = spectral.canonicalize(A, B, C)
        if blocks.r != r:
            continue
        sigma = np.linalg.svd(blocks.C2, compute_uv=False) if blocks.C2.size else np.array([])
        if sigma.size and np.min(sigma) < 0.1:
            continue
        if sigma.size > 1 and np.min(np.diff(np.sort(sigma))) < 0.05 * max(1.0, sigma.max()):
            continue
        mus = spectral.restricted_schur(blocks).eigenvalues()
        if mus.size and np.min(np.abs(mus)) < 5e-2:
            continue
        if mus.size > 1 and np.min(np.diff(np.sort(mus))) < 1e-2:
            continue
        nus = -np.diag(blocks.B_diag)[:r]
        if nus.size > 1 and np.min(np.diff(np.sort(nus))) < 5e-2:
            continue
        return A, B, C
    raise RuntimeError(f"could not draw a valid ({d1},{d2},{r}) instance")


def random_sufficient_blocks(rng, d1, d2, r, max_tries=500):
    """(A, B, C) with S = A - C B^+ C' positive definite and B nsd of rank r."""
    for _ in range(max_tries):
        B = rank_deficient_symmetric(rng, d2, r, sign=-1)
        C = rng.standard_normal((d1, d2))
        G = rng.standard_normal((d1, d1))
        S = G @ G.T + 0.3 * np.eye(d1)
        CBC = C @ np.linalg.pinv(B, rcond=1e-10) @ C.T
        A = S + CBC
        A = (A + A.T) / 2
        H = assemble_hessian(A, B, C)
        if np.linalg.cond(H) > 1e8:
            continue
        blocks = spectral.canonicalize(A, B, C)
        if blocks.r != r:
            continue
        return A, B, C
    raise RuntimeError(f"could not draw a sufficient-condition ({d1},{d2},{r}) instance")


def random_loose_blocks(rng, d1, d2):
    """Unconstrained random blocks; may have any rank structure."""
    A = rng.standard_normal((d1, d1))
    A = (A + A.T) / 2
    B = rng.standard_normal((d2, d2))
    B = (B + B.T) / 2
    C = rng.standard_normal((d1, d2))
    return A, B, C


def random_margin_separated_instance(rng, margin, region):
    """(H, d1, tau, step) with every eigenvalue of H_tau at least margin
    away from the region boundary (geometric distance for the disk,
    inequality gap for the peanut)."""
    from minimaxdyn.spectral import timescaled_hessian
    from minimaxdyn.stability import peanut_gap

    while True:
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A, B, C = random_loose_blocks(rng, d1, d2)
        H = assemble_hessian(A, B, C)
        tau = float(np.exp(rng.uniform(0.0, np.log(1e3))))
        Ht = timescaled_hessian(H, tau, d1)
        step = rng.uniform(0.05, 0.95) / max(1.0, np.linalg.norm(H, 2))
        lams = np.linalg.eigvals(Ht)
        if region == "disk":
            dist = np.abs(np.abs(lams + 1 / (2 * step)) - 1 / (2 * step))
        else:
            dist = np.abs(peanut_gap(lams, step))
        if np.min(dist) >= margin:
            return H, d1, tau, step
