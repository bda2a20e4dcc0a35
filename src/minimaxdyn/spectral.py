"""Spectral analysis of the timescaled saddle Jacobian.

Given the blocks (A, B, C) of H = [[A, C], [-C', -B]] at a stationary point,
this module

  * canonicalizes B into diagonal form [[-D, 0], [0, 0]] via an orthogonal
    change of basis on the y-coordinates, splitting C = [C1 C2];
  * builds the restricted Schur complement S_res = U' (A - C B^+ C') U, with
    U an orthonormal basis of range(C2)^perp, and checks the refined
    second-order necessary condition (B negative semidefinite, S_res
    positive semidefinite);
  * tracks the eigenvalue curves lambda_j(eps) of H_tau = Lam_tau H over a
    grid of eps = 1/tau, labels their asymptotic type, and estimates the
    hemicurvature iota_j = lim Re(1/lambda_j) of the sqrt-order pairs;
  * cross-checks the spectrum of S_res against an independent matrix-pencil
    oracle.

Eigenvalue families for invertible H, with r = rank(B):

  sqrt_eps_pair   2(d2-r) curves,  lambda ~ +-i sigma_j sqrt(eps),
                  sigma_j the singular values of C2
  linear_eps      d1-d2+r curves,  lambda ~ mu_j eps,  mu_j in spec(S_res)
  order_one       r curves,        lambda -> nu_j, the nonzero
                  eigenvalues of -B
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import symmetrize

DEFAULT_RANK_TOL = 1e-9
DEFAULT_EPS_GRID = np.geomspace(1e-1, 1e-9, 40)
DEFAULT_EPS_GRID.setflags(write=False)  # shared by every default call
SLOPE_BAND = 0.15
HESSIAN_COND_LIMIT = 1e12

LABEL_SQRT = "sqrt_eps_pair"
LABEL_LINEAR = "linear_eps"
LABEL_ORDER_ONE = "order_one"


class SingularHessianError(np.linalg.LinAlgError):
    """H = DF is (numerically) singular; the curve asymptotics need det H != 0."""


class EigencurveLabelError(RuntimeError):
    """Fitted slope labels are inconsistent with the structural counts."""


def default_psd_tol(M: np.ndarray) -> float:
    """Semidefiniteness tolerance: 1e-8 * ||M|| with an absolute floor."""
    if M.size == 0:
        return 1e-10
    return max(1e-8 * float(np.linalg.norm(M, 2)), 1e-10)


@dataclass(frozen=True)
class CanonicalBlocks:
    """Blocks after diagonalizing B = P B_diag P' and replacing C by C P.

    B_diag carries the r nonzero eigenvalues (descending magnitude) first
    and exact zeros after; D = -(nonzero eigenvalues), signs preserved.
    """

    A: np.ndarray
    B_diag: np.ndarray
    P: np.ndarray
    r: int
    C1: np.ndarray
    C2: np.ndarray
    rank_tol: float

    @property
    def d1(self) -> int:
        return self.A.shape[0]

    @property
    def d2(self) -> int:
        return self.B_diag.shape[0]

    @property
    def D(self) -> np.ndarray:
        return -np.diag(self.B_diag)[: self.r]

    @property
    def C_canon(self) -> np.ndarray:
        return np.hstack([self.C1, self.C2])

    def hessian_canon(self) -> np.ndarray:
        C = self.C_canon
        return np.block([[self.A, C], [-C.T, -self.B_diag]])


@dataclass(frozen=True)
class RestrictedSchur:
    """U spans range(C2)^perp; S = A - C B^+ C'; S_res = U' S U (w x w)."""

    U: np.ndarray
    S: np.ndarray
    S_res: np.ndarray

    @property
    def w(self) -> int:
        return self.S_res.shape[0]

    @property
    def vacuous(self) -> bool:
        return self.w == 0

    def eigenvalues(self) -> np.ndarray:
        if self.vacuous:
            return np.array([])
        return np.linalg.eigvalsh(self.S_res)


def canonicalize(A, B, C, rank_tol: float | None = None) -> CanonicalBlocks:
    """Diagonalize B, order nonzero eigenvalues first, zero out the rest."""
    A = symmetrize(A, "A")
    B = symmetrize(B, "B")
    C = np.asarray(C, dtype=float)
    if C.shape != (A.shape[0], B.shape[0]):
        raise ValueError(f"C must be {A.shape[0]}x{B.shape[0]}, got {C.shape}")
    rank_tol = DEFAULT_RANK_TOL if rank_tol is None else float(rank_tol)

    w, V = np.linalg.eigh(B)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    cut = rank_tol * scale
    nonzero = np.abs(w) > cut
    order = np.concatenate([
        np.flatnonzero(nonzero)[np.argsort(-np.abs(w[nonzero]))],
        np.flatnonzero(~nonzero),
    ])
    w_sorted = w[order].copy()
    r = int(np.count_nonzero(nonzero))
    w_sorted[r:] = 0.0
    P = V[:, order]
    C_canon = C @ P
    return CanonicalBlocks(
        A=A,
        B_diag=np.diag(w_sorted),
        P=P,
        r=r,
        C1=C_canon[:, :r],
        C2=C_canon[:, r:],
        rank_tol=rank_tol,
    )


def generalized_schur(blocks: CanonicalBlocks) -> np.ndarray:
    """S = A - C B^+ C'. In canonical coordinates this is A + C1 D^{-1} C1'."""
    if blocks.r == 0:
        return blocks.A.copy()
    Dinv = 1.0 / blocks.D
    return blocks.A + (blocks.C1 * Dinv) @ blocks.C1.T


def _orthonormal_complement(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(M)^perp inside R^{rows}."""
    rows = M.shape[0]
    if M.size == 0:
        return np.eye(rows)
    U, sv, _ = np.linalg.svd(M, full_matrices=True)
    tol = max(M.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.count_nonzero(sv > tol))
    return U[:, rank:]


def restricted_schur(blocks: CanonicalBlocks) -> RestrictedSchur:
    """Restricted Schur complement; a 0 x 0 result is vacuously PSD."""
    U = _orthonormal_complement(blocks.C2)
    S = generalized_schur(blocks)
    S_res = U.T @ S @ U
    if S_res.size:
        asym = float(np.max(np.abs(S_res - S_res.T)))
        if asym > 1e-10 * max(1.0, float(np.max(np.abs(S_res)))):
            raise ValueError(f"restricted Schur complement asymmetric: {asym:.3e}")
        S_res = (S_res + S_res.T) / 2.0
    return RestrictedSchur(U=U, S=S, S_res=S_res)


def rsc_subspace_oracle(blocks: CanonicalBlocks, n_samples: int = 200,
                        seed: int = 0, psd_tol: float | None = None) -> bool:
    """Sampling check of the subspace form of the PSD condition.

    Draws random v with C'v in range(B) -- equivalently v orthogonal to
    range(C2) -- and tests min v'Sv >= -psd_tol.  Independent of the
    restricted_schur construction except for the canonical split.
    """
    S = generalized_schur(blocks)
    Gamma = blocks.C2
    if Gamma.size:
        Q, sv, _ = np.linalg.svd(Gamma, full_matrices=False)
        tol = max(Gamma.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
        Q = Q[:, sv > tol]
    else:
        Q = np.zeros((blocks.d1, 0))
    rng = np.random.default_rng(seed)
    if psd_tol is None:
        psd_tol = default_psd_tol(S)
    worst = np.inf
    for _ in range(n_samples):
        v = rng.standard_normal(blocks.d1)
        if Q.shape[1]:
            v = v - Q @ (Q.T @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        v /= nv
        worst = min(worst, float(v @ S @ v))
    if not np.isfinite(worst):
        # null space of Gamma' is trivial: vacuously true
        return True
    return worst >= -psd_tol


@dataclass(frozen=True)
class SecondOrderVerdict:
    B_nsd: bool
    Sres_psd: bool
    lambda_max_B: float
    lambda_min_Sres: float | None  # None when S_res is 0 x 0


def second_order_necessary(blocks: CanonicalBlocks,
                           psd_tol: float | None = None) -> SecondOrderVerdict:
    """Refined necessary condition: B nsd and S_res psd (vacuous if 0 x 0)."""
    eig_B = np.diag(blocks.B_diag)
    lam_max_B = float(np.max(eig_B)) if eig_B.size else 0.0
    tol_B = default_psd_tol(blocks.B_diag) if psd_tol is None else psd_tol
    rsc = restricted_schur(blocks)
    if rsc.vacuous:
        return SecondOrderVerdict(lam_max_B <= tol_B, True, lam_max_B, None)
    lam_min = float(np.min(rsc.eigenvalues()))
    tol_S = default_psd_tol(rsc.S_res) if psd_tol is None else psd_tol
    return SecondOrderVerdict(lam_max_B <= tol_B, lam_min >= -tol_S, lam_max_B, lam_min)


def is_strict_non_minimax(blocks: CanonicalBlocks, tol: float | None = None) -> bool:
    """True iff lambda_min(S_res) < -tol or lambda_min(-B) < -tol: under the
    same tolerances, the complement of second_order_necessary."""
    so = second_order_necessary(blocks, psd_tol=tol)
    return not (so.B_nsd and so.Sres_psd)


def timescaled_hessian(H, tau, d1: int) -> np.ndarray:
    """H_tau = Lam_tau H: top d1 rows scaled by 1/tau; a 1-d array of tau
    gives the stack of H_tau."""
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")
    if np.any(tau < 1.0):
        raise ValueError("tau must be >= 1")
    H = np.asarray(H, dtype=float)
    out = np.broadcast_to(H, tau.shape + H.shape).copy()
    out[..., :d1, :] /= tau[..., None, None]
    return out


def mu_roots_oracle(blocks: CanonicalBlocks, beta_tol: float = 1e-8) -> np.ndarray:
    """Finite roots of det(mu * diag(I, 0) - H) = 0 via a QZ matrix pencil.

    These must coincide with spec(S_res) when H is invertible; the pencil
    route never forms S_res and serves as its independent oracle.
    """
    import scipy.linalg

    Hc = blocks.hessian_canon()
    n = Hc.shape[0]
    cond = np.linalg.cond(Hc)
    if not np.isfinite(cond) or cond > HESSIAN_COND_LIMIT:
        raise SingularHessianError(f"H numerically singular (cond ~ {cond:.3e})")
    N = np.zeros((n, n))
    N[: blocks.d1, : blocks.d1] = np.eye(blocks.d1)
    w, _ = scipy.linalg.eig(Hc, N, right=True, homogeneous_eigvals=True)
    alpha, beta = w[0], w[1]
    finite = np.abs(beta) > beta_tol * np.max(np.abs(beta))
    roots = alpha[finite] / beta[finite]
    expected = blocks.d1 - blocks.C2.shape[1]
    if roots.size != expected:
        raise RuntimeError(
            f"pencil produced {roots.size} finite roots, expected {expected}"
        )
    return np.sort_complex(roots)


@dataclass
class EigenCurves:
    """Continuously tracked eigenvalue curves of H_tau over an eps grid.

    lam[j, i] is curve j at eps[i]; the grid is strictly decreasing. labels
    holds the asymptotic type per curve; sigma_by_curve pairs each
    sqrt_eps_pair curve with a singular value of C2 (NaN elsewhere).
    """

    eps: np.ndarray
    lam: np.ndarray
    labels: list[str]
    sigma: np.ndarray
    sigma_by_curve: np.ndarray
    slopes: np.ndarray
    r: int
    d1: int
    d2: int

    @property
    def sqrt_indices(self) -> list[int]:
        return [j for j, lbl in enumerate(self.labels) if lbl == LABEL_SQRT]

    def counts(self) -> tuple[int, int, int]:
        return (
            sum(l == LABEL_SQRT for l in self.labels),
            sum(l == LABEL_LINEAR for l in self.labels),
            sum(l == LABEL_ORDER_ONE for l in self.labels),
        )


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimal-total-cost assignment of a square
    cost matrix.  scipy is imported here, on first use, so that code paths
    that track no curves (every ``simulate`` run) never load it."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)[1]


def _track_curves(H: np.ndarray, d1: int, eps_grid: np.ndarray) -> np.ndarray:
    """Eigenvalues at each grid point, matched between neighbours by
    minimal-total-distance assignment.

    Matching against the raw previous point aliases once several curves
    slide down the same ray (all linear-order eigenvalues approach zero
    along the real axis, and a grid step can carry one almost exactly onto
    its neighbour).  Each curve is therefore extrapolated from its two
    previous points with a power law -- exact for any c * eps^alpha, hence
    for every asymptotic family here -- and the assignment runs against
    the predicted positions.
    """
    n = H.shape[0]
    m = len(eps_grid)
    lam = np.empty((n, m), dtype=complex)
    spectra = np.linalg.eigvals(timescaled_hessian(H, 1.0 / eps_grid, d1))
    for i, vals in enumerate(spectra):
        if i == 0:
            lam[:, 0] = vals[np.lexsort((vals.imag, vals.real))]
            continue
        if i == 1:
            pred = lam[:, 0]
        else:
            beta = np.log(eps_grid[i] / eps_grid[i - 1]) / np.log(
                eps_grid[i - 1] / eps_grid[i - 2])
            ratio = lam[:, i - 1] / lam[:, i - 2]
            pred = lam[:, i - 1] * ratio**beta
        lam[:, i] = vals[_assign(np.abs(pred[:, None] - vals[None, :]))]
    return lam


def eigencurves(H, d1: int, eps_grid=None,
                rank_tol: float | None = None) -> EigenCurves:
    """Track, label, and sigma-pair the eigenvalue curves of H_tau.

    Raises SingularHessianError when H is singular and EigencurveLabelError
    when the fitted labels contradict the structural counts (the count
    constraint is a hard consistency check, never a relabeling heuristic).
    """
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if H.shape != (n, n) or not 0 < d1 <= n:
        raise ValueError("H must be square with 0 < d1 <= n")
    C = H[:d1, d1:]
    if C.size and np.max(np.abs(H[d1:, :d1] + C.T)) > 1e-8 * max(1.0, np.max(np.abs(H))):
        raise ValueError("H is not in saddle block form: lower-left != -C'")
    A, B = symmetrize(H[:d1, :d1], "A"), symmetrize(-H[d1:, d1:], "B")
    cond = np.linalg.cond(H)
    if not np.isfinite(cond) or cond > HESSIAN_COND_LIMIT:
        raise SingularHessianError(f"H numerically singular (cond ~ {cond:.3e})")
    eps_grid = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 1 or len(eps_grid) < 4:
        raise ValueError("eps_grid must be a 1-d grid with at least 4 points")
    if not np.isfinite(eps_grid).all():
        raise ValueError("eps_grid must be finite")
    if np.any(eps_grid <= 0) or np.any(eps_grid > 1.0) or np.any(np.diff(eps_grid) >= 0):
        raise ValueError("eps_grid must be strictly decreasing within (0, 1]")

    blocks = canonicalize(A, B, C, rank_tol=rank_tol)
    d2, r = blocks.d2, blocks.r
    lam = _track_curves(H, d1, eps_grid)

    # slope of log|lambda| vs log eps over the finest decade
    finest = eps_grid <= eps_grid[-1] * 10.0 * (1.0 + 1e-12)
    if np.count_nonzero(finest) < 2:
        finest = np.zeros_like(finest)
        finest[-2:] = True
    log_eps = np.log(eps_grid[finest])
    slopes = np.empty(lam.shape[0])
    labels: list[str] = []
    for j in range(lam.shape[0]):
        mags = np.abs(lam[j, finest])
        if np.any(mags == 0.0):
            raise SingularHessianError("tracked eigenvalue hit zero on the grid")
        slope = float(np.polyfit(log_eps, np.log(mags), 1)[0])
        slopes[j] = slope
        if abs(slope - 0.5) <= SLOPE_BAND:
            labels.append(LABEL_SQRT)
        elif abs(slope - 1.0) <= SLOPE_BAND:
            labels.append(LABEL_LINEAR)
        elif abs(slope) <= SLOPE_BAND:
            labels.append(LABEL_ORDER_ONE)
        else:
            raise EigencurveLabelError(
                f"curve {j}: slope {slope:.3f} fits no asymptotic type"
            )

    expected = (2 * (d2 - r), d1 - d2 + r, r)
    got = (
        labels.count(LABEL_SQRT),
        labels.count(LABEL_LINEAR),
        labels.count(LABEL_ORDER_ONE),
    )
    if got != expected:
        raise EigencurveLabelError(
            f"label counts {got} inconsistent with structural counts {expected}"
        )

    sigma = np.linalg.svd(blocks.C2, compute_uv=False) if blocks.C2.size else np.array([])
    sigma_by_curve = np.full(lam.shape[0], np.nan)
    sqrt_idx = [j for j, lbl in enumerate(labels) if lbl == LABEL_SQRT]
    if sqrt_idx:
        est = np.array([abs(lam[j, -1]) / np.sqrt(eps_grid[-1]) for j in sqrt_idx])
        targets = np.repeat(sigma, 2)
        sigma_by_curve[sqrt_idx] = targets[_assign(np.abs(est[:, None] - targets[None, :]))]

    return EigenCurves(
        eps=eps_grid,
        lam=lam,
        labels=labels,
        sigma=sigma,
        sigma_by_curve=sigma_by_curve,
        slopes=slopes,
        r=r,
        d1=d1,
        d2=d2,
    )


def hemicurvature(curves: EigenCurves, j: int) -> float:
    """Hemicurvature estimate for curve j: the limit of Re(1/lambda_j(eps)).

    Polynomial extrapolation in sqrt(eps) through the three finest grid
    points; values reaching the eps^{-1/4} scale are reported as +-inf
    (the divergent case, where the leading real-part exponent drops below
    one).  Note the finite/infinite boundary is grid-limited: magnitudes
    beyond ~0.5 * eps_min^{-1/4} are classified as infinite.
    """
    if curves.labels[j] != LABEL_SQRT:
        raise ValueError(f"curve {j} is {curves.labels[j]}, not {LABEL_SQRT}")
    eps = curves.eps[-3:]
    vals = np.real(1.0 / curves.lam[j, -3:])
    if abs(vals[-1]) > 0.5 * curves.eps[-1] ** (-0.25):
        return float(np.sign(vals[-1]) * np.inf)
    t = np.sqrt(eps)
    # value at t = 0 of the quadratic through (t_i, f_i)
    total = 0.0
    for i in range(3):
        num = 1.0
        den = 1.0
        for k in range(3):
            if k == i:
                continue
            num *= -t[k]
            den *= t[i] - t[k]
        total += vals[i] * num / den
    return float(total)


def hemicurvature_closed_form(blocks: CanonicalBlocks, j: int,
                              sep_tol: float = 1e-6) -> float:
    """Closed-form hemicurvature (u_j' S u_j) / (2 sigma_j^2).

    Valid only when the singular values of C2 are pairwise distinct; u_j is
    the left singular vector for sigma_j (descending order).
    """
    if blocks.C2.size == 0:
        raise ValueError("no sqrt-order curves: C2 is empty")
    U2, sv, _ = np.linalg.svd(blocks.C2, full_matrices=False)
    if len(sv) > 1:
        gaps = np.abs(np.subtract.outer(sv, sv))
        min_gap = float(np.min(gaps[~np.eye(len(sv), dtype=bool)]))
        if min_gap <= sep_tol * max(1.0, float(sv[0])):
            raise ValueError(
                f"singular values of C2 not distinct (min gap {min_gap:.3e})"
            )
    if not 0 <= j < len(sv):
        raise ValueError(f"no singular value with index {j}")
    S = generalized_schur(blocks)
    u = U2[:, j]
    return float(0.5 * (u @ S @ u) / sv[j] ** 2)


def s_zero(curves: EigenCurves) -> float:
    """s_0 = max over sqrt-order curves of (-iota_j).

    Returns -inf when there are no sqrt-order curves (no constraint), +inf
    when some hemicurvature is -inf.
    """
    idx = curves.sqrt_indices
    if not idx:
        return float("-inf")
    return float(max(-hemicurvature(curves, j) for j in idx))
