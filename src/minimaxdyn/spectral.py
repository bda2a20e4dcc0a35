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

from dataclasses import dataclass, field

import numpy as np

from .dynamics import _tau_floats, check_ranges
from .problems import SYMMETRY_TOL, _as_matrix, _integer, block_hessian, symmetrize

DEFAULT_RANK_TOL = 1e-9
DEFAULT_EPS_GRID = np.geomspace(1e-1, 1e-9, 40)
DEFAULT_EPS_GRID.setflags(write=False)  # shared by every default call
SLOPE_BAND = 0.15
HESSIAN_COND_LIMIT = 1e12
SIGMA_SEP_TOL = 1e-6  # singular values closer than this, relative, count as repeated

LABEL_SQRT = "sqrt_eps_pair"
LABEL_LINEAR = "linear_eps"
LABEL_ORDER_ONE = "order_one"
_LABELS = (LABEL_SQRT, LABEL_LINEAR, LABEL_ORDER_ONE)
_SLOPE_CENTRES = np.array([0.5, 1.0, 0.0])  # the slope of each label's curves


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

    @property
    def d1(self) -> int:
        return self.A.shape[0]

    @property
    def d2(self) -> int:
        return self.B_diag.shape[0]

    @property
    def D(self) -> np.ndarray:
        return -np.diag(self.B_diag)[: self.r]


@dataclass(frozen=True)
class RestrictedSchur:
    """U spans range(C2)^perp; S = A - C B^+ C'; S_res = U' S U (w x w);
    sigma holds the singular values sigma_j of C2 (descending), U_sigma their
    left singular vectors u_j, and spectrum spec(S_res)."""

    U: np.ndarray
    S: np.ndarray
    S_res: np.ndarray
    sigma: np.ndarray
    U_sigma: np.ndarray
    spectrum: np.ndarray

    @property
    def w(self) -> int:
        return self.S_res.shape[0]

    @property
    def vacuous(self) -> bool:
        return self.w == 0

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum

    def u_S_u(self, j: int) -> float:
        """u_j' S u_j, the numerator of the closed-form hemicurvature of sigma_j."""
        return float(self.U_sigma[:, j] @ self.S @ self.U_sigma[:, j])


def canonicalize(A, B, C) -> CanonicalBlocks:
    """Diagonalize B, order nonzero eigenvalues first, zero out the rest."""
    A = symmetrize(A, "A")
    B = symmetrize(B, "B")
    C = _as_matrix(C, "C")
    if C.shape != (A.shape[0], B.shape[0]):
        raise ValueError(f"C must be {A.shape[0]}x{B.shape[0]}, got {C.shape}")

    w, V = np.linalg.eigh(B)
    # scaled by the whole Hessian, so finite-difference noise in a zero B counts as zero
    scale = max((float(np.max(np.abs(M))) for M in (w, A, C) if M.size), default=0.0)
    cut = DEFAULT_RANK_TOL * scale
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
    )


def generalized_schur(blocks: CanonicalBlocks) -> np.ndarray:
    """S = A - C B^+ C'. In canonical coordinates this is A + C1 D^{-1} C1'."""
    if blocks.r == 0:
        return blocks.A.copy()
    Dinv = 1.0 / blocks.D
    return blocks.A + (blocks.C1 * Dinv) @ blocks.C1.T


def restricted_schur(blocks: CanonicalBlocks) -> RestrictedSchur:
    """Restricted Schur complement (a 0 x 0 one is vacuously PSD); one full
    SVD of C2 gives the basis of range(C2)^perp, the sigma_j and the u_j."""
    C2 = blocks.C2
    V, sv, _ = np.linalg.svd(C2, full_matrices=True)  # V = I when C2 has no column
    rank = int(np.count_nonzero(sv > max(C2.shape) * np.finfo(float).eps * sv[:1]))
    U = V[:, rank:]
    S = generalized_schur(blocks)
    S_res = U.T @ S @ U
    if S_res.size:
        asym = float(np.max(np.abs(S_res - S_res.T)))
        if asym > 1e-10 * max(1.0, float(np.max(np.abs(S_res)))):
            raise ValueError(f"restricted Schur complement asymmetric: {asym:.3e}")
        S_res = (S_res + S_res.T) / 2.0
    # the thin SVD's layout, whose column strides set the bits of u' S u
    U_sigma = np.ascontiguousarray(V[:, :len(sv)])
    spectrum = np.linalg.eigvalsh(S_res) if S_res.size else np.array([])
    return RestrictedSchur(U=U, S=S, S_res=S_res, sigma=sv, U_sigma=U_sigma, spectrum=spectrum)


def rsc_subspace_oracle(blocks: CanonicalBlocks, n_samples: int = 200, seed: int = 0) -> bool:
    """Sampling check of the subspace form of the PSD condition.

    Draws random v with C'v in range(B) -- equivalently v orthogonal to
    range(C2) -- and tests min v'Sv >= -default_psd_tol(S).  Independent of the
    restricted_schur construction except for the canonical split.  The
    n_samples >= 1 samples are drawn, projected and tested as one array.
    """
    if not (_integer(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    S, Gamma = generalized_schur(blocks), blocks.C2
    Q, sv, _ = np.linalg.svd(Gamma, full_matrices=False)
    Q = Q[:, sv > max(Gamma.shape) * np.finfo(float).eps * sv[:1]]
    V = np.random.default_rng(seed).standard_normal((n_samples, blocks.d1))
    V -= V @ Q @ Q.T
    nv = np.linalg.norm(V, axis=1)
    V = V[nv >= 1e-12] / nv[nv >= 1e-12, None]
    if not len(V):  # the null space of Gamma' is trivial: vacuously true
        return True
    return float(np.min(np.sum(V @ S * V, axis=1))) >= -default_psd_tol(S)


@dataclass(frozen=True)
class SecondOrderVerdict:
    B_nsd: bool
    Sres_psd: bool
    rsc: RestrictedSchur = field(repr=False, compare=False)  # the S_res judged


def second_order_necessary(blocks: CanonicalBlocks,
                           psd_tol: float | None = None) -> SecondOrderVerdict:
    """Refined necessary condition: B nsd and S_res psd (vacuous if 0 x 0)."""
    eig_B = np.diag(blocks.B_diag)
    lam_max_B = float(np.max(eig_B)) if eig_B.size else 0.0
    tol_B = default_psd_tol(blocks.B_diag) if psd_tol is None else psd_tol
    rsc = restricted_schur(blocks)
    tol_S = default_psd_tol(rsc.S_res) if psd_tol is None else psd_tol
    Sres_psd = rsc.vacuous or float(np.min(rsc.spectrum)) >= -tol_S
    return SecondOrderVerdict(lam_max_B <= tol_B, Sres_psd, rsc)


def _saddle_shape(H, d1) -> np.ndarray:
    """H as a float array, refused unless square with d1 an integer in 1..n."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0] if H.ndim else 0
    if H.shape != (n, n):
        raise ValueError("H must be square with 0 < d1 <= n")
    if not (_integer(d1) and 0 < d1 <= n):
        raise ValueError(f"d1 must be an integer with 0 < d1 <= {n}, got {d1!r}")
    return H


def _check_invertible(H: np.ndarray) -> None:
    """Raise SingularHessianError unless cond(H) is finite and at most HESSIAN_COND_LIMIT."""
    cond = np.linalg.cond(H)
    if not cond <= HESSIAN_COND_LIMIT:  # NaN included
        raise SingularHessianError(f"H numerically singular (cond ~ {cond:.3e})")


def timescaled_hessian(H, tau, d1: int) -> np.ndarray:
    """H_tau = Lam_tau H: top d1 rows scaled by 1/tau; a 1-d array of tau
    gives the stack of H_tau.  Every tau obeys dynamics.RANGES' tau row."""
    tau = _tau_floats(tau)
    if tau.ndim > 1:
        raise ValueError(f"tau must be a scalar or a 1-d grid, got shape {tau.shape}")
    check_ranges(tau=tau)
    H = _saddle_shape(H, d1)
    out = np.broadcast_to(H, tau.shape + H.shape).copy()
    out[..., :d1, :] /= tau[..., None, None]
    return out


def mu_roots_oracle(blocks: CanonicalBlocks) -> np.ndarray:
    """Finite roots of det(mu * diag(I, 0) - H) = 0 via a QZ matrix pencil.

    These must coincide with spec(S_res) when H is invertible; the pencil
    route never forms S_res and serves as its independent oracle.
    """
    import scipy.linalg

    Hc = block_hessian(blocks.A, blocks.B_diag, np.hstack([blocks.C1, blocks.C2]))
    _check_invertible(Hc)
    n = Hc.shape[0]
    N = np.zeros((n, n))
    N[: blocks.d1, : blocks.d1] = np.eye(blocks.d1)
    w, _ = scipy.linalg.eig(Hc, N, right=True, homogeneous_eigvals=True)
    alpha, beta = w[0], w[1]
    finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))  # relative to the largest |beta|
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
    holds the asymptotic type per curve and slopes the fitted slope of
    log|lambda_j| against log eps that chose it.  The curves know no sigma:
    the singular values of C2 are RestrictedSchur.sigma.
    """

    eps: np.ndarray
    lam: np.ndarray
    labels: list[str]
    slopes: np.ndarray

    @property
    def sqrt_indices(self) -> list[int]:
        return [j for j, lbl in enumerate(self.labels) if lbl == LABEL_SQRT]

    def counts(self) -> tuple[int, int, int]:
        return _label_counts(self.labels)


def _label_counts(labels: list[str]) -> tuple[int, int, int]:
    """How many curves carry each label: (sqrt_eps_pair, linear_eps, order_one)."""
    return tuple(labels.count(lbl) for lbl in _LABELS)


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimal-total-cost assignment of a square cost
    matrix, as scipy's linear_sum_assignment gives it: a port of its shortest
    augmenting path solver (Crouse, IEEE TAES 52(4), 2016), ties included."""
    cols = cost.argmin(1)  # the solver's choice for every row while the duals are zero
    if np.vdot(cost, cost) < np.inf and len(set(cols.tolist())) == len(cost):
        return cols
    if np.isnan(cost).any() or -np.inf in cost:
        raise ValueError("cost matrix holds NaN or -inf entries")
    rows = cost.tolist()
    n = len(rows)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    row4col = [-1] * n
    col4row = [-1] * n
    for cur in range(n):
        shortest = [np.inf] * n
        remaining = list(range(n - 1, -1, -1))
        i = cur
        low = 0.0
        while i != -1:  # grow the shortest path tree from row cur until a free column
            lowest = np.inf
            for it, j in enumerate(remaining):
                r = low + rows[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    index = it
                    lowest = shortest[j]
            if lowest == np.inf:
                raise ValueError("cost matrix is infeasible")
            low = lowest
            remaining[index], remaining[-1] = remaining[-1], remaining[index]
            sink = remaining.pop()
            i = row4col[sink]
        u[cur] += low
        for j in set(range(n)).difference(remaining):  # the tree's columns and their rows
            v[j] -= low - shortest[j]
            if j != sink:
                u[row4col[j]] += low - shortest[j]
        while sink != -1:  # augment along the path back to row cur, which held no column
            i = path[sink]
            row4col[sink] = i
            col4row[i], sink = sink, col4row[i]
    return np.array(col4row)


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
    lam = np.empty((len(eps_grid), n), dtype=complex)  # one row per grid point
    spectra = np.linalg.eigvals(timescaled_hessian(H, 1.0 / eps_grid, d1))
    lam[0] = spectra[0][np.lexsort((spectra[0].imag, spectra[0].real))]
    pred = lam[0]
    steps = np.log(eps_grid[1:] / eps_grid[:-1])
    betas = (steps[1:] / steps[:-1]).tolist()  # the exponent at grid point i is betas[i - 2]
    diff = np.empty((n, n), dtype=complex)
    cost = np.empty((n, n))
    for i in range(1, len(eps_grid)):
        if i > 1:
            ratio = lam[i - 1] / lam[i - 2]
            # lam first: numpy's complex products round differently with operands swapped
            pred = lam[i - 1] * (ratio if betas[i - 2] == 1.0 else ratio**betas[i - 2])
        np.subtract(pred[:, None], spectra[i], diff)
        lam[i] = spectra[i][_assign(np.abs(diff, out=cost))]
    return lam.T.copy()


def eigencurves(H, d1: int, eps_grid=None) -> EigenCurves:
    """Track and label the eigenvalue curves of H_tau.

    Raises SingularHessianError when H is singular and EigencurveLabelError
    when the fitted labels contradict the structural counts (the count
    constraint is a hard consistency check, never a relabeling heuristic).
    """
    H = _saddle_shape(H, d1)
    C = H[:d1, d1:]
    if C.size and np.max(np.abs(H[d1:, :d1] + C.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(H))):
        raise ValueError("H is not in saddle block form: lower-left != -C'")
    A, B = symmetrize(H[:d1, :d1], "A"), symmetrize(-H[d1:, d1:], "B")
    return _eigencurves(H, canonicalize(A, B, C), eps_grid)


def _eigencurves(H: np.ndarray, blocks: CanonicalBlocks, eps_grid=None) -> EigenCurves:
    """eigencurves of H, whose canonical blocks are already at hand."""
    _check_invertible(H)
    eps_grid = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 1 or len(eps_grid) < 4:
        raise ValueError("eps_grid must be a 1-d grid with at least 4 points")
    if not np.isfinite(eps_grid).all():
        raise ValueError("eps_grid must be finite")
    if np.any(eps_grid <= 0) or np.any(eps_grid > 1.0) or np.any(np.diff(eps_grid) >= 0):
        raise ValueError("eps_grid must be strictly decreasing within (0, 1]")

    d1, d2, r = blocks.d1, blocks.d2, blocks.r
    lam = _track_curves(H, d1, eps_grid)

    # slope of log|lambda| vs log eps over the finest decade, a suffix of the
    # grid of at least two points, for every curve in one fit
    k = max(2, np.count_nonzero(eps_grid <= eps_grid[-1] * 10.0 * (1.0 + 1e-12)))
    mags = np.abs(lam[:, -k:])
    if not mags.all():
        raise SingularHessianError("tracked eigenvalue hit zero on the grid")
    slopes = np.polyfit(np.log(eps_grid[-k:]), np.log(mags).T, 1)[0]
    fits = np.abs(slopes[:, None] - _SLOPE_CENTRES) <= SLOPE_BAND  # the bands are disjoint
    fitted = fits.any(axis=1)
    if not fitted.all():
        j = int(fitted.argmin())  # the first curve that fits no band
        raise EigencurveLabelError(f"curve {j}: slope {slopes[j]:.3f} fits no asymptotic type")
    kind = fits.argmax(axis=1)
    labels = np.array(_LABELS)[kind].tolist()

    expected = (2 * (d2 - r), d1 - d2 + r, r)
    got = _label_counts(labels)
    if got != expected:
        raise EigencurveLabelError(
            f"label counts {got} inconsistent with structural counts {expected}"
        )

    return EigenCurves(
        eps=eps_grid,
        lam=lam,
        labels=labels,
        slopes=slopes,
    )


def hemicurvature(curves: EigenCurves, j: int) -> float:
    """Hemicurvature estimate for the sqrt-order curve of integer index j: the
    limit of Re(1/lambda_j(eps)), extrapolated in sqrt(eps) through the three
    finest grid points.  A magnitude beyond 0.5 * eps_min^{-1/4} is reported
    as +-inf (the divergent case, where the leading real-part exponent drops
    below one); that finite/infinite boundary is grid-limited.
    """
    if not (_integer(j) and 0 <= j < len(curves.labels)):
        raise ValueError(f"j must be an integer with 0 <= j < {len(curves.labels)}, got {j!r}")
    if curves.labels[j] != LABEL_SQRT:
        raise ValueError(f"curve {j} is {curves.labels[j]}, not {LABEL_SQRT}")
    vals = np.real(1.0 / curves.lam[j, -3:])
    if abs(vals[-1]) > 0.5 * curves.eps[-1] ** (-0.25):
        return float(np.sign(vals[-1]) * np.inf)
    t0, t1, t2 = np.sqrt(curves.eps[-3:])
    # value at t = 0 of the quadratic through (t_i, vals_i): Lagrange's three
    # terms, summed from 0.0 so that a -0.0 sum reads 0.0
    return float(0.0 + vals[0] * (t1 * t2) / ((t0 - t1) * (t0 - t2))
                 + vals[1] * (t0 * t2) / ((t1 - t0) * (t1 - t2))
                 + vals[2] * (t0 * t1) / ((t2 - t0) * (t2 - t1)))


def _repeated_sigma_gap(sigma) -> float | None:
    """The smallest gap between two of the singular values sigma when they
    count as repeated, within SIGMA_SEP_TOL of max sigma with no floor; None
    when they are pairwise distinct."""
    gaps = np.abs(np.subtract.outer(sigma, sigma))[~np.eye(len(sigma), dtype=bool)]
    same = gaps <= SIGMA_SEP_TOL * np.max(sigma, initial=0.0)
    return float(np.min(gaps)) if same.any() else None


def hemicurvature_closed_form(blocks: CanonicalBlocks, j: int) -> float:
    """Closed-form hemicurvature (u_j' S u_j) / (2 sigma_j^2).

    Valid only when the singular values of C2 are pairwise distinct; sigma_j
    (descending order), its left singular vector u_j and S are the fields
    sigma, U_sigma and S of restricted_schur(blocks) (RestrictedSchur.u_S_u).
    """
    if blocks.C2.size == 0:
        raise ValueError("no sqrt-order curves: C2 is empty")
    rsc = restricted_schur(blocks)
    min_gap = _repeated_sigma_gap(rsc.sigma)
    if min_gap is not None:
        raise ValueError(f"singular values of C2 not distinct (min gap {min_gap:.3e})")
    if not (_integer(j) and 0 <= j < len(rsc.sigma)):
        raise ValueError(f"no singular value with index {j}")
    return float(0.5 * rsc.u_S_u(j) / rsc.sigma[j] ** 2)


def s_zero(curves: EigenCurves) -> float:
    """s_0 = max over sqrt-order curves of (-iota_j).

    Returns -inf when there are no sqrt-order curves (no constraint), +inf
    when some hemicurvature is -inf.
    """
    return _s_zero([hemicurvature(curves, j) for j in curves.sqrt_indices])


def _s_zero(iota) -> float:
    """max_j(-iota_j) over the hemicurvatures iota, -inf for none: the one formula of s_0."""
    return float(max((-v for v in iota), default=float("-inf")))
