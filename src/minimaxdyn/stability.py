"""Stability regions, equilibrium Jacobians, and strict-linear-stability verdicts.

Continuous tau-EG is stable at an equilibrium iff spec(H_tau) avoids the
closed disk D_s of radius 1/(2s) centered at -1/(2s); discrete tau-EG is
stable iff spec(H_tau) lies inside the open peanut-shaped region P_eta;
two-timescale GDA is stable iff the spectral radius of I - eta H_tau is
below one.  Each region test has an equivalent inverse form

    disk     z in D_s        <=>  Re(1/z) <= -s            (z != 0)
    peanut   z in P_eta      <=>  Re(1/(z(1 - eta z))) > eta/2
    gda      |1 - eta z| > 1 <=>  Re(1/z) < eta/2

which stays well conditioned as the eigenvalues collapse toward the origin
with growing tau, so verdict margins are measured in inverse form.  MODES
holds both sides of each equivalence, and verdict_table() evaluates (mode,
step) pairs over one tau grid, computing both sides as array operations; it
raises CriterionMismatchError where they disagree outside their marginal
bands, so the criterion equivalences run as permanent self-tests.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import spectral
from .dynamics import _solve_checked
from .problems import MinimaxProblem, hessian_blocks_at, saddle_gradient
from .spectral import (
    EigenCurves,
    canonicalize,
    default_psd_tol,
    eigencurves,
    generalized_schur,
    hemicurvature,
    restricted_schur,
    s_zero,
    second_order_necessary,
    timescaled_hessian,
)

MARGINAL_TOL = 1e-8
DEFAULT_TAU_GRID = np.geomspace(1.0, 1e8, 33)
DEFAULT_TAU_GRID.setflags(write=False)  # shared by every default call
DEFAULT_K_TAIL = 5
_CROSS_CHECK_GUARD = 1e-9

_mismatch_count = 0


class CriterionMismatchError(RuntimeError):
    """The two sides of an equivalence criterion disagreed with margin.

    Signals numerical breakdown rather than a wrong verdict; counted so
    that experiment drivers can assert the self-tests never tripped.
    """

    def __init__(self, message: str):
        global _mismatch_count
        _mismatch_count += 1
        super().__init__(message)


def mismatch_count() -> int:
    return _mismatch_count


def reset_mismatch_count() -> None:
    global _mismatch_count
    _mismatch_count = 0


# ---------------------------------------------------------------------------
# regions


def disk_gap(z, s: float):
    """Positive strictly inside the closed disk D_s, negative outside."""
    z = np.asarray(z, dtype=complex)
    half = 1.0 / (2.0 * s)
    return half - np.abs(z + half)


def peanut_gap(z, eta: float):
    """Positive inside the open peanut P_eta, negative outside."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    return np.sqrt(1.0 + 3.0 * eta**2 * y**2) - ((eta * x - 0.5) ** 2 + eta**2 * y**2 + 0.75)


def _inverse_margin(u, shift: float) -> np.ndarray:
    """Re(1/u) + shift per element; 0 where |u| < 1e-300."""
    out = np.zeros(u.shape)
    ok = np.abs(u) >= 1e-300
    out[ok] = np.real(1.0 / u[ok]) + shift
    return out


def _peanut_u(z, eta: float) -> np.ndarray:
    """z (1 - eta z), multiplied out in real parts: numpy's vectorized
    complex product rounds differently from the scalar one."""
    z = np.asarray(z, dtype=complex)
    w = 1.0 - eta * z
    u = np.empty(z.shape, dtype=complex)
    u.real = z.real * w.real - z.imag * w.imag
    u.imag = z.real * w.imag + z.imag * w.real
    return u


def in_disk(z, s: float, cross_check: bool = True):
    """Membership in D_s = {z : |z + 1/(2s)| <= 1/(2s)}.

    Cross-checked against the inverse form Re(1/z) <= -s away from the
    boundary; scalars in, scalar bool out.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    gap = disk_gap(z, s)
    primary = gap >= 0.0
    if cross_check:
        # z = 0 sits on the boundary of the closed disk: margin 0, inside
        inv = _inverse_margin(z, s) <= 0.0
        bad = (primary != inv) & (np.abs(gap) > _CROSS_CHECK_GUARD) & (np.abs(z) > 1e-300)
        if np.any(bad):
            raise CriterionMismatchError(
                f"disk forms disagree at z={z[bad][0]} (gap {gap[bad][0]:.3e})"
            )
    return bool(primary[0]) if scalar else primary


def in_peanut(z, eta: float, cross_check: bool = True):
    """Membership in the open peanut-shaped region P_eta.

    Cross-checked against Re(1/(z(1 - eta z))) > eta/2 for z not in
    {0, 1/eta}.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    gap = peanut_gap(z, eta)
    primary = gap > 0.0
    if cross_check:
        u = _peanut_u(z, eta)
        inv = _inverse_margin(u, -eta / 2.0) > 0.0
        bad = (primary != inv) & (np.abs(gap) > _CROSS_CHECK_GUARD) & (np.abs(u) > 1e-300)
        if np.any(bad):
            raise CriterionMismatchError(
                f"peanut forms disagree at z={z[bad][0]} (gap {gap[bad][0]:.3e})"
            )
    return bool(primary[0]) if scalar else primary


def mobius_map(lam, s: float):
    """mu = -lambda / (1 + s lambda), the spectral map from H_tau to the
    continuous EG Jacobian.  Involutive; maps the imaginary axis onto the
    boundary of D_s."""
    scalar = np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    den = 1.0 + s * lam
    if np.any(np.abs(den) < 1e-14 * np.maximum(1.0, np.abs(s * lam))):
        raise ValueError("mobius_map pole: lambda = -1/s")
    out = -lam / den
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Jacobians at equilibria; each takes H_tau or a stack of them


def eg_jacobian_continuous(H_tau, s: float) -> np.ndarray:
    """J = -(I + s H_tau)^{-1} H_tau, the ODE Jacobian at an equilibrium."""
    H_tau = np.asarray(H_tau, dtype=float)
    return -_solve_checked(np.eye(H_tau.shape[-1]) + s * H_tau, H_tau)


def _eg_discrete_jacobian(H_tau, eta: float) -> np.ndarray:
    eye = np.eye(H_tau.shape[-1])
    return eye - eta * H_tau @ (eye - eta * H_tau)


def _gda_jacobian(H_tau, eta: float) -> np.ndarray:
    return np.eye(H_tau.shape[-1]) - eta * H_tau


def eg_jacobian_discrete(H, eta: float, tau: float, d1: int) -> np.ndarray:
    """J = I - eta H_tau (I - eta H_tau), the discrete EG Jacobian."""
    return _eg_discrete_jacobian(timescaled_hessian(H, tau, d1), eta)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class StabilityVerdict:
    """Per-(method, step size, tau) classification with its witnesses.

    margins holds the per-eigenvalue inverse-form criterion margin
    (positive = satisfies the stability criterion); jac_margin is the
    margin of the direct Jacobian criterion.
    """

    method: str
    stable: str  # "stable" | "unstable" | "marginal"
    params: dict
    h_eigs: np.ndarray
    margins: np.ndarray
    jac_eigs: np.ndarray
    jac_margin: float
    criterion: str


@dataclass(frozen=True)
class VerdictMode:
    """Both sides of one stability equivalence (a row of MODES)."""

    method: str
    step: str              # name of the step size: "s" or "eta"
    criterion: str
    region_margin: Callable  # (spec(H_tau), step) -> inverse-form margins
    jacobian: Callable       # (H_tau stack, step) -> Jacobian stack
    jac_margin: Callable     # spec(J) stack -> margin per tau, positive = stable
    lipschitz: bool          # requires step * ||H|| < 1


def _rho_margin(jac_eigs) -> np.ndarray:
    return 1.0 - np.abs(jac_eigs).max(axis=-1)


MODES = {
    "continuous": VerdictMode(
        "eg_tt_continuous", "s",
        "spec(H_tau) outside disk <=> spec(J) in open left half-plane",
        _inverse_margin,  # Re(1/lam) + s
        eg_jacobian_continuous,
        lambda jac_eigs: -jac_eigs.real.max(axis=-1), True),
    "discrete": VerdictMode(
        "eg_tt_discrete", "eta",
        "spec(H_tau) inside peanut <=> rho(J) < 1",
        lambda lams, eta: _inverse_margin(_peanut_u(lams, eta), -eta / 2.0),
        _eg_discrete_jacobian, _rho_margin, True),
    "gda": VerdictMode(
        "gda_tt", "eta",
        "Re(1/lambda) > eta/2 for all lambda <=> rho(I - eta H_tau) < 1",
        lambda lams, eta: _inverse_margin(lams, -eta / 2.0),
        _gda_jacobian, _rho_margin, False),
}


def _labels(margins, tol: float) -> np.ndarray:
    return np.where(margins > tol, "stable", np.where(margins < -tol, "unstable", "marginal"))


def verdict_table(H, d1: int, pairs, taus,
                  marginal_tol: float = MARGINAL_TOL) -> list[list[StabilityVerdict]]:
    """One verdict per tau for each (mode, step) pair, mode a key of MODES.

    The spectrum of the H_tau stack and ||H||_2 are computed once, on first
    need, for all pairs; each pair adds one stacked Jacobian spectrum.
    Pairs are validated and evaluated in order, so a failing pair raises
    what verdicts() for it alone raises.
    """
    Ht = lams = norm = None
    table = []
    for mode, step in pairs:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        m = MODES[mode]
        if not 0.0 < step < math.inf:
            raise ValueError(f"{m.step} must be positive and finite")
        if not len(taus):
            table.append([])
            continue
        if m.lipschitz:
            norm = np.linalg.norm(H, 2) if norm is None else norm
            if step * norm >= 1.0:
                raise ValueError(f"requires {m.step} < 1/L ({m.step} * ||H|| < 1)")
        if Ht is None:
            Ht = timescaled_hessian(H, taus, d1)
            lams = np.linalg.eigvals(Ht)
        margins = m.region_margin(lams, step)
        jac_eigs = np.linalg.eigvals(m.jacobian(Ht, step))
        jac_margin = m.jac_margin(jac_eigs)
        region = _labels(margins.min(axis=-1), marginal_tol)
        jac = _labels(jac_margin, marginal_tol)
        bad = np.flatnonzero((region != jac) & (region != "marginal") & (jac != "marginal"))
        if bad.size:
            i = bad[0]
            raise CriterionMismatchError(
                f"{mode} verdict ({m.step}={step}, tau={taus[i]}): region criterion "
                f"says {region[i]}, Jacobian criterion says {jac[i]}")
        table.append([
            StabilityVerdict(m.method, label, {m.step: float(step), "tau": tau}, *witnesses,
                             m.criterion)
            for label, tau, *witnesses in zip(region.tolist(), np.asarray(taus, float).tolist(),
                                              lams, margins, jac_eigs, jac_margin.tolist())])
    return table


def verdicts(H, d1: int, mode: str, step: float, taus,
             marginal_tol: float = MARGINAL_TOL) -> list[StabilityVerdict]:
    """One verdict per tau for mode: a verdict table of one pair."""
    return verdict_table(H, d1, [(mode, step)], taus, marginal_tol)[0]


@dataclass
class InfinityVerdict:
    """Empirical infinity-EG verdict along a tau grid.

    stable/unstable comes from a terminal run of at least k_tail grid
    points with that verdict; tau_star is the smallest grid point opening
    the run.  The verdict is empirical: the underlying statements hold for
    all tau beyond an unquantified threshold.
    """

    mode: str
    param: float
    verdict: str  # "stable" | "unstable" | "inconclusive"
    tau_star: float | None
    tau_grid: np.ndarray
    labels: list[str]


def _tau_grid(tau_grid) -> np.ndarray:
    """The validated tau grid of an infinity verdict (the default if None)."""
    tau_grid = DEFAULT_TAU_GRID if tau_grid is None else np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or not tau_grid.size:
        raise ValueError(f"tau_grid must be a non-empty 1-d grid, got shape {tau_grid.shape}")
    if not np.all(np.isfinite(tau_grid)):
        raise ValueError("tau_grid must be finite")
    if np.any(np.diff(tau_grid) <= 0) or tau_grid[0] < 1.0:
        raise ValueError("tau_grid must be increasing with tau >= 1")
    return tau_grid


def _terminal_run(mode: str, param: float, tau_grid, vs, k_tail: int) -> InfinityVerdict:
    """The infinity verdict of one mode's per-tau verdicts vs on tau_grid."""
    labels = [v.stable for v in vs]
    run = next((i for i, lbl in enumerate(reversed(labels)) if lbl != labels[-1]), len(labels))
    if labels[-1] in ("stable", "unstable") and run >= k_tail:
        return InfinityVerdict(mode, param, labels[-1], float(tau_grid[-run]), tau_grid, labels)
    return InfinityVerdict(mode, param, "inconclusive", None, tau_grid, labels)


def infinity_eg_verdict(H, d1: int, s_or_eta: float, mode: str,
                        tau_grid=None, k_tail: int = DEFAULT_K_TAIL,
                        marginal_tol: float = MARGINAL_TOL) -> InfinityVerdict:
    """Sweep tau and report the terminal-run verdict.

    mode is "continuous" (disk criterion at step s), "discrete" (peanut
    criterion at step eta), or "gda".
    """
    tau_grid = _tau_grid(tau_grid)
    vs = verdicts(H, d1, mode, s_or_eta, tau_grid, marginal_tol)
    return _terminal_run(mode, s_or_eta, tau_grid, vs, k_tail)


# ---------------------------------------------------------------------------
# full equilibrium characterization


@dataclass
class ClassifyConfig:
    """Tolerances and sweep parameters for characterize_equilibrium."""

    stationarity_tol: float = 1e-8
    rank_tol: float | None = None
    psd_tol: float | None = None
    marginal_tol: float = MARGINAL_TOL
    eps_grid: np.ndarray | None = None
    tau_grid: np.ndarray | None = None
    k_tail: int = DEFAULT_K_TAIL
    s: float | None = None      # default 0.5/L
    eta: float | None = None    # default 0.5/L
    sigma_sep_tol: float = 1e-6


@dataclass
class EquilibriumReport:
    point: np.ndarray
    f_norm: float
    lipschitz: float
    r: int
    w: int
    spec_Sres: list
    spec_negB: list
    sigma: list
    iota: list           # one value per sigma, averaged over the +- pair
    s0: float
    second_order: spectral.SecondOrderVerdict
    strict_non_minimax: bool
    s_eval: float
    eta_eval: float
    distinct_sigma: bool
    u_S_u: list | None   # u_j' S u_j per sigma_j, when sigma are distinct
    # threshold predicates: stability of infinity-EG for large enough
    # step sizes (continuous: s0 < 1/L) and for the discrete regime
    # (s0 < 1/(2L)); and, under distinct sigma, for every admissible step
    thm_infty_continuous: bool
    thm_infty_discrete: bool
    stable_for_all_steps: bool | None
    predictions: dict    # method -> "stable" | "unstable" | "indeterminate"
    observed: dict       # method -> InfinityVerdict
    mismatches: list
    curves: EigenCurves

    def to_json_dict(self) -> dict:
        def num(x):
            x = float(x)
            return x if math.isfinite(x) else str(x)

        return {
            "point": [float(v) for v in self.point],
            "F_norm": num(self.f_norm),
            "L": num(self.lipschitz),
            "r": self.r,
            "w": self.w,
            "spec_Sres": [num(v) for v in self.spec_Sres],
            "spec_negB": [num(v) for v in self.spec_negB],
            "sigma": [num(v) for v in self.sigma],
            "iota": [num(v) for v in self.iota],
            "s0": num(self.s0),
            "second_order": {
                "B_nsd": self.second_order.B_nsd,
                "Sres_psd": self.second_order.Sres_psd,
            },
            "B_nsd": self.second_order.B_nsd,
            "Sres_psd": self.second_order.Sres_psd,
            "strict_non_minimax": self.strict_non_minimax,
            "s": num(self.s_eval),
            "eta": num(self.eta_eval),
            "distinct_sigma": self.distinct_sigma,
            "u_S_u": None if self.u_S_u is None else [num(v) for v in self.u_S_u],
            "thm_infty_continuous": self.thm_infty_continuous,
            "thm_infty_discrete": self.thm_infty_discrete,
            "stable_for_all_steps": self.stable_for_all_steps,
            "predictions": dict(self.predictions),
            "verdicts": [{"method": mode, "param": num(v.param),
                          "tau_star": None if v.tau_star is None else num(v.tau_star),
                          "stable": v.verdict} for mode, v in self.observed.items()],
            "mismatches": list(self.mismatches),
        }


def _predict(method: str, so: spectral.SecondOrderVerdict, s0: float,
             s_eval: float, eta_eval: float) -> str:
    """Large-tau stability prediction from the second-order data.

    The type-(ii)/(iii) eigenvalue families force instability whenever the
    necessary conditions fail; the sqrt-order family compares the step
    size against s0 (continuous), eta/2 (discrete), or the hemicurvatures
    against eta/2 (gda).
    """
    if not (so.B_nsd and so.Sres_psd):
        return "unstable"
    # gda is stable iff every hemicurvature exceeds eta/2, i.e. -s0 > eta/2
    lhs, rhs = {"continuous": (s_eval, s0), "discrete": (eta_eval / 2.0, s0),
                "gda": (-s0, eta_eval / 2.0)}[method]
    guard = 1e-9 * max(1.0, abs(rhs) if math.isfinite(rhs) else 1.0)
    if lhs > rhs + guard:
        return "stable"
    if lhs < rhs - guard:
        return "unstable"
    return "indeterminate"


def characterize_equilibrium(problem: MinimaxProblem, z_star,
                             config: ClassifyConfig | None = None) -> EquilibriumReport:
    """Bundle the second-order verdicts, curve asymptotics, the stability
    predictions they imply for infinity-EG/GDA, and the empirically swept
    verdicts; flag any prediction/observation mismatch."""
    config = config or ClassifyConfig()
    z = np.asarray(z_star, dtype=float)
    F = saddle_gradient(problem, z)
    f_norm = float(np.linalg.norm(F))
    if f_norm > config.stationarity_tol:
        raise ValueError(
            f"z is not stationary: ||F(z)|| = {f_norm:.3e} > {config.stationarity_tol:.1e}"
        )
    A, B, C = hessian_blocks_at(problem, z)
    blocks = canonicalize(A, B, C, rank_tol=config.rank_tol)
    rsc = restricted_schur(blocks)
    so = second_order_necessary(blocks, psd_tol=config.psd_tol)

    H = np.block([[A, C], [-C.T, -B]])
    curves = eigencurves(H, problem.d1, eps_grid=config.eps_grid,
                         rank_tol=config.rank_tol)
    sigma = curves.sigma
    iota_by_sigma = []
    for sg in sigma:
        vals = [hemicurvature(curves, j) for j in curves.sqrt_indices
                if np.isclose(curves.sigma_by_curve[j], sg)]
        iota_by_sigma.append(float(np.mean(vals)) if vals else float("nan"))
    s0 = s_zero(curves)

    L = problem.lipschitz_bound
    s_eval = 0.5 / L if config.s is None else float(config.s)
    eta_eval = 0.5 / L if config.eta is None else float(config.eta)
    for name, value in (("s", s_eval), ("eta", eta_eval)):
        if not 0.0 < value < 1.0 / L:
            raise ValueError(f"{name} must lie in (0, 1/L) = (0, {1.0 / L:.6g})")

    S = generalized_schur(blocks)
    distinct = True
    if len(sigma) > 1:
        gaps = np.abs(np.subtract.outer(sigma, sigma))
        min_gap = float(np.min(gaps[~np.eye(len(sigma), dtype=bool)]))
        distinct = min_gap > config.sigma_sep_tol * max(1.0, float(sigma[0]))
    u_S_u = None
    if len(sigma) and distinct:
        U2, sv, _ = np.linalg.svd(blocks.C2, full_matrices=False)
        u_S_u = [float(U2[:, k] @ S @ U2[:, k]) for k in range(len(sv))]

    necessary = so.B_nsd and so.Sres_psd
    thm_infty_continuous = bool(necessary and s0 < 1.0 / L)
    thm_infty_discrete = bool(necessary and s0 < 1.0 / (2.0 * L))
    stable_for_all_steps = None
    if not len(sigma):
        stable_for_all_steps = necessary
    elif distinct:
        tol_u = default_psd_tol(S)
        stable_for_all_steps = bool(necessary and all(v >= -tol_u for v in u_S_u))

    predictions = {mode: _predict(mode, so, s0, s_eval, eta_eval) for mode in MODES}
    pairs = [(mode, s_eval if m.step == "s" else eta_eval) for mode, m in MODES.items()]
    tau_grid = _tau_grid(config.tau_grid)
    table = verdict_table(H, problem.d1, pairs, tau_grid, config.marginal_tol)
    observed = {mode: _terminal_run(mode, step, tau_grid, vs, config.k_tail)
                for (mode, step), vs in zip(pairs, table)}
    mismatches = [f"{mode}: predicted {pred} but observed {observed[mode].verdict} "
                  f"(param {observed[mode].param:.6g})"
                  for mode, pred in predictions.items()
                  if {pred, observed[mode].verdict} == {"stable", "unstable"}]

    return EquilibriumReport(
        point=z,
        f_norm=f_norm,
        lipschitz=L,
        r=blocks.r,
        w=rsc.w,
        spec_Sres=[float(v) for v in rsc.eigenvalues()],
        spec_negB=[float(v) for v in -np.diag(blocks.B_diag)],
        sigma=[float(v) for v in sigma],
        iota=iota_by_sigma,
        s0=float(s0),
        second_order=so,
        strict_non_minimax=not necessary,
        s_eval=s_eval,
        eta_eval=eta_eval,
        distinct_sigma=bool(distinct),
        u_S_u=u_S_u,
        thm_infty_continuous=thm_infty_continuous,
        thm_infty_discrete=thm_infty_discrete,
        stable_for_all_steps=stable_for_all_steps,
        predictions=predictions,
        observed=observed,
        mismatches=mismatches,
        curves=curves,
    )
