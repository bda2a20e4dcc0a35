"""Stability regions, equilibrium Jacobians, and strict-linear-stability verdicts.

Continuous tau-EG is stable at an equilibrium iff spec(H_tau) avoids the
closed disk D_s of radius 1/(2s) centered at -1/(2s); discrete tau-EG iff
it lies in the open peanut-shaped region P_eta; two-timescale GDA iff the
spectral radius of I - eta H_tau is below one.  A row of MODES holds one
mode's facts: the name of its step ("s" or "eta"); its inverse form, stable
iff Re(1/u) + shift > 0 on spec(H_tau), with u = lam (1 - eta lam) for the
peanut and u = lam otherwise, shift = s for the disk and -eta/2 otherwise,
which stays well conditioned as the eigenvalues collapse toward the origin
with growing tau, so margins are measured in it; the Jacobian J at an
equilibrium and the margin of the direct criterion on spec(J); whether the
step must obey step < 1/L, L = ||H||_2; and the large-tau threshold (lhs, rhs),
predicting stable iff lhs > rhs.  in_disk and in_peanut cross-check the
direct regions against the rows' inverse forms, and verdict_table()
evaluates (mode, step) pairs over one tau grid, both criteria as array
operations; each raises CriterionMismatchError where the two sides disagree
outside their marginal bands, so the equivalences run as permanent self-tests.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import spectral
from .dynamics import _finite_point, _solve_checked, _tau_floats, check_ranges, check_step
from .problems import MinimaxProblem, block_hessian, hessian_blocks_at, saddle_gradient
from .spectral import (
    EigenCurves,
    _eigencurves,
    _repeated_sigma_gap,
    _saddle_shape,
    _sigma_gaps,
    canonicalize,
    default_psd_tol,
    hemicurvature,
    second_order_necessary,
    timescaled_hessian,
)

MARGINAL_TOL = 1e-8
DEFAULT_TAU_GRID = np.geomspace(1.0, 1e8, 33)
DEFAULT_TAU_GRID.setflags(write=False)  # shared by every default call
K_TAIL = 5  # grid points in a terminal run that decides an infinity verdict
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


def _in_region(z, step: float, mode: str, gap: Callable, closed: bool, cross_check: bool):
    """Membership of z in a region given by its direct gap: the closed region
    (gap >= 0) where MODES[mode]'s inverse-form margin is <= 0, or the open one
    (gap > 0) where it is > 0.  The two forms are cross-checked away from the
    boundary and from u = 0; scalars in, scalar bool out."""
    m = MODES[mode]
    check_ranges(**{m.step: step})
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g = gap(z, step)
    primary = g >= 0.0 if closed else g > 0.0
    if cross_check:
        u = m.u(z, step)
        margin = _inverse_margin(u, m.shift(step))
        inv = margin <= 0.0 if closed else margin > 0.0
        bad = (primary != inv) & (np.abs(g) > _CROSS_CHECK_GUARD) & (np.abs(u) > 1e-300)
        if np.any(bad):
            name = gap.__name__.removesuffix("_gap")
            raise CriterionMismatchError(
                f"{name} forms disagree at z={z[bad][0]} (gap {g[bad][0]:.3e})")
    return bool(primary[0]) if scalar else primary


def in_disk(z, s: float, cross_check: bool = True):
    """Membership in D_s = {z : |z + 1/(2s)| <= 1/(2s)}, cross-checked
    against Re(1/z) <= -s (z = 0 is on the boundary: inside)."""
    return _in_region(z, s, "continuous", disk_gap, True, cross_check)


def in_peanut(z, eta: float, cross_check: bool = True):
    """Membership in the open peanut-shaped region P_eta, cross-checked
    against Re(1/(z(1 - eta z))) > eta/2 for z not in {0, 1/eta}."""
    return _in_region(z, eta, "discrete", peanut_gap, False, cross_check)


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
class Verdicts:
    """The verdicts of one (mode, step) pair over a tau grid; a margin is positive where
    stable.  verdict is the empirical infinity verdict of the labels' terminal run."""

    mode: str
    param: float             # the step, s or eta
    verdict: str             # "stable" | "unstable" | "inconclusive"
    tau_star: float | None   # the grid point opening a deciding run, else None
    tau_grid: np.ndarray     # (T,) the taus, as validated
    labels: list[str]        # "stable" | "unstable" | "marginal" per tau
    margins: np.ndarray      # (T, n) inverse-form margin per eigenvalue of H_tau
    jac_eigs: np.ndarray     # (T, n) spec(J)
    jac_margin: np.ndarray   # (T,) margin of the direct Jacobian criterion


@dataclass(frozen=True)
class VerdictMode:
    """The facts of one stability mode (a row of MODES)."""

    step: str                # name of the step size: "s" or "eta"
    u: Callable              # (spec(H_tau), step) -> u; inverse-form margin Re(1/u) + shift
    shift: Callable          # step -> shift
    jacobian: Callable       # (H_tau stack, step) -> Jacobian stack
    jac_margin: Callable     # spec(J) stack -> margin per tau, positive = stable
    lipschitz: bool          # requires step < 1/L (dynamics.check_step), L = ||H||_2
    threshold: Callable      # (s0, step) -> (lhs, rhs): stable for large tau iff lhs > rhs


def _rho_margin(jac_eigs) -> np.ndarray:
    return 1.0 - np.abs(jac_eigs).max(axis=-1)


MODES = {
    # eg_tt_continuous: spec(H_tau) outside D_s <=> spec(J) in the open left half-plane
    "continuous": VerdictMode(
        "s", lambda lams, s: lams, lambda s: s,
        eg_jacobian_continuous, lambda jac_eigs: -jac_eigs.real.max(axis=-1), True,
        lambda s0, s: (s, s0)),
    # eg_tt_discrete: spec(H_tau) inside P_eta <=> rho(J) < 1
    "discrete": VerdictMode(
        "eta", _peanut_u, lambda eta: -eta / 2.0,
        _eg_discrete_jacobian, _rho_margin, True, lambda s0, eta: (eta / 2.0, s0)),
    # gda_tt: Re(1/lam) > eta/2 for all lam <=> rho(I - eta H_tau) < 1; large tau:
    # stable iff every hemicurvature exceeds eta/2, i.e. -s0 > eta/2
    "gda": VerdictMode(
        "eta", lambda lams, eta: lams, lambda eta: -eta / 2.0,
        _gda_jacobian, _rho_margin, False, lambda s0, eta: (-s0, eta / 2.0)),
}


def _labels(margins) -> np.ndarray:
    tol = MARGINAL_TOL
    return np.where(margins > tol, "stable", np.where(margins < -tol, "unstable", "marginal"))


def _terminal_run(labels: list[str], taus) -> tuple[str, float | None]:
    """(verdict, tau_star) of per-tau labels on the grid taus: a terminal run of at least
    K_TAIL stable or unstable labels decides, for all tau beyond an unquantified threshold."""
    run = next((i for i, lbl in enumerate(reversed(labels)) if lbl != labels[-1]), len(labels))
    if run >= K_TAIL and labels[-1] in ("stable", "unstable"):
        return labels[-1], float(taus[-run])
    return "inconclusive", None


def verdict_table(H, d1: int, pairs, taus) -> list[Verdicts]:
    """The Verdicts over taus of each (mode, step) pair, mode a key of MODES.

    The spectrum of the H_tau stack and ||H||_2 are computed once, on first
    need, for all pairs; each pair adds one stacked Jacobian spectrum.
    Pairs are validated and evaluated in order, so a failing pair raises
    what a table of it alone raises.
    """
    H, taus = _saddle_shape(H, d1), _tau_floats(taus)
    if taus.ndim != 1:
        raise ValueError(f"taus must be a 1-d grid, got shape {taus.shape}")
    Ht = lams = norm = None
    table = []
    for mode, step in pairs:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        m = MODES[mode]
        if m.lipschitz:  # the step hypothesis, 0 < step < 1/L with L = ||H||_2
            norm = np.linalg.norm(H, 2) if norm is None else norm
            check_step(m.step, step, norm)
        else:
            check_ranges(**{m.step: step})
        if not len(taus):
            empty = np.empty((0, len(H)))
            table.append(Verdicts(mode, step, "inconclusive", None, taus, [], empty, empty,
                                  np.empty(0)))
            continue
        if Ht is None:
            Ht = timescaled_hessian(H, taus, d1)
            lams = np.linalg.eigvals(Ht)
        margins = _inverse_margin(m.u(lams, step), m.shift(step))
        jac_eigs = np.linalg.eigvals(m.jacobian(Ht, step))
        jac_margin = m.jac_margin(jac_eigs)
        region = _labels(margins.min(axis=-1))
        jac = _labels(jac_margin)
        bad = np.flatnonzero((region != jac) & (region != "marginal") & (jac != "marginal"))
        if bad.size:
            i = bad[0]
            raise CriterionMismatchError(
                f"{mode} verdict ({m.step}={step}, tau={taus[i]}): region criterion "
                f"says {region[i]}, Jacobian criterion says {jac[i]}")
        labels = region.tolist()
        table.append(Verdicts(mode, step, *_terminal_run(labels, taus), taus, labels, margins,
                              jac_eigs, jac_margin))
    return table


def _tau_grid(tau_grid) -> np.ndarray:
    """The validated tau grid of an infinity verdict (the default if None)."""
    tau_grid = DEFAULT_TAU_GRID if tau_grid is None else _tau_floats(tau_grid)
    if tau_grid.ndim != 1 or not tau_grid.size:
        raise ValueError(f"tau_grid must be a non-empty 1-d grid, got shape {tau_grid.shape}")
    check_ranges(tau=tau_grid)
    if np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must be increasing")
    return tau_grid


def infinity_eg_verdict(H, d1: int, s_or_eta: float, mode: str, tau_grid=None) -> Verdicts:
    """The Verdicts of one (mode, step) pair over an increasing, non-empty tau
    grid (DEFAULT_TAU_GRID if None), its terminal-run verdict included.

    mode is "continuous" (disk criterion at step s), "discrete" (peanut
    criterion at step eta), or "gda".
    """
    return verdict_table(H, d1, [(mode, s_or_eta)], _tau_grid(tau_grid))[0]


# ---------------------------------------------------------------------------
# full equilibrium characterization


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
    iota: list           # one value per sigma: the mean over the curves of that sigma
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
    observed: dict       # mode -> its Verdicts row
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


def _predict(lhs: float, rhs: float) -> str:
    """"stable" if lhs > rhs, "unstable" if lhs < rhs, each by more than a
    relative 1e-9 guard band around rhs; "indeterminate" inside it."""
    guard = 1e-9 * max(1.0, abs(rhs) if math.isfinite(rhs) else 1.0)
    if lhs > rhs + guard:
        return "stable"
    if lhs < rhs - guard:
        return "unstable"
    return "indeterminate"


def characterize_equilibrium(problem: MinimaxProblem, z_star, *,
                             stationarity_tol: float = 1e-8, tau_grid=None, s: float | None = None,
                             eta: float | None = None) -> EquilibriumReport:
    """Bundle the second-order verdicts, curve asymptotics, the stability
    predictions they imply for infinity-EG/GDA, and the empirically swept
    verdicts; flag any prediction/observation mismatch.  s and eta default
    to 0.5/L, tau_grid to DEFAULT_TAU_GRID."""
    check_ranges(stationarity_tol=stationarity_tol)
    L = problem.lipschitz_bound
    s_eval, eta_eval = (0.5 / L if v is None else v for v in (s, eta))
    check_step("s", s_eval, L)
    check_step("eta", eta_eval, L)
    s_eval, eta_eval = float(s_eval), float(eta_eval)
    z = _finite_point(z_star, "z_star")
    F = saddle_gradient(problem, z)
    f_norm = float(np.linalg.norm(F))
    if not f_norm <= stationarity_tol:
        raise ValueError(
            f"z is not stationary: ||F(z)|| = {f_norm:.3e} > {stationarity_tol:.1e}"
        )
    A, B, C = hessian_blocks_at(problem, z)
    blocks = canonicalize(A, B, C)
    so = second_order_necessary(blocks)
    rsc = so.rsc

    H = block_hessian(A, B, C)
    curves = _eigencurves(H, blocks)
    sigma = curves.sigma
    sqrt = curves.sqrt_indices
    iota = [hemicurvature(curves, j) for j in sqrt]  # one per curve
    same = _sigma_gaps(curves.sigma_by_curve[sqrt], sigma)[1]  # (curve, sigma), own two included
    by_sigma = [np.compress(m, iota) for m in same.T]
    for sig, vals in zip(sigma, by_sigma):  # a mean of +inf and -inf would read nan
        if np.isposinf(vals).any() and np.isneginf(vals).any():
            raise ValueError(f"the curves of sigma = {sig:.6g} have hemicurvatures +inf and -inf")
    iota_by_sigma = [float(np.mean(vals)) for vals in by_sigma]
    s0 = spectral._s_zero(iota)

    distinct = _repeated_sigma_gap(sigma) is None
    u_S_u = [rsc.u_S_u(j) for j in range(len(rsc.sigma))] if distinct else None

    necessary = so.B_nsd and so.Sres_psd
    thm_infty_continuous = bool(necessary and s0 < 1.0 / L)
    thm_infty_discrete = bool(necessary and s0 < 1.0 / (2.0 * L))
    stable_for_all_steps = None
    if distinct:  # also without sigma, where u_S_u is empty and excludes no step
        tol_u = default_psd_tol(rsc.S)
        stable_for_all_steps = bool(necessary and all(v >= -tol_u for v in u_S_u))

    # the type-(ii)/(iii) eigenvalue families force instability whenever the
    # necessary conditions fail; the sqrt-order family sets each row's threshold
    pairs = [(mode, s_eval if m.step == "s" else eta_eval) for mode, m in MODES.items()]
    predictions = {mode: _predict(*MODES[mode].threshold(s0, step)) if necessary else "unstable"
                   for mode, step in pairs}
    observed = dict(zip(MODES, verdict_table(H, problem.d1, pairs, _tau_grid(tau_grid))))
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
        spec_Sres=[float(v) for v in rsc.spectrum],
        spec_negB=[float(v) for v in -np.diag(blocks.B_diag)],
        sigma=[float(v) for v in sigma],
        iota=iota_by_sigma,
        s0=s0,
        second_order=so,
        strict_non_minimax=not necessary,
        s_eval=s_eval,
        eta_eval=eta_eval,
        distinct_sigma=bool(distinct),
        u_S_u=u_S_u if len(sigma) else None,
        thm_infty_continuous=thm_infty_continuous,
        thm_infty_discrete=thm_infty_discrete,
        stable_for_all_steps=stable_for_all_steps,
        predictions=predictions,
        observed=observed,
        mismatches=mismatches,
        curves=curves,
    )
