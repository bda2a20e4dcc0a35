"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import numpy as np
from conftest import (
    assemble_hessian,
    random_margin_separated_instance,
    random_saddle_blocks,
    random_sufficient_blocks,
)

from minimaxdyn import stability
from minimaxdyn.cli import main as cli_main
from minimaxdyn.dynamics import MethodParams, run_discrete, run_batch
from minimaxdyn.problems import builtin_problem
from minimaxdyn.spectral import (
    LABEL_LINEAR,
    LABEL_ORDER_ONE,
    LABEL_SQRT,
    canonicalize,
    eigencurves,
    hemicurvature,
    hemicurvature_closed_form,
    mu_roots_oracle,
    restricted_schur,
    rsc_subspace_oracle,
    timescaled_hessian,
)
from minimaxdyn.stability import (
    eg_jacobian_continuous,
    eg_jacobian_discrete,
    in_disk,
    in_peanut,
    infinity_eg_verdict,
    mobius_map,
)

_MISMATCH_BASELINE = stability.mismatch_count()

SHAPES = [(2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 2)]


def _criterion(n, ok, detail=""):
    print(f"\n[acceptance] criterion {n:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _ball_inits(rng, n, dim, radius=1.0):
    """Uniform samples from the dim-ball of the given radius."""
    out = []
    for _ in range(n):
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        out.append(radius * v * rng.uniform() ** (1.0 / dim))
    return out


def test_criterion_01_bilinear_spectrum():
    H = builtin_problem("bilinear").quadratic.hessian()
    worst = 0.0
    for tau in (10.0, 100.0, 1000.0):
        lams = np.sort_complex(np.linalg.eigvals(timescaled_hessian(H, tau, 1)))
        expected = np.sort_complex(np.array([-1j, 1j]) * np.sqrt(1.0 / tau))
        worst = max(worst, float(np.max(np.abs(lams - expected))))
    _criterion(1, worst <= 1e-10, f"max spectrum deviation {worst:.2e}")


def test_criterion_02_bilinear_dynamics():
    p = builtin_problem("bilinear")
    rng = np.random.default_rng(2024)
    inits = _ball_inits(rng, 100, 2)

    eg_params = MethodParams(method="eg_tt", eta=0.5, tau=10.0)
    eg_hits = 0
    for traj in run_batch(p, inits, eg_params, tol_conv=1e-8, max_iters=100_000):
        if traj.termination.reason == "converged" \
                and np.linalg.norm(traj.states[-1]) <= 1e-6:
            eg_hits += 1

    # GDA never converges and moves away from the origin monotonically; the
    # monotone norm is sqrt(tau ||x||^2 + ||y||^2), in which one bilinear GDA
    # step expands by exactly rho = sqrt(1 + eta^2/tau).  (I - eta H_tau is
    # not normal for tau > 1, so the Euclidean norm oscillates while growing.)
    gda_converged = 0
    worst_drop = np.inf
    for tau in (1.0, 10.0, 100.0):
        params = MethodParams(method="gda_tt", eta=0.5, tau=tau)
        for traj in run_batch(p, inits, params, max_iters=100_000, record=True):
            if traj.termination.reason == "converged":
                gda_converged += 1
            w = np.sqrt(tau * traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
            if len(w) > 1:
                worst_drop = min(worst_drop, float(np.min(np.diff(w))))
            if tau == 1.0:
                e = np.linalg.norm(traj.states, axis=1)
                worst_drop = min(worst_drop, float(np.min(np.diff(e))))
    ok = eg_hits == 100 and gda_converged == 0 and worst_drop >= -1e-12
    _criterion(2, ok, f"EG converged {eg_hits}/100, GDA converged {gda_converged}, "
                      f"min per-step norm increase {worst_drop:.2e}")


def test_criterion_03_type_counts_and_slopes():
    rng = np.random.default_rng(3)
    per_shape = [13, 13, 12, 12]
    targets = {LABEL_SQRT: 0.5, LABEL_LINEAR: 1.0, LABEL_ORDER_ONE: 0.0}
    count_failures = []
    worst_slope_err = 0.0
    for (d1, d2, r), n in zip(SHAPES, per_shape):
        for _ in range(n):
            A, B, C = random_saddle_blocks(rng, d1, d2, r)
            curves = eigencurves(assemble_hessian(A, B, C), d1)
            expected = (2 * (d2 - r), d1 - d2 + r, r)
            if curves.counts() != expected:
                count_failures.append((d1, d2, r, curves.counts()))
            for j, label in enumerate(curves.labels):
                worst_slope_err = max(
                    worst_slope_err, abs(curves.slopes[j] - targets[label]))
    ok = not count_failures and worst_slope_err <= 0.1
    _criterion(3, ok, f"50 instances; worst slope error {worst_slope_err:.3f}")


def test_criterion_04_restricted_schur_oracles():
    rng = np.random.default_rng(4)
    worst = 0.0
    agree = True
    n_checked = 0
    for i in range(50):
        d1, d2, r = SHAPES[i % len(SHAPES)]
        A, B, C = random_saddle_blocks(rng, d1, d2, r)
        blocks = canonicalize(A, B, C)
        rsc = restricted_schur(blocks)
        mus = np.sort(rsc.eigenvalues())
        roots = mu_roots_oracle(blocks)
        if mus.size:
            worst = max(worst, float(np.max(np.abs(np.sort(np.real(roots)) - mus))))
            worst = max(worst, float(np.max(np.abs(np.imag(roots)))))
        psd_tol = max(1e-8 * np.linalg.norm(rsc.S_res, 2), 1e-10) if mus.size else 1e-10
        if mus.size and abs(mus.min()) < 10 * psd_tol:
            continue  # margin case excluded by protocol
        verdict = bool(mus.min() >= 0) if mus.size else True
        if rsc_subspace_oracle(blocks, n_samples=300, seed=i) is not verdict:
            agree = False
        n_checked += 1
    ok = worst <= 1e-8 and agree
    _criterion(4, ok, f"pencil deviation {worst:.2e}; "
                      f"subspace verdicts agreed on {n_checked} instances")


def test_criterion_05_hemicurvature():
    worst_numeric = 0.0
    closed_exact = True
    for a, c in ((2.0, 1.0), (-2.0, 1.0), (4.0, 3.0)):
        p = builtin_problem("scalar_degenerate", a=a, c=c)
        expected = a / (2 * c * c)
        curves = eigencurves(p.quadratic.hessian(), 1)
        for j in curves.sqrt_indices:
            worst_numeric = max(worst_numeric,
                                abs(hemicurvature(curves, j) - expected))
        blocks = canonicalize(*(p.hessian_blocks(np.zeros(2))))
        if hemicurvature_closed_form(blocks, 0) != expected:
            closed_exact = False
    ok = worst_numeric <= 1e-3 and closed_exact
    _criterion(5, ok, f"numeric deviation {worst_numeric:.2e}; closed form exact")


def test_criterion_06_equivalence_propositions():
    rng = np.random.default_rng(6)
    disk_agree = 0
    for _ in range(500):
        H, d1, tau, s = random_margin_separated_instance(rng, 1e-6, "disk")
        Ht = timescaled_hessian(H, tau, d1)
        lams = np.linalg.eigvals(Ht)
        region = not np.any(in_disk(lams, s, cross_check=False))
        jac = np.max(np.linalg.eigvals(eg_jacobian_continuous(Ht, s)).real) < 0
        disk_agree += region == jac
    peanut_agree = 0
    for _ in range(500):
        H, d1, tau, eta = random_margin_separated_instance(rng, 1e-6, "peanut")
        Ht = timescaled_hessian(H, tau, d1)
        lams = np.linalg.eigvals(Ht)
        region = bool(np.all(in_peanut(lams, eta, cross_check=False)))
        jac = np.max(np.abs(np.linalg.eigvals(eg_jacobian_discrete(H, eta, tau, d1)))) < 1
        peanut_agree += region == jac
    ok = disk_agree == 500 and peanut_agree == 500
    _criterion(6, ok, f"disk {disk_agree}/500, peanut {peanut_agree}/500")


def test_criterion_07_region_geometry():
    s = 0.37
    t = np.concatenate([-np.geomspace(1e-3, 1e3, 50), np.geomspace(1e-3, 1e3, 50)])
    mu = mobius_map(1j * t, s)
    boundary_dev = float(np.max(np.abs(np.abs(mu + 1 / (2 * s)) - 1 / (2 * s))))

    rng = np.random.default_rng(7)
    intersections = 0
    for a, eta in zip(np.geomspace(0.01, 100, 20), np.geomspace(0.02, 5, 20)):
        u = rng.uniform(0, 1, 10_000)
        theta = rng.uniform(0, 2 * np.pi, 10_000)
        z = -a + (a / 2) * np.sqrt(u) * np.exp(1j * theta)
        intersections += int(np.count_nonzero(in_peanut(z, eta, cross_check=False)))

    segment_ok = True
    for eta in (0.5, 1.0, 2.0):
        ts = np.linspace(1 / 101, 1 - 1 / 101, 100) / eta
        segment_ok &= bool(np.all(in_peanut(1j * ts, eta)))
        segment_ok &= bool(np.all(in_peanut(-1j * ts, eta)))

    ok = boundary_dev <= 1e-10 and intersections == 0 and segment_ok
    _criterion(7, ok, f"boundary deviation {boundary_dev:.2e}, "
                      f"{intersections} disk-peanut intersections")


def test_criterion_08_sufficient_condition_spot_check():
    rng = np.random.default_rng(8)
    shapes = [(2, 1, 0), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 3, 2)]
    all_stable = True
    for i in range(20):
        d1, d2, r = shapes[i % len(shapes)]
        A, B, C = random_sufficient_blocks(rng, d1, d2, r)
        H = assemble_hessian(A, B, C)
        L = np.linalg.norm(H, 2)
        for frac in (0.1, 0.5, 0.9):
            if infinity_eg_verdict(H, d1, frac / L, "continuous").verdict != "stable":
                all_stable = False
            if infinity_eg_verdict(H, d1, frac / L, "discrete").verdict != "stable":
                all_stable = False
    _criterion(8, all_stable, "20 instances x {0.1, 0.5, 0.9}/L, both regimes")


def test_criterion_09_avoidance_of_strict_nonminimax():
    p = builtin_problem("strict_nonminimax_demo")
    L = p.lipschitz_bound
    eta = 0.9 * (np.sqrt(5.0) - 1.0) / (2.0 * L)
    H = p.quadratic.hessian()
    sweep = infinity_eg_verdict(H, p.d1, eta, "discrete")
    assert sweep.verdict == "unstable"
    tau = float(sweep.tau_star)
    params = MethodParams(method="eg_tt", eta=eta, tau=tau)
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(500):
        z0 = rng.uniform(-1.0, 1.0, 4)
        traj = run_discrete(p, z0, params, max_iters=20_000, record=False)
        if traj.termination.reason != "diverged" \
                and np.linalg.norm(traj.states[-1]) <= 1e-4:
            hits += 1
    _criterion(9, hits == 0,
               f"{hits}/500 inits converged to the target (eta={eta:.4f}, tau={tau:g})")


def test_criterion_10_no_selftest_mismatches(tmp_path):
    trips = stability.mismatch_count() - _MISMATCH_BASELINE
    code = cli_main(["classify", "--builtin", "bilinear", "--s", "0.4", "--eta", "0.5",
                     "--out", str(tmp_path)])
    ok = trips == 0 and code == 0
    _criterion(10, ok, f"{trips} dual-criterion trips; classify exit code {code}")
