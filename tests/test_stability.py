import dataclasses
import json
import os

import numpy as np
import pytest
from conftest import (
    assemble_hessian,
    random_loose_blocks,
    random_margin_separated_instance,
    random_saddle_blocks,
    rank_deficient_symmetric,
    step,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minimaxdyn import spectral, stability
from minimaxdyn.cli import main
from minimaxdyn.dynamics import find_stationary
from minimaxdyn.problems import MinimaxProblem, QuadraticSpec, builtin_problem, hessian_blocks_at
from minimaxdyn.spectral import timescaled_hessian
from minimaxdyn.stability import (
    CriterionMismatchError,
    characterize_equilibrium,
    eg_jacobian_continuous,
    eg_jacobian_discrete,
    in_disk,
    in_peanut,
    infinity_eg_verdict,
    mobius_map,
)


def hessian_of(name, **params):
    return builtin_problem(name, **params).quadratic.hessian()


def one_pair(H, d1, mode, step, taus):
    """The Verdicts of mode over taus: a verdict table of one pair."""
    return stability.verdict_table(H, d1, [(mode, step)], taus)[0]


def verdict(mode, H, step, tau, d1):
    """The Verdicts of mode for H at one tau."""
    return one_pair(H, d1, mode, step, [tau])


# --- regions -----------------------------------------------------------------


def test_in_disk_examples():
    s = 0.3
    assert in_disk(-1.0 / (2 * s), s) is True  # center
    for t in (0.5, -2.0):
        assert in_disk(1j * t, s) is False
    assert in_disk(0.0, s) is True  # boundary point of the closed disk
    # both forms at s = 0.5, z = -0.5: Re(1/z) = -2 <= -0.5
    assert in_disk(-0.5, 0.5) is True
    assert (1.0 / -0.5) <= -0.5


def test_in_peanut_examples():
    assert in_peanut(0.5, 1.0) is True           # (0)^2 + 3/4 < 1
    assert in_peanut(0.5j, 1.0) is True          # 1.25 < sqrt(1.75)
    assert in_peanut(1.0, 1.0) is False          # boundary excluded
    assert in_peanut(0.0, 1.0) is False
    assert in_peanut(-0.1, 1.0) is False         # negative real axis excluded


@pytest.mark.parametrize("region, z, name", [(in_disk, -0.5, "s"), (in_peanut, 0.5, "eta")],
                         ids=["in_disk", "in_peanut"])
@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_regions_reject_bad_steps(region, z, name, step):
    # NaN and inf used to fail every comparison and answer False
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {step}$"):
        region(z, step)


@pytest.mark.parametrize("region, z, step, off", [
    (in_disk, -2.0 - 2e-6, 0.5, -1e-6),                    # gap -2e-6, Re(1/z) + s = 5e-7
    (in_peanut, 0.5 + 1j * (1.75**0.5 + 1e-6), 1.0, 1e-6),  # gap -1.1e-6, margin -6.6e-7
], ids=["in_disk", "in_peanut"])
def test_inverse_form_off_by_one_millionth_raises(monkeypatch, region, z, step, off):
    """The cross-check guard (stability._CROSS_CHECK_GUARD) is 1e-9: an inverse
    form wrong by 1e-6 trips it at a point 1e-6 outside the region."""
    assert region(z, step) is False
    monkeypatch.setattr(stability, "_mismatch_count", stability.mismatch_count())
    right = stability._inverse_margin
    monkeypatch.setattr(stability, "_inverse_margin", lambda u, shift: right(u, shift) + off)
    with pytest.raises(CriterionMismatchError, match="forms disagree"):
        region(z, step)


def test_region_predicates_vectorized():
    z = np.array([0.5 + 0.0j, 1.0 + 0.0j, 0.5j])
    out = in_peanut(z, 1.0)
    assert out.tolist() == [True, False, True]
    out = in_disk(np.array([0.0j, 1.0 + 0.0j, -1.0 + 0.0j]), 0.5)
    assert out.tolist() == [True, False, True]


@given(st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
       st.floats(0.05, 2.0))
@settings(max_examples=200, deadline=None)
def test_disk_forms_agree(z, s):
    # the cross-check inside in_disk raises on any disagreement with margin
    in_disk(z, s)


@given(st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
       st.floats(0.05, 2.0))
@settings(max_examples=200, deadline=None)
def test_peanut_forms_agree(z, eta):
    in_peanut(z, eta)


def test_gda_criterion_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 500:
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        eta = rng.uniform(0.05, 1.0)
        if abs(lam) < 1e-3:
            continue
        direct = abs(1 - eta * lam) > 1.0
        inverse = (1.0 / lam).real < eta / 2.0
        if abs(abs(1 - eta * lam) - 1.0) < 1e-6:
            continue  # margin-excluded
        assert direct == inverse
        checked += 1


# --- mobius map ----------------------------------------------------------------


def test_mobius_known_values():
    s = 0.25
    assert mobius_map(1.0, s) == pytest.approx(-1.0 / (1.0 + s))
    assert mobius_map(0.0, s) == 0.0


def test_mobius_is_involution():
    lam = 2.0 + 3.0j
    assert mobius_map(mobius_map(lam, 0.1), 0.1) == pytest.approx(lam, abs=1e-12)


def test_mobius_pole():
    with pytest.raises(ValueError):
        mobius_map(-10.0, 0.1)


def test_mobius_maps_imaginary_axis_to_disk_boundary():
    s = 0.37
    t = np.concatenate([-np.geomspace(1e-3, 1e3, 50), np.geomspace(1e-3, 1e3, 50)])
    mu = mobius_map(1j * t, s)
    assert np.max(np.abs(np.abs(mu + 1.0 / (2 * s)) - 1.0 / (2 * s))) <= 1e-10


# --- Jacobians -------------------------------------------------------------------


def test_eg_jacobian_continuous_zero_and_scalar():
    assert_allclose(eg_jacobian_continuous(np.zeros((3, 3)), 0.2), np.zeros((3, 3)))
    lam = 0.7
    J = eg_jacobian_continuous(np.array([[lam]]), 0.2)
    assert J[0, 0] == pytest.approx(mobius_map(lam, 0.2).real)


def test_eg_jacobian_continuous_spectral_map():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = rng.integers(2, 9)
        H = rng.standard_normal((n, n))
        s = rng.uniform(0.02, 0.9) / max(1.0, np.linalg.norm(H, 2))
        J = eg_jacobian_continuous(H, s)
        expected = np.sort_complex(mobius_map(np.linalg.eigvals(H), s))
        got = np.sort_complex(np.linalg.eigvals(J))
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_eg_jacobian_discrete_identities():
    assert_allclose(eg_jacobian_discrete(np.zeros((2, 2)), 0.5, 4.0, 1), np.eye(2))
    J = eg_jacobian_discrete(hessian_of("bilinear"), 0.5, 4.0, 1)
    assert np.max(np.abs(np.linalg.eigvals(J))) < 1.0


def test_eg_jacobian_discrete_matches_finite_difference():
    p = builtin_problem("strict_nonminimax_demo")
    H = p.quadratic.hessian()
    eta, tau = 0.2, 5.0
    J = eg_jacobian_discrete(H, eta, tau, p.d1)
    h = 1e-6
    J_fd = np.empty((4, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        J_fd[:, i] = (step(p, e, "eg_tt", eta=eta, tau=tau)
                      - step(p, -e, "eg_tt", eta=eta, tau=tau)) / (2 * h)
    assert np.max(np.abs(J - J_fd)) <= 1e-5


# --- verdicts ---------------------------------------------------------------------


def test_stability_continuous_examples():
    v = verdict("continuous", hessian_of("bilinear"), 0.4, 100.0, 1)
    assert v.labels == ["stable"]
    # B = +1 sends an order-one eigenvalue to -1, inside every disk with s < 1/L
    H = assemble_hessian([[2.0]], [[1.0]], [[1.0]])
    v = verdict("continuous", H, 0.3, 1e6, 1)
    assert v.labels == ["unstable"]
    v = verdict("continuous", np.array([[1.0]]), 0.5, 1.0, 1)
    assert v.labels == ["stable"]


def test_stability_continuous_rejects_large_s():
    with pytest.raises(ValueError):
        verdict("continuous", hessian_of("bilinear"), 1.5, 1.0, 1)


def test_stability_discrete_examples():
    v = verdict("discrete", hessian_of("bilinear"), 0.5, 4.0, 1)
    assert v.labels == ["stable"]
    H = hessian_of("scalar_degenerate", a=-2.0, c=1.0)
    v = verdict("discrete", H, 0.3, 1e6, 1)
    assert v.labels == ["unstable"]
    # negative real eigenvalue is outside the peanut for any eta
    v = verdict("discrete", np.array([[-0.1]]), 0.5, 1.0, 1)
    assert v.labels == ["unstable"]


def test_gda_stability_examples():
    for tau in (1.0, 10.0, 100.0):
        v = verdict("gda", hessian_of("bilinear"), 0.5, tau, 1)
        assert v.labels == ["unstable"]
    assert verdict("gda", np.array([[1.0]]), 0.5, 1.0, 1).labels == ["stable"]
    assert verdict("gda", np.array([[-1.0]]), 0.5, 1.0, 1).labels == ["unstable"]


@pytest.mark.parametrize("margin, label", [(1e-7, "stable"), (1e-9, "marginal"),
                                           (-1e-9, "marginal"), (-1e-7, "unstable")])
def test_marginal_band_is_one_hundred_millionth(margin, label):
    """stability.MARGINAL_TOL is 1e-8: a margin of ten times it decides, a tenth of it
    is marginal; the literals are deliberate.  With H = [[lam]] and eta = 1 the gda
    margin is 1/lam - 1/2."""
    v = verdict("gda", np.array([[1.0 / (0.5 + margin)]]), 1.0, 1.0, 1)
    assert v.margins[0, 0] == pytest.approx(margin, rel=1e-6)
    assert v.labels == [label]


def test_verdict_margins_respect_invariant():
    v = verdict("continuous", hessian_of("bilinear"), 0.4, 100.0, 1)
    assert np.min(v.margins) > stability.MARGINAL_TOL
    v = verdict("gda", hessian_of("bilinear"), 0.5, 10.0, 1)
    assert np.min(v.margins) < -stability.MARGINAL_TOL


# --- equivalence propositions on random instances ----------------------------------


def test_disk_equivalence_100_random():
    from minimaxdyn.spectral import timescaled_hessian

    rng = np.random.default_rng(41)
    for _ in range(100):
        H, d1, tau, s = random_margin_separated_instance(rng, 1e-6, "disk")
        Ht = timescaled_hessian(H, tau, d1)
        lams = np.linalg.eigvals(Ht)
        region_stable = not np.any(in_disk(lams, s, cross_check=False))
        J = eg_jacobian_continuous(Ht, s)
        jac_stable = np.max(np.linalg.eigvals(J).real) < 0
        assert region_stable == jac_stable


def test_peanut_equivalence_100_random():
    from minimaxdyn.spectral import timescaled_hessian

    rng = np.random.default_rng(42)
    for _ in range(100):
        H, d1, tau, eta = random_margin_separated_instance(rng, 1e-6, "peanut")
        Ht = timescaled_hessian(H, tau, d1)
        lams = np.linalg.eigvals(Ht)
        region_stable = bool(np.all(in_peanut(lams, eta, cross_check=False)))
        J = eg_jacobian_discrete(H, eta, tau, d1)
        jac_stable = np.max(np.abs(np.linalg.eigvals(J))) < 1
        assert region_stable == jac_stable


def test_disk_and_peanut_never_intersect():
    # disk {|z + a| < a/2} stays outside the peanut, for all a, eta
    rng = np.random.default_rng(43)
    for a, eta in zip(np.geomspace(0.01, 100, 20), np.geomspace(0.02, 5, 20)):
        u = rng.uniform(0, 1, 10_000)
        theta = rng.uniform(0, 2 * np.pi, 10_000)
        z = -a + (a / 2) * np.sqrt(u) * np.exp(1j * theta)
        assert not np.any(in_peanut(z, eta, cross_check=False))


def test_peanut_contains_punctured_imaginary_segment():
    for eta in (0.3, 1.0, 2.5):
        t = np.linspace(1.0 / 101, 1.0 - 1.0 / 101, 100) / eta
        assert np.all(in_peanut(1j * t, eta))
        assert np.all(in_peanut(-1j * t, eta))


def test_nonsingularity_bounds():
    rng = np.random.default_rng(44)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        d1, d2 = rng.integers(1, 3), rng.integers(1, 3)
        A, B, C = random_loose_blocks(rng, d1, d2)
        H = assemble_hessian(A, B, C)
        L = np.linalg.norm(H, 2)
        if L < 1e-6:
            continue
        tau = float(np.exp(rng.uniform(0, np.log(100))))
        eta = rng.uniform(0.05, 0.99) / L
        J_gda = np.eye(d1 + d2) - eta * timescaled_hessian(H, tau, d1)
        assert abs(np.linalg.det(J_gda)) > 0
        # EG map Jacobian away from equilibria, via finite differences
        eta_eg = rng.uniform(0.05, 0.99) * golden / L
        spec_q = QuadraticSpec(A=A, B=B, C=C).to_problem()
        z = rng.standard_normal(d1 + d2)
        h = 1e-6
        J_fd = np.empty((d1 + d2, d1 + d2))
        for i in range(d1 + d2):
            e = np.zeros(d1 + d2)
            e[i] = h
            J_fd[:, i] = (step(spec_q, z + e, "eg_tt", eta=eta_eg, tau=tau)
                          - step(spec_q, z - e, "eg_tt", eta=eta_eg, tau=tau)) / (2 * h)
        assert np.min(np.abs(np.linalg.eigvals(J_fd))) > 1e-8


# --- infinity verdicts ----------------------------------------------------------


def test_infinity_verdict_bilinear():
    H = hessian_of("bilinear")
    v = infinity_eg_verdict(H, 1, 0.4, "continuous")
    assert v.verdict == "stable" and v.tau_star == 1.0
    v = infinity_eg_verdict(H, 1, 0.5, "discrete")
    assert v.verdict == "stable"
    v = infinity_eg_verdict(H, 1, 0.5, "gda")
    assert v.verdict == "unstable"


def test_infinity_verdict_negative_hemicurvature():
    # iota = -1 so s0 = 1 >= 1/L ~ 0.414: unstable for every s < 1/L
    p = builtin_problem("scalar_degenerate", a=-2.0, c=1.0)
    H = p.quadratic.hessian()
    for s in (0.1, 0.25, 0.4):
        assert infinity_eg_verdict(H, 1, s, "continuous").verdict == "unstable"


def test_infinity_verdict_nondegenerate_stable():
    H = QuadraticSpec(A=[[2.0]], B=[[-1.0]], C=[[1.0]]).hessian()
    L = np.linalg.norm(H, 2)
    for frac in (0.1, 0.5, 0.9):
        assert infinity_eg_verdict(H, 1, frac / L, "continuous").verdict == "stable"
        assert infinity_eg_verdict(H, 1, frac / L, "discrete").verdict == "stable"


@pytest.mark.parametrize("label, other", [("stable", "unstable"), ("unstable", "stable")])
def test_terminal_run_of_five_decides_and_four_does_not(monkeypatch, label, other):
    """The terminal run length (stability.K_TAIL) is 5; the literal is deliberate.
    Each row of the table carries the verdict of its own labels."""
    grid = np.arange(1.0, 11.0)
    H = hessian_of("bilinear")
    for labels, want in (([other] * 5 + [label] * 5, (label, 6.0)),
                         ([other] * 6 + [label] * 4, ("inconclusive", None))):
        monkeypatch.setattr(stability, "_labels", lambda margins: np.array(labels))
        (row,) = stability.verdict_table(H, 1, [("continuous", 0.1)], grid)
        assert row.labels == labels and row.tau_grid is grid
        assert (row.verdict, row.tau_star) == want


def test_infinity_verdict_validates_grid():
    with pytest.raises(ValueError, match="^tau_grid must be increasing$"):
        infinity_eg_verdict(hessian_of("bilinear"), 1, 0.4, "continuous",
                            tau_grid=np.array([10.0, 1.0]))
    with pytest.raises(ValueError):
        infinity_eg_verdict(hessian_of("bilinear"), 1, 0.4, "nope")
    for grid in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            infinity_eg_verdict(hessian_of("bilinear"), 1, 0.4, "continuous", tau_grid=grid)


# --- the verdict engine -----------------------------------------------------------


def reference_verdicts(H, d1, mode, step, taus):
    """Per-tau reference: a fresh H_tau, its eigvals, a per-eigenvalue scalar
    margin loop and a per-tau Jacobian with its own eigvals."""
    shift = step if mode == "continuous" else -step / 2.0
    out = []
    for tau in taus:
        Ht = timescaled_hessian(H, float(tau), d1)
        eye = np.eye(len(Ht))
        lams = np.linalg.eigvals(Ht)
        margins = np.zeros(len(lams))
        for i, lam in enumerate(lams):
            u = lam * (1.0 - step * lam) if mode == "discrete" else lam
            if abs(u) >= 1e-300:
                margins[i] = (1.0 / u).real + shift
        if mode == "continuous":
            jac_eigs = np.linalg.eigvals(-np.linalg.solve(eye + step * Ht, Ht))
            jac_margin = float(-np.max(jac_eigs.real))
        else:
            J = eye - step * Ht @ (eye - step * Ht) if mode == "discrete" else eye - step * Ht
            jac_eigs = np.linalg.eigvals(J)
            jac_margin = float(1.0 - np.max(np.abs(jac_eigs)))
        out.append((lams, margins, jac_eigs, jac_margin))
    return out


def reference_label(margins):
    m = float(np.min(margins))
    tol = stability.MARGINAL_TOL
    return "stable" if m > tol else "unstable" if m < -tol else "marginal"


def engine_instances():
    """(H, d1) for the builtins and random quadratics with d1, d2 in 1..6,
    rank(B) = r < d2 and r = d2."""
    out = [(hessian_of(name), builtin_problem(name).d1)
           for name in ("bilinear", "strict_nonminimax_demo")]
    out.append((hessian_of("scalar_degenerate", a=2.0, c=1.0), 1))
    rng = np.random.default_rng(2024)
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            for r in (int(rng.integers(0, d2)), d2):
                A = rank_deficient_symmetric(rng, d1, d1)
                B = rank_deficient_symmetric(rng, d2, r)
                out.append((assemble_hessian((A + A.T) / 2, (B + B.T) / 2,
                                             rng.standard_normal((d1, d2))), d1))
    return out


@pytest.mark.parametrize("mode", list(stability.MODES))
def test_engine_matches_per_tau_reference(mode):
    rng = np.random.default_rng(7)
    taus = stability.DEFAULT_TAU_GRID
    for H, d1 in engine_instances():
        step = float(rng.uniform(0.1, 0.9)) / np.linalg.norm(H, 2)
        got = one_pair(H, d1, mode, step, taus)
        assert len(got.labels) == len(taus)
        for i, (lams, margins, jac_eigs, jac_margin) in enumerate(
                reference_verdicts(H, d1, mode, step, taus)):
            # a stacked eigvals is complex when any tau is; one tau alone may be real
            assert np.array_equal(np.asarray(got.jac_eigs[i], complex),
                                  jac_eigs.astype(complex))
            assert np.array_equal(got.margins[i], margins)
            assert got.jac_margin[i] == jac_margin
            assert got.labels[i] == reference_label(margins)


@pytest.mark.parametrize("grid", ["1e6:1:9", "5:5:1"])
def test_sweep_rows_match_reference(tmp_path, grid):
    """verdicts.csv on a decreasing and a 1-point tau grid, row by row."""
    H = hessian_of("scalar_degenerate", a=-0.3, c=1.0)  # stable and unstable rows
    code = main(["sweep", "--builtin", "scalar_degenerate", "--a", "-0.3", "--c", "1",
                 "--s-grid", "0.05:0.4:2", "--eta-grid", "0.05:0.4:2", "--tau-grid", grid,
                 "--out", str(tmp_path)])
    assert code == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "verdicts.csv").read_text().strip().splitlines()[1:]]
    per_tau = 2 + 2 + 2
    assert len(rows) == per_tau * int(grid.split(":")[2])
    for k, (mode, param, tau, label) in enumerate(rows):
        assert mode == ("continuous", "continuous", "discrete", "discrete",
                        "gda", "gda")[k % per_tau]
        (ref,) = reference_verdicts(H, 1, mode, float(param), [float(tau)])
        assert label == reference_label(ref[1])
    taus = [float(r[2]) for r in rows[::per_tau]]
    assert taus == sorted(taus, reverse=True)


def counting_eigvals(monkeypatch):
    """Replace np.linalg.eigvals by a wrapper; returns the list of arguments."""
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def test_engine_takes_one_stacked_spectrum_per_side(monkeypatch):
    eigvals = np.linalg.eigvals
    calls = counting_eigvals(monkeypatch)
    H, d1 = engine_instances()[-1]
    taus = stability.DEFAULT_TAU_GRID
    step = 0.3 / np.linalg.norm(H, 2)
    for mode, row in stability.MODES.items():
        calls.clear()
        got = one_pair(H, d1, mode, step, taus)
        assert len(calls) == 2
        Ht = timescaled_hessian(H, taus, d1)
        assert np.array_equal(calls[0], Ht)
        # the Jacobian spectrum comes from the built J, not from spec(H_tau)
        assert np.array_equal(calls[1], row.jacobian(Ht, step))
        assert np.array_equal(got.jac_eigs[-1], eigvals(calls[1])[-1])


def test_engine_selftest_trips_on_flipped_jacobian(monkeypatch):
    monkeypatch.setattr(stability, "_mismatch_count", stability.mismatch_count())
    row = stability.MODES["continuous"]
    monkeypatch.setitem(stability.MODES, "continuous", dataclasses.replace(
        row, jacobian=lambda Ht, s: -row.jacobian(Ht, s)))
    before = stability.mismatch_count()
    with pytest.raises(CriterionMismatchError, match=r"continuous verdict \(s=0.4, tau=1.0\)"):
        one_pair(hessian_of("bilinear"), 1, "continuous", 0.4, stability.DEFAULT_TAU_GRID)
    assert stability.mismatch_count() == before + 1


def test_engine_validates_step_once():
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match="^eta must be finite and > 0, got 0.0$"):
        one_pair(H, 1, "gda", 0.0, [1.0])
    # the Lipschitz hypothesis is checked on an empty grid too
    for taus in ([1.0, 10.0], [1.0], np.array([])):
        with pytest.raises(ValueError, match=r"^s must lie in \(0, 1/L\) = \(0, 1\), got 1.5$"):
            one_pair(H, 1, "continuous", 1.5, taus)
    assert one_pair(H, 1, "continuous", 0.5, []).labels == []
    with pytest.raises(ValueError, match="^tau must be finite and >= 1, got 0.5$"):
        one_pair(H, 1, "gda", 0.5, [2.0, 0.5])
    with pytest.raises(ValueError, match="unknown mode"):
        one_pair(H, 1, "nope", 0.5, [1.0])


def mixed_pairs(H):
    L = np.linalg.norm(H, 2)
    return [("continuous", 0.3 / L), ("gda", 0.4 / L), ("discrete", 0.5 / L),
            ("continuous", 0.8 / L), ("gda", 0.4 / L), ("discrete", 0.1 / L)]


def test_verdict_table_equals_separate_verdicts():
    taus = stability.DEFAULT_TAU_GRID
    for H, d1 in engine_instances()[::5]:
        pairs = mixed_pairs(H)
        table = stability.verdict_table(H, d1, pairs, taus)
        assert len(table) == len(pairs)
        for (mode, step), got in zip(pairs, table):
            want = one_pair(H, d1, mode, step, taus)
            assert got.labels == want.labels and len(got.labels) == len(taus)
            for field in ("margins", "jac_eigs", "jac_margin"):
                assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("taus", [stability.DEFAULT_TAU_GRID, [5.0], []])
def test_verdicts_layout(taus):
    """One row per tau in each array field; labels is a list of str."""
    H, d1 = engine_instances()[-1]
    T, n = len(taus), len(H)
    for v in stability.verdict_table(H, d1, mixed_pairs(H), taus):
        assert type(v.labels) is list and len(v.labels) == T
        assert all(type(label) is str for label in v.labels)
        assert set(v.labels) <= {"stable", "unstable", "marginal"}
        assert v.margins.shape == v.jac_eigs.shape == (T, n)
        assert v.jac_margin.shape == (T,)


def test_verdict_table_takes_one_spectrum_per_pair_and_one_norm(monkeypatch):
    H, d1 = engine_instances()[-1]
    taus = stability.DEFAULT_TAU_GRID
    pairs = mixed_pairs(H)
    calls = counting_eigvals(monkeypatch)
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norms.append(a) or norm(*a, **k))
    for k in range(1, len(pairs) + 1):
        calls.clear()
        norms.clear()
        stability.verdict_table(H, d1, pairs[:k], taus)
        assert len(calls) == 1 + k
        assert np.array_equal(calls[0], timescaled_hessian(H, taus, d1))
        assert len(norms) == 1
    # gda alone needs no Lipschitz check
    norms.clear()
    stability.verdict_table(H, d1, [("gda", 0.1), ("gda", 0.2)], taus)
    assert norms == []
    calls.clear()
    norms.clear()
    empty = stability.verdict_table(H, d1, pairs, [])
    assert [v.labels for v in empty] == [[]] * len(pairs)
    assert calls == [] and len(norms) == 1  # the Lipschitz check needs ||H|| on any grid


def test_verdict_table_stops_at_flipped_second_pair(monkeypatch):
    monkeypatch.setattr(stability, "_mismatch_count", stability.mismatch_count())
    H, taus = hessian_of("bilinear"), stability.DEFAULT_TAU_GRID
    pairs = [("gda", 0.5), ("continuous", 0.4), ("discrete", 0.5)]
    row = stability.MODES["continuous"]
    monkeypatch.setitem(stability.MODES, "continuous", dataclasses.replace(
        row, jacobian=lambda Ht, s: -row.jacobian(Ht, s)))
    # the sequential per-mode calls: the first passes, the second trips
    before = stability.mismatch_count()
    one_pair(H, 1, *pairs[0], taus)
    with pytest.raises(CriterionMismatchError) as sequential:
        one_pair(H, 1, *pairs[1], taus)
    assert stability.mismatch_count() == before + 1
    assert str(sequential.value) == ("continuous verdict (s=0.4, tau=1.0): region "
                                     "criterion says stable, Jacobian criterion says unstable")
    built = []
    discrete = stability.MODES["discrete"]
    monkeypatch.setitem(stability.MODES, "discrete", dataclasses.replace(
        discrete, jacobian=lambda Ht, eta: built.append(eta) or discrete.jacobian(Ht, eta)))
    calls = counting_eigvals(monkeypatch)
    with pytest.raises(CriterionMismatchError) as table:
        stability.verdict_table(H, 1, pairs, taus)
    assert type(table.value) is type(sequential.value)
    assert str(table.value) == str(sequential.value)
    assert stability.mismatch_count() == before + 2
    assert len(calls) == 3 and built == []


def test_verdict_table_validates_pairs_in_order():
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match="unknown mode"):
        stability.verdict_table(H, 1, [("gda", 0.5), ("nope", 0.5)], [1.0])
    # as in sequential one-pair tables, the first pair's step is checked
    # before the grid is, and the grid before the second pair's step
    with pytest.raises(ValueError, match=r"^s must lie in \(0, 1/L\)"):
        stability.verdict_table(H, 1, [("continuous", 1.5), ("gda", 0.5)], [2.0, 0.5])
    with pytest.raises(ValueError, match="^tau must be finite and >= 1, got 0.5$"):
        stability.verdict_table(H, 1, [("gda", 0.5), ("continuous", 1.5)], [2.0, 0.5])
    with pytest.raises(ValueError, match=r"^s must lie in \(0, 1/L\)"):
        stability.verdict_table(H, 1, [("gda", 0.5), ("continuous", 1.5)], [2.0, 3.0])


@pytest.mark.parametrize("d1", [1.5, True, np.True_, 0, 3],  # H is 2 x 2
                         ids=["fraction", "True", "np.True_", "zero", "n+1"])
def test_verdict_table_rejects_bad_d1(d1):
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match=r"^d1 must be an integer with 0 < d1 <= 2, got "):
        stability.verdict_table(H, d1, [("gda", 0.5)], [1.0])
    with pytest.raises(ValueError, match=r"^d1 must be an integer"):  # before the empty grid
        stability.verdict_table(H, d1, [("gda", 0.5)], [])


@pytest.mark.parametrize("taus", [np.ones((2, 2)), np.ones((1, 3)), np.ones((0, 2)), 10.0],
                         ids=["2x2", "1x3", "0x2", "scalar"])
def test_verdict_table_refuses_a_tau_grid_that_is_not_1d(taus):
    H = hessian_of("strict_nonminimax_demo")
    with pytest.raises(ValueError, match=r"^taus must be a 1-d grid, got shape "):
        stability.verdict_table(H, 2, [("gda", 0.1)], taus)


@pytest.mark.parametrize("step", [np.inf, np.nan, -np.inf])
def test_engine_rejects_non_finite_steps(step):
    """A mode bound by the Lipschitz hypothesis reads dynamics.check_step's
    message, and the gda mode its RANGES row."""
    H = hessian_of("strict_nonminimax_demo")
    for mode, m in stability.MODES.items():
        reason = (r"must lie in \(0, 1/L\) = \(0, 0.381966\)" if m.lipschitz
                  else "must be finite and > 0")
        with pytest.raises(ValueError, match=f"^{m.step} {reason}, got {step}$"):
            one_pair(H, 2, mode, step, [1.0])


@pytest.mark.parametrize("taus", [[np.nan], [1.0, np.inf], [np.inf, np.inf], [2.0, np.nan]])
def test_engine_rejects_non_finite_taus(taus):
    H = hessian_of("strict_nonminimax_demo")
    first_bad = next(t for t in taus if not 1.0 <= t < np.inf)
    reason = f"^tau must be finite and >= 1, got {first_bad}$"
    with pytest.raises(ValueError, match=reason):
        timescaled_hessian(H, np.array(taus), 2)
    for mode in stability.MODES:
        with pytest.raises(ValueError, match=reason):
            one_pair(H, 2, mode, 0.1, taus)


@pytest.mark.parametrize("grid", [[np.nan], [1.0, np.inf, np.inf], [1.0, 2.0, np.inf]])
def test_infinity_verdict_rejects_non_finite_grid(grid):
    with pytest.raises(ValueError, match=f"^tau must be finite and >= 1, got {grid[-1]}$"):
        infinity_eg_verdict(hessian_of("bilinear"), 1, 0.4, "continuous", tau_grid=grid)


# --- characterize_equilibrium -----------------------------------------------------


def test_characterize_bilinear():
    p = builtin_problem("bilinear")
    rep = characterize_equilibrium(p, np.zeros(2), s=0.4, eta=0.5)
    assert rep.second_order.B_nsd and rep.second_order.Sres_psd
    assert rep.strict_non_minimax is False
    assert rep.s0 == pytest.approx(0.0, abs=1e-12)
    assert rep.predictions == {"continuous": "stable", "discrete": "stable",
                               "gda": "unstable"}
    assert rep.observed["continuous"].verdict == "stable"
    assert rep.observed["discrete"].verdict == "stable"
    assert rep.observed["gda"].verdict == "unstable"
    assert rep.mismatches == []
    assert rep.thm_infty_continuous and rep.thm_infty_discrete
    assert rep.stable_for_all_steps is True  # u' S u = 0 with vacuous S_res


def test_characterize_scalar_degenerate():
    p = builtin_problem("scalar_degenerate", a=2.0, c=1.0)
    rep = characterize_equilibrium(p, np.zeros(2))
    assert rep.s0 == pytest.approx(-1.0, abs=1e-3)
    assert rep.u_S_u == [pytest.approx(2.0)]
    for mode in ("continuous", "discrete", "gda"):
        assert rep.predictions[mode] == "stable"
        assert rep.observed[mode].verdict == "stable"
    assert rep.mismatches == []


def test_characterize_strict_nonminimax_demo():
    p = builtin_problem("strict_nonminimax_demo")
    rep = characterize_equilibrium(p, np.zeros(4))
    assert rep.strict_non_minimax is True
    assert rep.spec_Sres == [pytest.approx(-1.0)]
    for mode in ("continuous", "discrete", "gda"):
        assert rep.predictions[mode] == "unstable"
        assert rep.observed[mode].verdict == "unstable"
    assert rep.mismatches == []
    assert not rep.thm_infty_continuous and not rep.thm_infty_discrete
    assert rep.stable_for_all_steps is False


def test_characterize_rejects_nonstationary():
    p = builtin_problem("bilinear")
    with pytest.raises(ValueError, match="not stationary"):
        characterize_equilibrium(p, np.array([1.0, 1.0]))


NAN_GRAD = MinimaxProblem(d1=1, d2=1, value=lambda z: 0.0, grad=lambda z: np.full(2, np.nan),
                          lipschitz_bound=1.0)


@pytest.mark.parametrize("problem, point, reason", [
    ("bilinear", [np.nan, 0.0], r"^z_star must be finite, got \[nan, 0\.0\]$"),
    ("bilinear", [0.0, np.inf], r"^z_star must be finite, got \[0\.0, inf\]$"),
    ("bilinear", [-np.inf, np.nan], r"^z_star must be finite, got \[-inf, nan\]$"),
    (NAN_GRAD, [0.0, 0.0], r"^z is not stationary: \|\|F\(z\)\|\| = nan > 1\.0e-08$"),
])
def test_library_entry_points_reject_non_finite_points(problem, point, reason):
    """A NaN or inf point, or a NaN gradient from the user's grad, fails by name."""
    p = builtin_problem(problem) if isinstance(problem, str) else problem
    with pytest.raises(ValueError, match=reason):
        characterize_equilibrium(p, point)
    if isinstance(problem, str):
        with pytest.raises(ValueError, match=reason.replace("z_star", "z0")):
            find_stationary(p, point)


def test_characterize_takes_one_hemicurvature_per_curve(monkeypatch):
    calls, hemicurvature = [], spectral.hemicurvature
    for module in (spectral, stability):  # s_zero calls the one in spectral
        monkeypatch.setattr(module, "hemicurvature",
                            lambda curves, j: calls.append(j) or hemicurvature(curves, j))
    repeated = QuadraticSpec(A=np.diag([1.0, 2.0]), B=np.zeros((2, 2)), C=np.eye(2))
    for p in [builtin_problem(name) for name in ("bilinear", "strict_nonminimax_demo",
                                                 "scalar_degenerate")] + [repeated.to_problem()]:
        rep = characterize_equilibrium(p, np.zeros(p.dim))
        assert calls == rep.curves.sqrt_indices and calls
        assert rep.s0 == spectral.s_zero(rep.curves)
        calls.clear()
    # one iota per pair, the eigenvalues of U' S U / (2 sigma^2) = diag(1, 2) / 2, not their mean
    assert rep.sigma == [1.0, 1.0]
    assert_allclose(sorted(rep.iota), [0.5, 1.0], rtol=1e-9)


def band_problem(gap):
    """A = [[1, .3], [.3, -.5]], B = 0, C = diag(1, 1 + gap): sigma = (1 + gap, 1), whose
    u' S u / (2 sigma^2) are -0.25 and 0.5."""
    return QuadraticSpec(A=[[1.0, 0.3], [0.3, -0.5]], B=np.zeros((2, 2)),
                         C=np.diag([1.0, 1.0 + gap])).to_problem()


def test_iota_is_one_per_conjugate_pair_in_sigma_order():
    """iota[k] is the hemicurvature of the Im > 0 curve of sigma_k's pair, sigma
    descending; distinct_sigma and u_S_u read the repeated-sigma rule (two sigma
    within 1e-6 of max sigma are one repeated value).  A gap of 5e-6 is distinct;
    at 5e-7 and 0 the pairs follow the eigenvalues of A / 2, -0.2789 and 0.5289,
    and no mean over a repeated sigma's curves hides the negative one."""
    rep = characterize_equilibrium(band_problem(5e-6), np.zeros(4))
    curves = rep.curves
    assert rep.distinct_sigma and rep.sigma[0] > rep.sigma[1]
    assert_allclose(np.array(rep.u_S_u) / (2 * np.array(rep.sigma) ** 2), [-0.25, 0.5],
                    rtol=1e-4)
    finest = curves.lam[:, -1]
    for k, sg in enumerate(rep.sigma):
        own = [j for j in curves.sqrt_indices
               if abs(abs(finest[j]) / np.sqrt(curves.eps[-1]) - sg) < 2e-6]
        assert len(own) == 2 and finest[own[0]] == np.conj(finest[own[1]])
        upper = max(own, key=lambda j: finest[j].imag)
        assert rep.iota[k] == spectral.hemicurvature(curves, upper)
    assert_allclose(rep.iota, [-0.2749, 0.5249], atol=1e-4)
    for gap in (5e-7, 0.0):
        rep = characterize_equilibrium(band_problem(gap), np.zeros(4))
        assert not rep.distinct_sigma and rep.u_S_u is None
        assert_allclose(sorted(rep.iota), [-0.2789, 0.5289], atol=1e-4)
        assert rep.s0 == -min(rep.iota)


def test_prediction_is_indeterminate_inside_the_guard_band():
    """_predict's band is 1e-9 relative to max(1, |rhs|); the literals are deliberate."""
    for rhs in (1.0, 1e3):
        guard = 1e-9 * rhs
        assert stability._predict(rhs, rhs) == "indeterminate"
        assert stability._predict(rhs + 0.9 * guard, rhs) == "indeterminate"
        assert stability._predict(rhs + 1.1 * guard, rhs) == "stable"
        assert stability._predict(rhs - 1.1 * guard, rhs) == "unstable"
    # gda at eta = 2 iota: the one curve pair's hemicurvature is eta/2
    p = builtin_problem("scalar_degenerate", a=0.2, c=1.0)
    eta = -2.0 * characterize_equilibrium(p, np.zeros(2)).s0
    assert eta == pytest.approx(0.2, rel=1e-12)
    for factor, want in ((1.0, "indeterminate"), (1 - 1e-6, "stable"), (1 + 1e-6, "unstable")):
        rep = characterize_equilibrium(p, np.zeros(2), eta=eta * factor)
        assert rep.predictions["gda"] == want


def test_characterize_makes_one_verdict_table(monkeypatch):
    p = builtin_problem("strict_nonminimax_demo")
    H = p.quadratic.hessian()
    taus = np.geomspace(1.0, 1e6, 17)  # 17 rows: no eps-grid stack has them
    want = {mode: infinity_eg_verdict(H, 2, step, mode, tau_grid=taus)
            for mode, step in (("continuous", 0.5 / p.lipschitz_bound),
                               ("discrete", 0.5 / p.lipschitz_bound),
                               ("gda", 0.5 / p.lipschitz_bound))}
    calls = counting_eigvals(monkeypatch)
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, *a, **k: norms.append(
        (np.array(x), a, k)) or norm(x, *a, **k))
    rep = characterize_equilibrium(p, np.zeros(4), tau_grid=taus)
    on_grid = [a for a in calls if a.shape[:1] == (len(taus),)]
    assert len(on_grid) == 4  # spec(H_tau) once, one Jacobian spectrum per mode
    assert np.array_equal(on_grid[0], timescaled_hessian(H, taus, 2))
    assert sum(1 for x, a, k in norms
               if np.array_equal(x, H) and (a == (2,) or k.get("ord") == 2)) == 1
    for mode, v in rep.observed.items():
        assert (v.mode, v.param, v.verdict, v.tau_star, v.labels) == \
            (want[mode].mode, want[mode].param, want[mode].verdict,
             want[mode].tau_star, want[mode].labels)
        assert np.array_equal(v.tau_grid, taus)


def fd_grad(z):
    """Gradient of a non-quadratic objective with stationary origin and B = 0 there."""
    x1, x2, y1, y2 = z
    return np.array([x1 + x1**3 / 3 + y1, -x2 + y2 / 2 + x2**2, x1 + x2 / 2 + x1**2,
                     0.3 * x1 - x2])


def repeated_sigma_probe(seed):
    """A random quadratic with B = 0 and sigma = (1.5, 1.5)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    return QuadraticSpec(A=(M + M.T) / 2, B=np.zeros((2, 2)), C=1.5 * Q[:, :2]).to_problem()


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_repeated_sigma_iota_is_one_per_eigenvalue_of_the_cluster_block(seed):
    """A repeated sigma splits into one pair per eigenvalue of
    U_sigma' S U_sigma / (2 sigma^2) (Kato, Perturbation Theory for Linear
    Operators, II 2); report.iota holds those values, not their mean."""
    p = repeated_sigma_probe(seed)
    rep = characterize_equilibrium(p, np.zeros(p.dim))
    rsc = rep.second_order.rsc
    block = np.linalg.eigvalsh(rsc.U_sigma.T @ rsc.S @ rsc.U_sigma) / (2 * 1.5**2)
    assert rep.distinct_sigma is False and rep.stable_for_all_steps is None
    assert_allclose(sorted(rep.iota), block, atol=1e-9)
    assert rep.s0 == -min(rep.iota)


REPORT_PROBLEMS = {
    "strict_nonminimax_demo": lambda: builtin_problem("strict_nonminimax_demo"),
    "distinct_sigma": lambda: QuadraticSpec(
        A=[[1.0, 0.2, 0.0], [0.2, -0.5, 0.3], [0.0, 0.3, 2.0]], B=np.zeros((2, 2)),
        C=[[1.0, 0.5], [0.0, 2.0], [0.3, -0.4]]).to_problem(),
    "repeated_sigma_seed3": lambda: repeated_sigma_probe(3),
    "finite_difference": lambda: MinimaxProblem(d1=2, d2=2, value=lambda z: 0.0, grad=fd_grad,
                                                lipschitz_bound=3.0),
}


@pytest.mark.parametrize("name", REPORT_PROBLEMS)
def test_characterize_report_is_pinned(name):
    """The JSON report, bit for bit, as first recorded in tests/pinned_reports.json."""
    with open(os.path.join(os.path.dirname(__file__), "pinned_reports.json")) as fh:
        want = json.load(fh)[name]
    problem = REPORT_PROBLEMS[name]()
    got = characterize_equilibrium(problem, np.zeros(problem.dim)).to_json_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def zero_B_grad(z):
    """B = 0 at the origin, where finite differences return it as about -1e-11."""
    x1, x2, y = z
    return np.array([x1 + x1**3 / 3 + y, -x2 + y / 2, x1 + x2 / 2 - y**3 / 3])


def test_rank_cut_ignores_finite_difference_noise_in_a_zero_B():
    problem = MinimaxProblem(d1=2, d2=1, value=lambda z: 0.0, grad=zero_B_grad,
                             lipschitz_bound=2.0)
    B = hessian_blocks_at(problem, np.zeros(3))[1]
    assert 0.0 < abs(B[0, 0]) < 1e-9  # the noise the cut must absorb
    rep = characterize_equilibrium(problem, np.zeros(3))
    assert rep.r == 0
    assert rep.curves.counts() == (2, 1, 0)
    assert rep.predictions == {mode: v.verdict for mode, v in rep.observed.items()}
    assert rep.mismatches == []


@pytest.mark.parametrize("name", ["strict_nonminimax_demo", "distinct_sigma"])
def test_characterize_decomposes_blocks_once(monkeypatch, name):
    problem = REPORT_PROBLEMS[name]()
    blocks = spectral.canonicalize(*hessian_blocks_at(problem, np.zeros(problem.dim)))
    C2, S_res = blocks.C2, spectral.restricted_schur(blocks).S_res
    calls = {}

    def counting(fn, key, counted=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            if counted(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for fname in ("canonicalize", "generalized_schur", "restricted_schur"):
        wrapper = counting(getattr(spectral, fname), fname)
        for module in (spectral, stability):
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, wrapper)
    monkeypatch.setattr(np.linalg, "svd", counting(
        np.linalg.svd, "svd(C2)", lambda a, *args, **kw: np.array_equal(a, C2)))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(
        np.linalg.eigvalsh, "eigvalsh(S_res)", lambda a, *args, **kw: np.array_equal(a, S_res)))
    characterize_equilibrium(problem, np.zeros(problem.dim))
    assert calls == {"canonicalize": 1, "generalized_schur": 1, "restricted_schur": 1,
                     "svd(C2)": 1, "eigvalsh(S_res)": 1}


def same_record(a, b):
    """Two Verdicts rows with equal values in every field, arrays bit for bit."""
    return type(a) is type(b) is stability.Verdicts and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)))


@pytest.mark.parametrize("seed", range(3))
def test_observed_entries_are_the_verdict_table_rows(seed):
    """Each EquilibriumReport.observed entry is the verdict_table row of its
    (mode, step) pair on the same grid, on the builtins and random saddles."""
    rng = np.random.default_rng(seed)
    problems = [QuadraticSpec(*random_saddle_blocks(rng, *shape)).to_problem()
                for shape in ((2, 1, 0), (2, 2, 1), (3, 2, 1), (3, 3, 2), (2, 2, 2))]
    if seed == 0:
        problems += [builtin_problem("bilinear"), builtin_problem("strict_nonminimax_demo"),
                     builtin_problem("scalar_degenerate", a=2.0, c=1.0)]
    for p in problems:
        for taus in (None, np.geomspace(1.0, 1e6, 17)):
            rep = characterize_equilibrium(p, np.zeros(p.dim), tau_grid=taus)
            pairs = [(mode, rep.s_eval if m.step == "s" else rep.eta_eval)
                     for mode, m in stability.MODES.items()]
            grid = stability.DEFAULT_TAU_GRID if taus is None else taus
            table = stability.verdict_table(p.quadratic.hessian(), p.d1, pairs, grid)
            assert list(rep.observed) == list(stability.MODES)
            assert all(same_record(got, want) for got, want in zip(rep.observed.values(), table))


SCALE_PROBE = (np.array([[1.0, 0.3], [0.3, -0.5]]), np.zeros((2, 2)), np.diag([1.0, 1.5]))


@pytest.mark.parametrize("c", [10.0**k for k in range(-8, 9, 2)])
def test_repeated_sigma_rule_does_not_depend_on_units(c):
    """Scaling H by c leaves distinct_sigma and stable_for_all_steps alone and
    scales u_S_u / sigma^2 by 1/c; no per-sigma iota reads nan (the two
    sigma, 1 and 1.5, once merged below c = 1e-5)."""
    ref = characterize_equilibrium(QuadraticSpec(*SCALE_PROBE).to_problem(), np.zeros(4))
    rep = characterize_equilibrium(QuadraticSpec(*(c * X for X in SCALE_PROBE)).to_problem(),
                                   np.zeros(4))
    assert (rep.distinct_sigma, rep.stable_for_all_steps) == (True, False)
    assert (ref.distinct_sigma, ref.stable_for_all_steps) == (True, False)
    assert_allclose([c * u / s**2 for u, s in zip(rep.u_S_u, rep.sigma)],
                    [u / s**2 for u, s in zip(ref.u_S_u, ref.sigma)], rtol=1e-9)
    assert not np.isnan(rep.iota).any() and len(rep.iota) == 2


@pytest.mark.xfail(strict=True, reason="the hemicurvature cutoff is absolute: at c = 1e-3 iota "
                   "reads -inf and +inf, s0 = inf, and continuous and discrete are predicted "
                   "unstable while observed stable (ROADMAP items 4 and 5)")
def test_small_scale_probe_has_no_mismatch():
    """The scale probe at c = 1e-3; at c = 1e-2 and 1 it has no mismatch."""
    rep = characterize_equilibrium(QuadraticSpec(*(1e-3 * X for X in SCALE_PROBE)).to_problem(),
                                   np.zeros(4))
    assert rep.mismatches == []


def test_repeated_sigma_reports_opposite_infinities_one_per_pair():
    """A repeated sigma whose pairs have hemicurvatures +inf and -inf reports
    both, one per pair, and s0 = +inf; nothing is averaged into a nan."""
    A, C = np.diag([1.0, -0.5]), np.eye(2)
    for c in (1e-4, 1e-3):
        rep = characterize_equilibrium(QuadraticSpec(c * A, np.zeros((2, 2)), c * C).to_problem(),
                                       np.zeros(4))
        assert rep.distinct_sigma is False and rep.sigma == [c, c]
        assert sorted(rep.iota) == [-np.inf, np.inf] and rep.s0 == np.inf
    p = QuadraticSpec(1e-4 * np.eye(2), np.zeros((2, 2)), 1e-4 * C).to_problem()
    rep = characterize_equilibrium(p, np.zeros(4))
    assert rep.distinct_sigma is False and rep.iota == [np.inf, np.inf]


def test_default_grids_cannot_be_changed_through_a_report():
    p = builtin_problem("bilinear")
    rep = characterize_equilibrium(p, np.zeros(2))
    with pytest.raises(ValueError, match="read-only"):
        rep.curves.eps *= 10
    with pytest.raises(ValueError, match="read-only"):
        rep.observed["gda"].tau_grid[0] = 5.0
    again = characterize_equilibrium(p, np.zeros(2))
    assert np.array_equal(again.curves.eps, np.geomspace(1e-1, 1e-9, 40))
    assert np.array_equal(again.observed["gda"].tau_grid, np.geomspace(1.0, 1e8, 33))
    assert spectral.DEFAULT_EPS_GRID[0] == 0.1 and stability.DEFAULT_TAU_GRID[0] == 1.0


def test_characterize_json_is_serializable():
    import json

    p = QuadraticSpec(A=[[2.0]], B=[[-1.0]], C=[[1.0]]).to_problem()
    rep = characterize_equilibrium(p, np.zeros(2))
    payload = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert '"s0": "-inf"' in payload


def test_no_mismatch_errors_raised_so_far():
    assert stability.mismatch_count() == 0
