import dataclasses

import numpy as np
import pytest
from conftest import (
    assemble_hessian,
    random_loose_blocks,
    random_margin_separated_instance,
    rank_deficient_symmetric,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minimaxdyn import spectral, stability
from minimaxdyn.cli import main
from minimaxdyn.dynamics import step_eg_tt
from minimaxdyn.problems import builtin_problem
from minimaxdyn.spectral import timescaled_hessian
from minimaxdyn.stability import (
    ClassifyConfig,
    CriterionMismatchError,
    characterize_equilibrium,
    disk_gap,
    eg_jacobian_continuous,
    eg_jacobian_discrete,
    in_disk,
    in_peanut,
    infinity_eg_verdict,
    mobius_map,
    peanut_gap,
)


def hessian_of(name, **params):
    return builtin_problem(name, **params).quadratic.hessian()


def verdict(mode, H, step, tau, d1):
    """The verdict of mode for H at one tau."""
    return stability.verdicts(H, d1, mode, step, [tau])[0]


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
        J_fd[:, i] = (step_eg_tt(p, e, eta, tau) - step_eg_tt(p, -e, eta, tau)) / (2 * h)
    assert np.max(np.abs(J - J_fd)) <= 1e-5


# --- verdicts ---------------------------------------------------------------------


def test_stability_continuous_examples():
    v = verdict("continuous", hessian_of("bilinear"), 0.4, 100.0, 1)
    assert v.stable == "stable"
    # B = +1 sends an order-one eigenvalue to -1, inside every disk with s < 1/L
    H = assemble_hessian([[2.0]], [[1.0]], [[1.0]])
    v = verdict("continuous", H, 0.3, 1e6, 1)
    assert v.stable == "unstable"
    v = verdict("continuous", np.array([[1.0]]), 0.5, 1.0, 1)
    assert v.stable == "stable"


def test_stability_continuous_rejects_large_s():
    with pytest.raises(ValueError):
        verdict("continuous", hessian_of("bilinear"), 1.5, 1.0, 1)


def test_stability_discrete_examples():
    v = verdict("discrete", hessian_of("bilinear"), 0.5, 4.0, 1)
    assert v.stable == "stable"
    H = hessian_of("scalar_degenerate", a=-2.0, c=1.0)
    v = verdict("discrete", H, 0.3, 1e6, 1)
    assert v.stable == "unstable"
    # negative real eigenvalue is outside the peanut for any eta
    v = verdict("discrete", np.array([[-0.1]]), 0.5, 1.0, 1)
    assert v.stable == "unstable"


def test_gda_stability_examples():
    for tau in (1.0, 10.0, 100.0):
        v = verdict("gda", hessian_of("bilinear"), 0.5, tau, 1)
        assert v.stable == "unstable"
    assert verdict("gda", np.array([[1.0]]), 0.5, 1.0, 1).stable == "stable"
    assert verdict("gda", np.array([[-1.0]]), 0.5, 1.0, 1).stable == "unstable"


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
        spec_q = builtin_problem(
            "nondegenerate_quadratic", A=A, B=B, C=C)
        z = rng.standard_normal(d1 + d2)
        h = 1e-6
        J_fd = np.empty((d1 + d2, d1 + d2))
        for i in range(d1 + d2):
            e = np.zeros(d1 + d2)
            e[i] = h
            J_fd[:, i] = (step_eg_tt(spec_q, z + e, eta_eg, tau)
                          - step_eg_tt(spec_q, z - e, eta_eg, tau)) / (2 * h)
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
    H = hessian_of("nondegenerate_quadratic", A=[[2.0]], B=[[-1.0]], C=[[1.0]])
    L = np.linalg.norm(H, 2)
    for frac in (0.1, 0.5, 0.9):
        assert infinity_eg_verdict(H, 1, frac / L, "continuous").verdict == "stable"
        assert infinity_eg_verdict(H, 1, frac / L, "discrete").verdict == "stable"


def test_infinity_verdict_validates_grid():
    with pytest.raises(ValueError):
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
        got = stability.verdicts(H, d1, mode, step, taus)
        assert len(got) == len(taus)
        for v, tau, (lams, margins, jac_eigs, jac_margin) in zip(
                got, taus, reference_verdicts(H, d1, mode, step, taus)):
            assert v.method == stability.MODES[mode].method
            assert v.params == {stability.MODES[mode].step: step, "tau": float(tau)}
            # a stacked eigvals is complex when any tau is; one tau alone may be real
            assert np.array_equal(np.asarray(v.h_eigs, complex), lams.astype(complex))
            assert np.array_equal(np.asarray(v.jac_eigs, complex), jac_eigs.astype(complex))
            assert np.array_equal(v.margins, margins)
            assert v.jac_margin == jac_margin
            assert v.stable == reference_label(margins)


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
        got = stability.verdicts(H, d1, mode, step, taus)
        assert len(calls) == 2
        Ht = timescaled_hessian(H, taus, d1)
        assert np.array_equal(calls[0], Ht)
        # the Jacobian spectrum comes from the built J, not from spec(H_tau)
        assert np.array_equal(calls[1], row.jacobian(Ht, step))
        assert np.array_equal(got[-1].jac_eigs, eigvals(calls[1])[-1])


def test_engine_selftest_trips_on_flipped_jacobian(monkeypatch):
    monkeypatch.setattr(stability, "_mismatch_count", stability.mismatch_count())
    row = stability.MODES["continuous"]
    monkeypatch.setitem(stability.MODES, "continuous", dataclasses.replace(
        row, jacobian=lambda Ht, s: -row.jacobian(Ht, s)))
    before = stability.mismatch_count()
    with pytest.raises(CriterionMismatchError, match=r"continuous verdict \(s=0.4, tau=1.0\)"):
        stability.verdicts(hessian_of("bilinear"), 1, "continuous", 0.4,
                           stability.DEFAULT_TAU_GRID)
    assert stability.mismatch_count() == before + 1


def test_engine_validates_step_once():
    H = hessian_of("bilinear")
    with pytest.raises(ValueError, match="eta must be positive"):
        stability.verdicts(H, 1, "gda", 0.0, [1.0])
    with pytest.raises(ValueError, match=r"requires s < 1/L \(s \* \|\|H\|\| < 1\)"):
        stability.verdicts(H, 1, "continuous", 1.5, [1.0, 10.0])
    assert stability.verdicts(H, 1, "continuous", 1.5, []) == []
    with pytest.raises(ValueError, match="tau must be >= 1"):
        stability.verdicts(H, 1, "gda", 0.5, [2.0, 0.5])
    with pytest.raises(ValueError, match="unknown mode"):
        stability.verdicts(H, 1, "nope", 0.5, [1.0])


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
            want = stability.verdicts(H, d1, mode, step, taus)
            assert len(got) == len(want) == len(taus)
            for v, w in zip(got, want):
                assert np.array_equal(v.h_eigs, w.h_eigs)
                assert np.array_equal(v.margins, w.margins)
                assert np.array_equal(v.jac_eigs, w.jac_eigs)
                assert (v.method, v.stable, v.jac_margin, v.params, v.criterion) == \
                    (w.method, w.stable, w.jac_margin, w.params, w.criterion)
                assert type(v.stable) is str and type(v.jac_margin) is float
                assert all(type(x) is float for x in v.params.values())


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
    assert stability.verdict_table(H, d1, pairs, []) == [[]] * len(pairs)


def test_verdict_table_stops_at_flipped_second_pair(monkeypatch):
    monkeypatch.setattr(stability, "_mismatch_count", stability.mismatch_count())
    H, taus = hessian_of("bilinear"), stability.DEFAULT_TAU_GRID
    pairs = [("gda", 0.5), ("continuous", 0.4), ("discrete", 0.5)]
    row = stability.MODES["continuous"]
    monkeypatch.setitem(stability.MODES, "continuous", dataclasses.replace(
        row, jacobian=lambda Ht, s: -row.jacobian(Ht, s)))
    # the sequential per-mode calls: the first passes, the second trips
    before = stability.mismatch_count()
    stability.verdicts(H, 1, *pairs[0], taus)
    with pytest.raises(CriterionMismatchError) as sequential:
        stability.verdicts(H, 1, *pairs[1], taus)
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
    # as in sequential verdicts() calls, the first pair's step is checked
    # before the grid is, and the grid before the second pair's step
    with pytest.raises(ValueError, match=r"requires s < 1/L"):
        stability.verdict_table(H, 1, [("continuous", 1.5), ("gda", 0.5)], [2.0, 0.5])
    with pytest.raises(ValueError, match="tau must be >= 1"):
        stability.verdict_table(H, 1, [("gda", 0.5), ("continuous", 1.5)], [2.0, 0.5])
    with pytest.raises(ValueError, match=r"requires s < 1/L"):
        stability.verdict_table(H, 1, [("gda", 0.5), ("continuous", 1.5)], [2.0, 3.0])


@pytest.mark.parametrize("step", [np.inf, np.nan, -np.inf])
def test_engine_rejects_non_finite_steps(step):
    H = hessian_of("strict_nonminimax_demo")
    for mode, m in stability.MODES.items():
        reason = f"{m.step} must be positive and finite"
        with pytest.raises(ValueError, match=reason):
            stability.verdicts(H, 2, mode, step, [1.0])


@pytest.mark.parametrize("taus", [[np.nan], [1.0, np.inf], [np.inf, np.inf], [2.0, np.nan]])
def test_engine_rejects_non_finite_taus(taus):
    H = hessian_of("strict_nonminimax_demo")
    with pytest.raises(ValueError, match="tau must be finite"):
        timescaled_hessian(H, np.array(taus), 2)
    for mode in stability.MODES:
        with pytest.raises(ValueError, match="tau must be finite"):
            stability.verdicts(H, 2, mode, 0.1, taus)


@pytest.mark.parametrize("grid", [[np.nan], [1.0, np.inf, np.inf], [1.0, 2.0, np.inf]])
def test_infinity_verdict_rejects_non_finite_grid(grid):
    with pytest.raises(ValueError, match="tau_grid must be finite"):
        infinity_eg_verdict(hessian_of("bilinear"), 1, 0.4, "continuous", tau_grid=grid)


# --- characterize_equilibrium -----------------------------------------------------


def test_characterize_bilinear():
    p = builtin_problem("bilinear")
    rep = characterize_equilibrium(p, np.zeros(2), ClassifyConfig(s=0.4, eta=0.5))
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


def test_characterize_makes_one_verdict_table(monkeypatch):
    p = builtin_problem("strict_nonminimax_demo")
    H = p.quadratic.hessian()
    taus = np.geomspace(1.0, 1e6, 17)  # 17 rows: no eps-grid stack has them
    config = ClassifyConfig(tau_grid=taus)
    want = {mode: infinity_eg_verdict(H, 2, step, mode, tau_grid=taus)
            for mode, step in (("continuous", 0.5 / p.lipschitz_bound),
                               ("discrete", 0.5 / p.lipschitz_bound),
                               ("gda", 0.5 / p.lipschitz_bound))}
    calls = counting_eigvals(monkeypatch)
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, *a, **k: norms.append(
        (np.array(x), a, k)) or norm(x, *a, **k))
    rep = characterize_equilibrium(p, np.zeros(4), config)
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

    p = builtin_problem("nondegenerate_quadratic", A=[[2.0]], B=[[-1.0]], C=[[1.0]])
    rep = characterize_equilibrium(p, np.zeros(2))
    payload = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert '"s0": "-inf"' in payload


def test_no_mismatch_errors_raised_so_far():
    assert stability.mismatch_count() == 0
