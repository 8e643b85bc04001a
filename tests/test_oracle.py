import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import gammaln

from frontier_moments import (
    LOG_GAMMA_RATIO_BOUND,
    CovariateDensity,
    FrontierModel,
    KernelSpec,
    MarginalDensity,
    ScalarField,
    load_model,
    log_beta,
    log_gamma_ratio,
    moment_brute,
    moment_decomposition,
    moment_equivalent,
    moment_ratio_exact,
    oracle_report,
    ratio_expansion,
    smoothed_moment,
    smoothed_ratio,
)
from frontier_moments import oracle

ROOT = Path(__file__).resolve().parent.parent
K1 = KernelSpec(dimension=1)
X = np.array([0.5])


def build(g=1.0, alpha=1.0, beta=1.0, C=1.0, D0=0.0, d=1, **kw):
    def lift(v, name):
        return v if isinstance(v, ScalarField) else ScalarField.constant(v, dimension=d)

    return FrontierModel(
        g=lift(g, "g"),
        alpha=lift(alpha, "alpha"),
        beta=lift(beta, "beta"),
        C=lift(C, "C"),
        D0=lift(D0, "D0"),
        f=kw.pop("f", CovariateDensity.uniform(d)),
        dimension=d,
        **kw,
    )


class TestLogBeta:
    def test_against_gammaln_for_moderate_arguments(self):
        for p in (0.5, 3.0, 17.0):
            for q in (0.3, 1.0, 4.5):
                assert_allclose(log_beta(p, q), gammaln(p) + gammaln(q) - gammaln(p + q), rtol=1e-13)

    def test_linear_tail_identity_to_huge_powers(self):
        # B(p, 2) = 1 / (p (p + 1)) exactly
        for p in (10.0, 1e3, 1e4, 1e6):
            assert_allclose(math.exp(log_beta(p, 2.0)), 1.0 / (p * (p + 1.0)), rtol=1e-13)

    def test_symmetry_and_domain(self):
        assert log_beta(7.0, 2.5) == log_beta(2.5, 7.0)
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)


def scipy_log_beta(p, q):
    """log B(p, q) by plain gammaln differencing: the reference below _ASYMPTOTIC_MIN."""
    return gammaln(p) + gammaln(q) - gammaln(p + q)


class TestLogGammaWithoutScipy:
    """oracle's math.lgamma path against scipy.special.gammaln."""

    @pytest.mark.parametrize(
        "z",
        [
            0.5,
            3.0,
            171.25,
            np.float64(2.5),
            np.array(7.75),
            np.array([4.0, 0.3, 4.0, 4.0, 1e6, 0.3]),
            np.linspace(0.1, 80.0, 33),
            np.linspace(0.5, 40.0, 12).reshape(3, 4),
            np.array([[2.0, 2.0], [9.5, 2.0]]),
        ],
        ids=["scalar", "integer", "large", "numpy-scalar", "0-d", "repeated", "distinct", "2-d", "2-d-repeated"],
    )
    def test_lgamma_matches_gammaln(self, z):
        got = oracle._lgamma(z)
        assert np.shape(got) == np.shape(z)
        if np.ndim(z) == 0:
            assert type(got) is float
        assert_allclose(got, gammaln(z), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("p", [0.7, 5.0, 31.0, 31.999, 32.0, 32.5, 100.0, 1e4])
    def test_log_beta_on_both_sides_of_the_asymptotic_switch(self, p):
        assert oracle._ASYMPTOTIC_MIN == 32.0
        for q in (0.3, 1.0, 2.2, 4.5):
            got = log_beta(p, q)
            assert type(got) is float
            # the Stirling route above the switch is the more accurate one; plain
            # differencing loses about p * eps absolute in the large logs
            assert_allclose(got, scipy_log_beta(p, q), rtol=1e-13, atol=64 * p * np.finfo(float).eps)

    def test_log_beta_arrays_keep_shape_and_match_elementwise(self):
        # repeated and distinct entries on both sides of the switch, and a scalar broadcast
        p = np.array([[5.0, 5.0, 40.0], [31.0, 5.0, 250.0]])
        q = np.array([[1.5, 1.5, 2.0], [2.5, 0.4, 1.5]])
        got = log_beta(p, q)
        assert isinstance(got, np.ndarray) and got.shape == p.shape
        for i in np.ndindex(p.shape):
            assert got[i] == log_beta(float(p[i]), float(q[i]))
        assert_allclose(got, scipy_log_beta(p, q), rtol=1e-13)
        assert log_beta(100.0, q).shape == q.shape
        assert_array_equal(log_beta(100.0, q), [[log_beta(100.0, float(v)) for v in row] for row in q])

    def test_log_beta_zero_dimensional_arrays(self):
        got = log_beta(np.array(5.0), np.array(2.5))
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == log_beta(5.0, 2.5)
        assert_allclose(got, scipy_log_beta(5.0, 2.5), rtol=1e-14)
        assert log_beta(np.array(50.0), 2.5) == log_beta(50.0, 2.5)

    @pytest.mark.parametrize("p, h", [(5.0, 0.1), (25.0, 0.04), (100.0, 0.01)])
    def test_plane_2d_smoothed_moment_pinned_to_gammaln(self, monkeypatch, p, h):
        # with gammaln in place of math.lgamma the oracle computes exactly what it
        # computed when it depended on scipy; the two agree far inside the 2-d rule's error
        model = load_model(ROOT / "benchmarks" / "models" / "plane_2d.json")
        x, k2 = np.array([0.5, 0.5]), KernelSpec(dimension=2)
        got = smoothed_moment(model, x, p, h, k2)
        monkeypatch.setattr(oracle, "_lgamma", gammaln)
        want = smoothed_moment(model, x, p, h, k2)
        assert_allclose(got, want, rtol=1e-13, atol=0)


class TestMomentDecomposition:
    def test_linear_tail_closed_form(self):
        m = build(alpha=1.0)
        for p in (1.0, 9.0, 100.0, 1e4):
            dec = moment_decomposition(m, X, p)
            assert_allclose(dec.total, 1.0 / (p + 1.0), rtol=1e-12)
            assert dec.error == 0.0
        assert moment_decomposition(m, X, 9.0).total == pytest.approx(0.1, rel=1e-12)

    def test_square_tail_closed_form(self):
        m = build(alpha=2.0)
        for p in (2.0, 50.0, 500.0):
            assert_allclose(moment_decomposition(m, X, p).total, 2.0 / ((p + 1.0) * (p + 2.0)), rtol=1e-12)

    def test_total_is_main_plus_error(self):
        m = build(alpha=1.5, beta=0.7, C=0.6, D0=0.4)
        dec = moment_decomposition(m, X, 37.0)
        assert dec.total == dec.main + dec.error
        assert dec.main > 0.0 and dec.error > 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=1.0),
            dict(alpha=2.0),
            dict(alpha=1.5, beta=0.7, C=0.75, D0=0.25),
            dict(alpha=0.4, beta=2.3, C=0.9, D0=0.1),
        ],
    )
    def test_brute_quadrature_agrees(self, kwargs):
        # the two routes are independent: Beta identities vs direct integration
        m = build(**kwargs)
        for p in (1.0, 2.0, 5.0, 25.0, 100.0, 500.0):
            closed = moment_decomposition(m, X, p).total
            brute = moment_brute(m, X, p)
            assert_allclose(closed, brute, rtol=1e-8)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError, match="moment power p must be positive"):
            moment_decomposition(build(), X, 0.0)


class TestMomentRatioExact:
    def test_linear_tail_with_frontier_two(self):
        m = build(g=2.0, alpha=1.0)
        assert_allclose(moment_ratio_exact(m, X, 8.0), 1.8, rtol=1e-12)  # 2 * 9/10

    def test_limit_is_frontier(self):
        m = build(g=2.0, alpha=1.0)
        got = moment_ratio_exact(m, X, 1e6)
        assert abs(got / 2.0 - 1.0) <= 2e-6

    def test_square_tail_value(self):
        m = build(alpha=2.0)
        assert_allclose(moment_ratio_exact(m, X, 98.0), 99.0 / 101.0, rtol=1e-12)


class TestSmoothedMoment:
    def test_constant_fields_integrate_exactly(self):
        m = build(alpha=1.0)
        for h in (0.01, 0.05, 0.1):
            assert_allclose(smoothed_moment(m, X, 9.0, h, K1), 0.1, rtol=1e-12)

    def test_small_bandwidth_approaches_local_value(self):
        m = build(
            g=ScalarField.sinusoid(1.0, 0.1, 1.0),
            alpha=ScalarField.affine(1.0, 0.5),
            f=CovariateDensity(marginals=(MarginalDensity(kind="linear", slope=0.5),)),
        )
        p = 20.0
        got = smoothed_moment(m, X, p, 1e-4, K1)
        local = m.f.pdf_point(X) * moment_decomposition(m, X, p).total
        assert_allclose(got, local, rtol=1e-3)

    def test_ball_must_stay_inside_support(self):
        m = build()
        with pytest.raises(ValueError):
            smoothed_moment(m, np.array([0.05]), 5.0, 0.1, K1)

    def test_two_dimensional_constant_fields(self):
        # the kernel support boundary cuts the 2-d tensor grid, capping
        # accuracy around 1e-4 relative
        m = build(alpha=1.0, d=2)
        k2 = KernelSpec(dimension=2)
        got = smoothed_moment(m, np.array([0.5, 0.5]), 9.0, 0.05, k2)
        assert_allclose(got, 0.1, rtol=1e-4)

    def test_three_dimensions_not_supported(self):
        m = build(d=3)
        with pytest.raises(NotImplementedError):
            smoothed_moment(m, np.full(3, 0.5), 9.0, 0.05, KernelSpec(dimension=3))


class TestMomentEquivalent:
    def test_closed_values(self):
        assert_allclose(moment_equivalent(build(alpha=1.0), X, 100.0), 0.01, rtol=1e-13)
        assert_allclose(moment_equivalent(build(alpha=2.0), X, 10.0), 0.02, rtol=1e-13)

    def test_ratio_to_quadrature_for_smooth_model(self):
        # gently varying tail exponent, constant frontier: first-order
        # description within 3% at p = 400, h = 0.01
        m = build(alpha=ScalarField.affine(1.0, 0.3))
        ratio = smoothed_moment(m, X, 400.0, 0.01, K1) / moment_equivalent(m, X, 400.0)
        assert abs(ratio - 1.0) <= 0.03

    def test_convergence_along_matched_powers(self):
        m = build(
            g=ScalarField.sinusoid(1.0, 0.05, 1.0),
            alpha=ScalarField.affine(1.0, 0.3),
        )
        xs = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
        gaps = []
        for p in (25.0, 100.0, 400.0):
            gaps.append(
                max(abs(smoothed_moment(m, x, p, 1.0 / p, K1) / moment_equivalent(m, x, p) - 1.0) for x in xs)
            )
        assert gaps[0] > gaps[1] > gaps[2]


class TestRatioExpansion:
    def test_closed_values(self):
        assert_allclose(ratio_expansion(build(alpha=1.0), X, 9.0), 1.1, rtol=1e-13)
        m = build(g=2.0, alpha=0.5)
        assert_allclose(ratio_expansion(m, X, 99.0), 0.5025, rtol=1e-13)

    def test_exact_for_constant_fields_without_tail_correction(self):
        # with D0 = 0 and constant fields the consecutive-moment ratio equals
        # the expansion identically, for any tail exponent
        for alpha in (1.0, 2.5):
            m = build(g=2.0, alpha=alpha)
            for p in (25.0, 100.0, 400.0):
                mu_route = smoothed_ratio(m, X, p, 1.0 / p, K1)
                m_route = moment_decomposition(m, X, p).total / (
                    m.g(X) * moment_decomposition(m, X, p + 1.0).total
                )
                want = ratio_expansion(m, X, p)
                assert abs(mu_route - want) <= 1e-12
                assert abs(m_route - want) <= 1e-12

    def test_tail_correction_gap_scales_as_expected(self):
        # D0 > 0 with beta = 1: the gap decays like p^-2, so the scaled gap
        # stays within a narrow band
        m = build(alpha=1.0, C=0.75, D0=0.25)
        scaled = []
        for p in (25.0, 100.0, 400.0):
            gap = abs(smoothed_ratio(m, X, p, 1.0 / p, K1) - ratio_expansion(m, X, p))
            scaled.append(gap * p**2)
        assert max(scaled) / min(scaled) <= 3.0


class TestLogGammaRatio:
    def test_identity_at_equal_arguments(self):
        assert log_gamma_ratio(7.3, 7.3) == 0.0

    def test_against_direct_log_gamma(self):
        got = log_gamma_ratio(10.0, 11.0)
        assert got == pytest.approx(-2.303342, abs=1e-6)
        true = float(gammaln(10.0) - gammaln(11.0))  # = -log 10
        assert true == pytest.approx(-math.log(10.0), abs=1e-12)
        assert abs(got - true) <= LOG_GAMMA_RATIO_BOUND * abs(1 / 10 - 1 / 11)

    def test_error_tiny_for_large_arguments(self):
        true = float(gammaln(100.0) - gammaln(101.0))
        assert abs(log_gamma_ratio(100.0, 101.0) - true) <= 1e-4

    def test_error_over_curvature_bounded_on_grid(self):
        zs = [5.0, 10.0, 50.0, 100.0, 500.0]
        worst = 0.0
        for z in zs:
            for zp in zs:
                if z == zp:
                    continue
                gap = abs(log_gamma_ratio(z, zp) - float(gammaln(z) - gammaln(zp)))
                worst = max(worst, gap / abs(1.0 / z - 1.0 / zp))
        assert worst <= LOG_GAMMA_RATIO_BOUND + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            log_gamma_ratio(1.0, -1.0)


class TestOracleReport:
    def test_constant_field_model_passes_everything(self):
        report = oracle_report(build(alpha=1.0))
        assert report["passed"]
        assert report["checks"]["ratio_expansion"]["exact"]

    def test_tail_correction_model_reports_scaled_gaps(self):
        report = oracle_report(build(alpha=1.0, C=0.75, D0=0.25))
        check = report["checks"]["ratio_expansion"]
        assert not check["exact"]
        assert len(check["scaled_gaps"]) == 3
        assert check["passed"]
        assert report["passed"]
