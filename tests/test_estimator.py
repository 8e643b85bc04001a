import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frontier_moments import (
    CovariateDensity,
    DegenerateGridError,
    EstimateRecord,
    EstimatorConfig,
    FrontierModel,
    KernelSpec,
    RateSchedule,
    Sample,
    ScalarField,
    ScheduleError,
    estimate_at,
    estimate_grid,
    evaluation_grid,
    load_model,
    rate_exponents,
    sample,
    schedule,
    sup_error,
    w_rate,
)

ROOT = Path(__file__).resolve().parent.parent
K1 = KernelSpec(dimension=1)


def constant_sample(n, c, seed=0):
    rng = np.random.default_rng(seed)
    return Sample(xs=rng.random((n, 1)), ys=np.full(n, c))


def flat_model():
    return FrontierModel(
        g=ScalarField.constant(1.0),
        alpha=ScalarField.constant(1.0),
        beta=ScalarField.constant(1.0),
        C=ScalarField.constant(1.0),
        D0=ScalarField.constant(0.0),
        f=CovariateDensity.uniform(1),
    )


def canonical_model():
    m = flat_model()
    return FrontierModel(
        g=ScalarField.sinusoid(1.0, 0.5, 1.0),
        alpha=m.alpha,
        beta=m.beta,
        C=m.C,
        D0=m.D0,
        f=m.f,
    )


class TestEstimateAt:
    @pytest.mark.parametrize("p", [5.0, 50.0, 500.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_constant_data_identity(self, p, a):
        # constant responses make both moment ratios 1/c; the bracket
        # collapses to a*p/c and the estimate is exactly c
        c = 1.7
        s = constant_sample(400, c, seed=1)
        rec = estimate_at(s, [0.5], EstimatorConfig(p=p, h=0.2, kernel=K1, a=a))
        assert rec.ok
        assert abs(rec.g_hat - c) <= 1e-12

    def test_empty_window_flags(self):
        s = constant_sample(50, 1.0, seed=2)
        rec = estimate_at(s, [25.0], EstimatorConfig(p=10.0, h=0.1, kernel=K1))
        assert not rec.ok
        assert rec.effective_count == 0
        assert rec.raw_inverse is None

    def test_nonpositive_inverse_is_flag_not_exception(self):
        # two response levels tuned so the bracket goes negative
        xs = np.full((4, 1), 0.5)
        s = Sample(xs=xs, ys=np.array([0.1, 0.1, 0.1, 1.0]))
        found = None
        for p in np.linspace(1.0, 6.0, 21):
            rec = estimate_at(s, [0.5], EstimatorConfig(p=float(p), h=0.3, kernel=K1, a=2.0))
            if rec.raw_inverse is not None and rec.raw_inverse <= 0.0:
                found = rec
                break
        if found is not None:
            assert not found.ok
            assert found.effective_count == 4

    def test_monte_carlo_pointwise_accuracy(self):
        # flat frontier at 1: the estimate concentrates near 1
        m = flat_model()
        cfg = EstimatorConfig(p=25.0, h=0.15, kernel=K1, a=1.0)
        hits = 0
        for r in range(100):
            s = sample(m, 10_000, seed=1000 + r)
            rec = estimate_at(s, [0.5], cfg)
            if rec.ok and 0.95 <= rec.g_hat <= 1.05:
                hits += 1
        assert hits >= 95

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        s = Sample(xs=rng.random((500, 1)), ys=1.0 + 0.5 * rng.random(500))
        cfg = EstimatorConfig(p=30.0, h=0.2, kernel=K1)
        base = [estimate_at(s, [x], cfg).g_hat for x in (0.3, 0.5, 0.7)]
        for lam in (0.1, 3.0, 10.0):
            scaled = Sample(xs=s.xs, ys=lam * s.ys)
            for x, b in zip((0.3, 0.5, 0.7), base):
                got = estimate_at(scaled, [x], cfg).g_hat
                assert_allclose(got, lam * b, rtol=1e-10)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        s = Sample(xs=rng.random((500, 1)), ys=1.0 + 0.5 * rng.random(500))
        cfg = EstimatorConfig(p=30.0, h=0.2, kernel=K1)
        shift = 0.25
        shifted = Sample(xs=s.xs + shift, ys=s.ys)
        for x in (0.3, 0.5, 0.7):
            r1 = estimate_at(s, [x], cfg)
            r2 = estimate_at(shifted, [x + shift], cfg)
            assert_allclose(r2.g_hat, r1.g_hat, rtol=1e-10)


class TestEstimateGrid:
    def test_matches_pointwise_and_is_deterministic(self):
        s = constant_sample(200, 2.0, seed=5)
        cfg = EstimatorConfig(p=10.0, h=0.2, kernel=K1)
        grid = np.array([[0.4], [0.4], [0.6]])
        records = estimate_grid(s, grid, cfg)
        assert records[0] == records[1]
        assert records[0] == estimate_at(s, [0.4], cfg)
        assert records == estimate_grid(s, grid, cfg)

    @pytest.mark.parametrize("d", [1, 2])
    def test_power_of_two_scaling_is_exact_across_the_float_range(self, d):
        # Y -> 2**k Y leaves every t = Y / M as it was and scales M exactly, so g_hat scales bit for bit;
        # near the float maximum M * den overflows, and the ratio divides by den first
        model = canonical_model() if d == 1 else load_model(ROOT / "benchmarks" / "models" / "plane_2d.json")
        s = sample(model, 4000, seed=8)
        grid = evaluation_grid((0.1, 0.9), d, 21)
        cfg = EstimatorConfig(p=20.0 if d == 1 else 15.0, h=0.05 if d == 1 else 0.1, kernel=KernelSpec(dimension=d))
        base = estimate_grid(s, grid, cfg)
        assert all(r.ok for r in base)
        for k in (-1020, -1018, -1000, -600, 0, 600, 1000, 1020, 1022):
            got = estimate_grid(Sample(xs=s.xs, ys=s.ys * 2.0**k), grid, cfg)
            assert [r.effective_count for r in got] == [r.effective_count for r in base]
            assert all(r.ok for r in got), k
            # near 2**-1020 the formula's terms pass the float maximum: no estimate may come from an overflow
            assert all(r.g_hat > 0.0 and math.isfinite(r.raw_inverse) for r in got), k
            scaled = [r.g_hat * 2.0**k for r in base]
            if abs(k) <= 1000:
                assert [r.g_hat for r in got] == scaled, k
                assert [r.raw_inverse for r in got] == [r.raw_inverse * 2.0**-k for r in base], k
            else:
                assert_allclose([r.g_hat for r in got], scaled, rtol=8 * np.finfo(float).eps, atol=0)
        # below about 2**-1022 the ratios themselves pass the float maximum; as with Python floats, no warning
        estimate_grid(Sample(xs=s.xs, ys=s.ys * 2.0**-1040), grid, cfg)

    def test_grid_success_rate_at_scheduled_parameters(self):
        m = canonical_model()
        p, h = schedule(10_000, RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0))
        s = sample(m, 10_000, seed=5)
        grid = evaluation_grid(m.omega, 1, 50)
        records = estimate_grid(s, grid, EstimatorConfig(p=p, h=h, kernel=K1))
        assert sum(r.ok for r in records) >= 45

    def test_evaluation_grid_shape(self):
        g1 = evaluation_grid((0.1, 0.9), 1, 101)
        assert g1.shape == (101, 1)
        assert g1[0, 0] == pytest.approx(0.1) and g1[-1, 0] == pytest.approx(0.9)
        g2 = evaluation_grid((0.2, 0.8), 2, 7)
        assert g2.shape == (49, 2)


class TestSupError:
    def test_perfect_estimates(self):
        truth = ScalarField.constant(2.0)
        records = [EstimateRecord(x=(0.1 * i,), g_hat=2.0, effective_count=5, raw_inverse=0.5) for i in range(5)]
        assert sup_error(records, truth) == (0.0, 0)

    def test_max_is_reported(self):
        truth = ScalarField.constant(2.0)
        records = [EstimateRecord(x=(0.1,), g_hat=2.0, effective_count=5, raw_inverse=0.5)]
        records.append(EstimateRecord(x=(0.2,), g_hat=2.2, effective_count=5, raw_inverse=1 / 2.2))
        sup, failures = sup_error(records, truth)
        assert sup == pytest.approx(0.2)
        assert failures == 0

    def test_failures_counted_not_dropped(self):
        truth = ScalarField.constant(2.0)
        records = [
            EstimateRecord(x=(0.01 * i,), g_hat=(2.0 if i >= 3 else None), effective_count=i, raw_inverse=None)
            for i in range(50)
        ]
        sup, failures = sup_error(records, truth)
        assert failures == 3

    def test_all_failed_raises(self):
        truth = ScalarField.constant(2.0)
        records = [EstimateRecord(x=(0.1,), g_hat=None, effective_count=0, raw_inverse=None)]
        with pytest.raises(DegenerateGridError):
            sup_error(records, truth)


class TestRates:
    def test_optimal_exponents(self):
        assert rate_exponents(1, 1.0, 1.0) == (pytest.approx(0.5), pytest.approx(0.5))
        assert rate_exponents(1, 1.0, 2.0) == (pytest.approx(1 / 3), pytest.approx(1 / 3))
        assert rate_exponents(2, 1.0, 1.0) == (pytest.approx(1 / 3), pytest.approx(1 / 3))

    def test_rate_exponents_domain(self):
        with pytest.raises(ValueError):
            rate_exponents(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_exponents(1, -1.0, 1.0)

    @pytest.mark.parametrize("eta_g, alpha_bar, named", [(math.inf, 1.0, "smoothness exponent eta_g"), (1.0, math.inf, "tail exponent bound alpha_bar")])
    def test_rate_exponents_refuse_an_infinite_exponent(self, eta_g, alpha_bar, named):
        # eta_g = inf gave (nan, 0.0)
        with pytest.raises(ValueError, match=f"^{named} must be finite, got inf$"):
            rate_exponents(1, eta_g, alpha_bar)

    def test_w_rate_values(self):
        assert_allclose(w_rate(math.e**2, 1.0, 1.0, 2.0, 1), math.sqrt(math.e**2 / 2.0), rtol=1e-12)
        # exponent 2 - alpha_bar vanishes at alpha_bar = 2, so p drops out
        assert w_rate(100, 1.0, 0.3, 2.0, 1) == pytest.approx(w_rate(100, 7.0, 0.3, 2.0, 1))
        got = w_rate(10_000, 50.0, 0.01, 1.0, 1)
        assert_allclose(got, math.sqrt(10_000 * 50.0 * 0.01 / math.log(10_000)), rtol=1e-12)
        assert got == pytest.approx(23.30, abs=0.01)

    def test_schedule_values(self):
        sched = RateSchedule(c1=0.5, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0, k1=0.5, k2=1.0)
        assert schedule(10_000, sched) == (pytest.approx(50.0), pytest.approx(0.01))
        sched3 = RateSchedule(c1=0.5, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0, k1=0.5, k2=3.0)
        assert schedule(10_000, sched3) == (pytest.approx(50.0), pytest.approx(0.03))

    def test_growth_condition_enforced(self):
        with pytest.raises(ScheduleError):
            RateSchedule(c1=0.6, c2=0.6, d=1, eta_g=1.0, alpha_bar=1.0)
        # the rate-optimal boundary (exponent sum exactly 1) is allowed
        RateSchedule(c1=0.5, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0)

    def test_bias_condition_enforced(self):
        with pytest.raises(ScheduleError):
            RateSchedule(c1=0.5, c2=0.4, d=1, eta_g=1.0, alpha_bar=1.0)

    def test_schedule_bandwidth_sanity(self):
        sched = RateSchedule(c1=0.1, c2=0.2, d=1, eta_g=2.1, alpha_bar=1.0, k1=0.5, k2=5.0)
        with pytest.raises(ScheduleError):
            schedule(100, sched)  # h = 5 * 100^-0.2 > 1

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: RateSchedule(c1=0.0, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0), ScheduleError, "schedule parameter c1 must be positive"),
            (lambda: RateSchedule(c1=0.5, c2=0.5, d=0, eta_g=1.0, alpha_bar=1.0), ScheduleError, "dimension d must be a positive integer"),
            (
                lambda: schedule(1000, RateSchedule(c1=0.5, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0, k1=0.01)),
                ScheduleError,
                "moment power 0.316228 falls below 1 at n=1000",
            ),
            (lambda: schedule(1, RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0)), ValueError, "schedules are defined for n >= 2"),
            (lambda: w_rate(1, 5.0, 0.1, 1.0, 1), ValueError, "rate is defined for n >= 2"),
            # 10^400 is past the float range: n ** c1 raised a bare OverflowError
            (
                lambda: schedule(10**400, RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0)),
                ScheduleError,
                f"powers of the sample size overflow at n={10**400}",
            ),
            # h ** d raised a bare OverflowError
            (lambda: w_rate(1000, 5.0, 1e160, 1.0, 2), ValueError, "rate overflows at n = 1000, p = 5.0, h = 1e+160, alpha_bar = 1.0, d = 2"),
        ],
        ids=["c1-zero", "d-zero", "p-below-one", "schedule-n-one", "w-rate-n-one", "schedule-overflow", "w-rate-overflow"],
    )
    def test_schedule_and_rate_refusals(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert err.type is error and str(err.value) == message

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(p=0.5, h=0.1, kernel=K1)
        with pytest.raises(ValueError):
            EstimatorConfig(p=5.0, h=0.0, kernel=K1)
        with pytest.raises(ValueError):
            EstimatorConfig(p=5.0, h=1.0, kernel=K1)
        with pytest.raises(ValueError, match="order multiplier a must be positive"):
            EstimatorConfig(p=5.0, h=0.1, kernel=K1, a=0.0)


class TestTwoDimensional:
    def test_constant_data_identity_d2(self):
        rng = np.random.default_rng(6)
        s = Sample(xs=rng.random((800, 2)), ys=np.full(800, 3.25))
        cfg = EstimatorConfig(p=40.0, h=0.3, kernel=KernelSpec(dimension=2))
        rec = estimate_at(s, [0.5, 0.5], cfg)
        assert rec.ok
        assert abs(rec.g_hat - 3.25) <= 1e-12

    def test_flat_model_estimate_d2(self):
        m = FrontierModel(
            g=ScalarField.constant(1.0, dimension=2),
            alpha=ScalarField.constant(1.0, dimension=2),
            beta=ScalarField.constant(1.0, dimension=2),
            C=ScalarField.constant(1.0, dimension=2),
            D0=ScalarField.constant(0.0, dimension=2),
            f=CovariateDensity.uniform(2),
            dimension=2,
        )
        s = sample(m, 20_000, seed=8)
        rec = estimate_at(s, [0.5, 0.5], EstimatorConfig(p=15.0, h=0.2, kernel=KernelSpec(dimension=2)))
        assert rec.ok
        assert abs(rec.g_hat - 1.0) < 0.1
