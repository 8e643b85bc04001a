import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frontier_moments import (
    InsufficientLocalDataError,
    KernelSpec,
    Sample,
    effective_count,
    load_model,
    moment_ratio,
    moment_ratio_pair,
    sample,
    scaled_moment,
)

K1 = KernelSpec(dimension=1)


def uniform_sample(n, seed, ymax=2.0):
    rng = np.random.default_rng(seed)
    return Sample(xs=rng.random((n, 1)), ys=ymax * rng.random(n) + 1e-9)


def naive_moment(sample, x, p, h, kernel):
    w = kernel.scaled_density(x, sample.xs, h)
    return float(np.sum(sample.ys**p * w)) / sample.n


class TestScaledMoment:
    def test_constant_responses_high_power(self):
        # all Y = 2 at p = 300: the naive sum would overflow the mantissa terms
        rng = np.random.default_rng(1)
        s = Sample(xs=rng.random((200, 1)), ys=np.full(200, 2.0))
        m = scaled_moment(s, [0.5], 300.0, 0.25, K1)
        assert m.count > 0
        assert math.isfinite(m.mantissa)
        kernel_mean = float(np.sum(K1.scaled_density([0.5], s.xs, 0.25))) / s.n
        assert_allclose(m.log_value, 300.0 * math.log(2.0) + math.log(kernel_mean), rtol=1e-12)

    def test_empty_window(self):
        s = uniform_sample(50, seed=2)
        m = scaled_moment(s, [10.0], 5.0, 0.05, K1)
        assert m.count == 0 and m.mantissa == 0.0 and m.is_empty

    def test_hand_computed_mantissa(self):
        # three points at the query location share the kernel weight K(0)/h
        xs = np.full((3, 1), 0.4)
        s = Sample(xs=xs, ys=np.array([0.5, 1.0, 1.0]))
        m = scaled_moment(s, [0.4], 10.0, 0.2, K1)
        w = 0.75 / 0.2
        assert m.count == 3
        assert m.log_scale == 0.0  # max response is 1
        assert_allclose(m.mantissa, (w / 3.0) * (0.5**10 + 1.0 + 1.0), rtol=1e-13)

    def test_matches_naive_summation(self):
        # no-overflow regime: reconstruction agrees with direct power sums
        s = uniform_sample(300, seed=3)
        for p in (1.5, 7.0, 40.0):
            for x in (0.3, 0.5, 0.7):
                m = scaled_moment(s, [x], p, 0.2, K1)
                assert_allclose(m.log_value, math.log(naive_moment(s, [x], p, 0.2, K1)), rtol=1e-10)

    def test_rejects_bad_parameters(self):
        s = uniform_sample(10, seed=4)
        with pytest.raises(ValueError, match="moment power p must be positive"):
            scaled_moment(s, [0.5], 0.0, 0.1, K1)
        with pytest.raises(ValueError, match="bandwidth h must be positive"):
            scaled_moment(s, [0.5], 2.0, 0.0, K1)


class TestMomentRatio:
    def test_constant_responses(self):
        rng = np.random.default_rng(5)
        for c in (0.25, 1.0, 4.0):
            s = Sample(xs=rng.random((100, 1)), ys=np.full(100, c))
            assert_allclose(moment_ratio(s, [0.5], 12.0, 0.3, K1), 1.0 / c, rtol=1e-13)

    def test_responses_near_the_float_maximum(self):
        # M * den overflowed to inf here, and the ratio came out 0.0
        s = Sample(xs=np.random.default_rng(9).random((400, 1)), ys=np.full(400, 1e306))
        assert moment_ratio(s, [0.5], 20.0, 0.05, K1) == pytest.approx(1e-306, rel=1e-15)

    def test_empty_window_raises_with_count(self):
        s = uniform_sample(50, seed=6)
        with pytest.raises(InsufficientLocalDataError) as err:
            moment_ratio(s, [10.0], 5.0, 0.05, K1)
        assert err.value.count == 0

    def test_hand_computed_two_points(self):
        xs = np.full((2, 1), 0.4)
        s = Sample(xs=xs, ys=np.array([0.5, 1.0]))
        # equal weights: (0.5^4 + 1) / (0.5^5 + 1)
        assert_allclose(moment_ratio(s, [0.4], 4.0, 0.2, K1), 1.0625 / 1.03125, rtol=1e-13)

    def test_matches_naive_ratio(self):
        s = uniform_sample(400, seed=7)
        for p in (2.0, 11.0, 33.0):
            got = moment_ratio(s, [0.5], p, 0.2, K1)
            want = naive_moment(s, [0.5], p, 0.2, K1) / naive_moment(s, [0.5], p + 1.0, 0.2, K1)
            assert_allclose(got, want, rtol=1e-10)

    def test_scaling_responses_scales_ratio_inversely(self):
        s = uniform_sample(300, seed=8)
        base = moment_ratio(s, [0.5], 9.0, 0.25, K1)
        for lam in (0.1, 3.0, 10.0):
            scaled = Sample(xs=s.xs, ys=lam * s.ys)
            assert_allclose(moment_ratio(scaled, [0.5], 9.0, 0.25, K1), base / lam, rtol=1e-12)


class TestMomentRatioPair:
    def test_consistent_with_single_ratios(self):
        s = uniform_sample(300, seed=9)
        for a in (0.5, 1.0, 2.0):
            high, low, count = moment_ratio_pair(s, [0.5], 8.0, a, 0.25, K1)
            assert count == effective_count(s, [0.5], 0.25)
            assert_allclose(low, moment_ratio(s, [0.5], 8.0, 0.25, K1), rtol=1e-14)
            assert_allclose(high, moment_ratio(s, [0.5], (a + 1.0) * 8.0, 0.25, K1), rtol=1e-14)

    def test_empty_window(self):
        s = uniform_sample(50, seed=10)
        with pytest.raises(InsufficientLocalDataError):
            moment_ratio_pair(s, [10.0], 5.0, 1.0, 0.05, K1)


class TestEffectiveCount:
    def test_far_query_sees_nothing(self):
        s = uniform_sample(100, seed=11)
        assert effective_count(s, [50.0], 0.5) == 0

    def test_huge_bandwidth_sees_everything(self):
        s = uniform_sample(100, seed=12)
        assert effective_count(s, [0.5], 10.0) == 100

    def test_binomial_count(self):
        # window (0.4, 0.6) under uniform X: Binomial(n, 0.2); 3-sigma band
        s = uniform_sample(10000, seed=3)
        count = effective_count(s, [0.5], 0.1)
        assert abs(count - 2000) <= 3.0 * math.sqrt(10000 * 0.2 * 0.8)

    def test_strict_inequality_at_radius(self):
        # the second point lies exactly on the ball; in d = 2 the test
        # ||X - x||^2 < h^2 would round it inside, the window's ||(x - X) / h||^2 < 1 does not
        for xs, x, h in (([[0.0], [0.1]], [0.0], 0.1), ([[0.3, 0.3], [0.33, 0.26]], [0.3, 0.3], 0.05)):
            s = Sample(xs=np.array(xs), ys=np.array([1.0, 1.0]))
            assert effective_count(s, x, h) == 1
            assert moment_ratio_pair(s, x, 5.0, 1.0, h, KernelSpec(dimension=len(x)))[2] == 1


def full_scan(sample, x, powers, h, kernel):
    """Reference: one loop over all n points with the kernel formula written out.

    Returns (sums, count, M): sums[k] = sum over the window of K_h(x - X_i) (Y_i / M)^powers[k],
    all on the one scale M, the largest response in the window.
    """
    d, c, degree = kernel.dimension, kernel.normalization, kernel.degree
    window = []
    for i in range(sample.n):
        r2 = sum(((x[k] - sample.xs[i, k]) / h) ** 2 for k in range(d))
        if r2 < 1.0:
            window.append((c * (1.0 - r2) ** degree / h**d, float(sample.ys[i])))
    if not window:
        return None, 0, None
    m = max(y for _, y in window)
    return [math.fsum(w * (y / m) ** q for w, y in window) for q in powers], len(window), m


def _two_term_sample(n, seed):
    model = load_model(Path(__file__).resolve().parent.parent / "models" / "two_term_tail.json")
    return sample(model, n, seed)  # D0 != 0


def _plane_sample(n, seed):
    rng = np.random.default_rng(seed)
    return Sample(xs=rng.random((n, 2)), ys=rng.random(n) + 0.1)


def _boundary_sample():
    # (0.33, 0.26) sits exactly on the radius-0.05 ball around (0.3, 0.3)
    xs = np.array([[0.3, 0.3], [0.33, 0.26], [0.31, 0.32], [0.28, 0.29], [0.9, 0.9]])
    return Sample(xs=xs, ys=np.array([0.7, 2.0, 0.9, 0.95, 3.0]))


@pytest.mark.parametrize(
    "smpl, x, h",
    [
        (uniform_sample(400, seed=20), [0.5], 0.1),
        (uniform_sample(400, seed=20), [0.03], 0.05),
        (_two_term_sample(2000, seed=21), [0.4], 0.02),
        (_plane_sample(600, seed=22), [0.5, 0.4], 0.1),
        (Sample(xs=np.array([[0.2], [0.5], [0.8]]), ys=np.array([3.0, 0.6, 5.0])), [0.52], 0.1),
        (_boundary_sample(), [0.3, 0.3], 0.05),
        (Sample(xs=np.array([[0.0], [0.1], [0.35]]), ys=np.array([2.0, 1.0, 1.5])), [0.0], 0.1),
        (uniform_sample(50, seed=24), [10.0], 0.05),
    ],
    ids=["d1", "d1-edge", "two-term-tail", "d2", "one-point", "d2-on-ball", "d1-on-ball", "empty"],
)
@pytest.mark.parametrize("profile", ["epanechnikov_ball", "biweight_ball", "uniform_ball"])
def test_matches_full_scan_reference(smpl, x, h, profile):
    kernel = KernelSpec(profile=profile, dimension=smpl.dimension)
    for p, a in ((1.0, 1.0), (7.5, 0.5), (120.0, 2.0)):
        sums, count, m = full_scan(smpl, x, [p, p + 1.0, (a + 1.0) * p, (a + 1.0) * p + 1.0], h, kernel)
        moment = scaled_moment(smpl, x, p, h, kernel)
        assert moment.count == count
        if count == 0:
            assert moment.mantissa == 0.0
            with pytest.raises(InsufficientLocalDataError):
                moment_ratio(smpl, x, p, h, kernel)
            with pytest.raises(InsufficientLocalDataError) as err:
                moment_ratio_pair(smpl, x, p, a, h, kernel)
            assert err.value.count == 0
            continue
        assert_allclose(moment.mantissa, sums[0] / smpl.n, rtol=1e-13)
        assert_allclose(moment.log_scale, p * math.log(m), rtol=1e-13)
        low = sums[0] / (m * sums[1])
        high = sums[2] / (m * sums[3])
        assert_allclose(moment_ratio(smpl, x, p, h, kernel), low, rtol=1e-13)
        got_high, got_low, got_count = moment_ratio_pair(smpl, x, p, a, h, kernel)
        assert got_count == count == effective_count(smpl, x, h)
        assert_allclose([got_high, got_low], [high, low], rtol=1e-13)


def test_moment_ratio_with_flat_kernel():
    # the flat profile is kept for oracle comparisons; ratios still work
    flat = KernelSpec(profile="uniform_ball", dimension=1)
    rng = np.random.default_rng(13)
    s = Sample(xs=rng.random((100, 1)), ys=np.full(100, 4.0))
    assert_allclose(moment_ratio(s, [0.5], 10.0, 0.3, flat), 0.25, rtol=1e-13)
