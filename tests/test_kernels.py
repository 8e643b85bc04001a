import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from frontier_moments import KernelSpec, kernel_from_name


def test_epanechnikov_1d_values():
    k = KernelSpec(profile="epanechnikov_ball", dimension=1)
    assert_allclose(k.density(np.array([0.0])), 0.75, rtol=1e-13)
    assert_allclose(k.density(np.array([0.5])), 0.5625, rtol=1e-13)  # (3/4)(1 - 0.25)


@pytest.mark.parametrize("profile", ["epanechnikov_ball", "biweight_ball", "uniform_ball"])
def test_vanishes_outside_unit_ball(profile):
    k = KernelSpec(profile=profile, dimension=2)
    assert k.density(np.array([1.5, 0.0])) == 0.0
    assert k.density(np.array([0.9, 0.9])) == 0.0
    rng = np.random.default_rng(0)
    u = rng.normal(size=(200, 2))
    u = u / np.linalg.norm(u, axis=1, keepdims=True) * (1.0 + rng.random((200, 1)))
    assert np.all(k.density(u) == 0.0)


def test_known_normalization_constants():
    # classical 1-d constants and the 2-d Epanechnikov 2/pi
    assert_allclose(KernelSpec("epanechnikov_ball", 1).normalization, 0.75, rtol=1e-13)
    assert_allclose(KernelSpec("biweight_ball", 1).normalization, 15.0 / 16.0, rtol=1e-13)
    assert_allclose(KernelSpec("uniform_ball", 1).normalization, 0.5, rtol=1e-13)
    assert_allclose(KernelSpec("epanechnikov_ball", 2).normalization, 2.0 / math.pi, rtol=1e-13)


@pytest.mark.parametrize("profile", ["epanechnikov_ball", "biweight_ball", "uniform_ball"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_integrates_to_one(profile, d):
    k = KernelSpec(profile=profile, dimension=d)
    if d == 1:
        total, _ = integrate.quad(lambda u: k.density(np.array([u])), -1, 1)
    elif d == 2:
        total, _ = integrate.dblquad(
            lambda y, x: k.density(np.array([x, y])),
            -1,
            1,
            lambda x: -math.sqrt(max(0.0, 1 - x * x)),
            lambda x: math.sqrt(max(0.0, 1 - x * x)),
        )
    else:
        total, _ = integrate.tplquad(
            lambda z, y, x: k.density(np.array([x, y, z])),
            -1,
            1,
            lambda x: -math.sqrt(max(0.0, 1 - x * x)),
            lambda x: math.sqrt(max(0.0, 1 - x * x)),
            lambda x, y: -math.sqrt(max(0.0, 1 - x * x - y * y)),
            lambda x, y: math.sqrt(max(0.0, 1 - x * x - y * y)),
        )
    assert abs(total - 1.0) <= 1e-8


def test_scaled_density_values():
    k1 = KernelSpec(dimension=1)
    x = np.array([0.4])
    assert_allclose(k1.scaled_density(x, x, 0.5), 1.5, rtol=1e-13)  # 0.75 / 0.5
    assert k1.scaled_density(x, np.array([0.9]), 0.5) == 0.0
    assert k1.scaled_density(x, np.array([[0.4], [0.95]]), 0.5)[1] == 0.0
    k2 = KernelSpec(dimension=2)
    x2 = np.array([0.4, 0.6])
    assert_allclose(k2.scaled_density(x2, x2, 0.1), (2.0 / math.pi) / 0.01, rtol=1e-13)


def test_scaled_density_rejects_bad_bandwidth():
    k = KernelSpec(dimension=1)
    with pytest.raises(ValueError, match="bandwidth h must be positive"):
        k.scaled_density(np.array([0.0]), np.array([0.0]), 0.0)
    with pytest.raises(ValueError, match="bandwidth h must be positive"):
        k.scaled_density(np.array([0.0]), np.array([0.0]), -0.2)


def lipschitz_bound(kernel):
    """sup |grad K| for the profile c (1 - r^2)^s with s >= 1."""
    s, c = kernel.degree, kernel.normalization
    if s == 1:
        return 2.0 * c
    # |d/dr (1 - r^2)^s| = 2 s c r (1 - r^2)^(s-1), maximal at r = 1/sqrt(2s - 1)
    r = 1.0 / math.sqrt(2 * s - 1)
    return 2.0 * s * c * r * (1.0 - r * r) ** (s - 1)


@pytest.mark.parametrize("profile", ["epanechnikov_ball", "biweight_ball"])
@pytest.mark.parametrize("d", [1, 2])
def test_lipschitz_bound_on_random_pairs(profile, d):
    k = KernelSpec(profile=profile, dimension=d)
    c = lipschitz_bound(k)
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.2, 1.2, size=(500, d))
    v = rng.uniform(-1.2, 1.2, size=(500, d))
    gaps = np.abs(k.density(u) - k.density(v))
    dists = np.linalg.norm(u - v, axis=1)
    assert np.all(gaps <= c * dists * (1 + 1e-12))


def test_uniform_profile_flagged_as_nonsmooth():
    # the flat profile jumps by its full height across the boundary, so no Lipschitz bound holds
    inside, outside = np.array([[1.0 - 1e-9]]), np.array([[1.0 + 1e-9]])
    flat = KernelSpec(profile="uniform_ball", dimension=1)
    assert flat.density(inside)[0] - flat.density(outside)[0] == flat.normalization
    # a smooth profile vanishes there and keeps its bound across the same gap
    smooth = KernelSpec(dimension=1)
    gap = smooth.density(inside)[0] - smooth.density(outside)[0]
    assert 0.0 < gap <= lipschitz_bound(smooth) * 2e-9 * (1 + 1e-6)


def test_kernel_from_name_aliases():
    assert kernel_from_name("epanechnikov", 2).profile == "epanechnikov_ball"
    assert kernel_from_name("biweight", 1).profile == "biweight_ball"
    assert kernel_from_name("uniform_ball", 1).profile == "uniform_ball"
    with pytest.raises(ValueError):
        kernel_from_name("gaussian", 1)


def test_dimension_mismatch_rejected():
    k = KernelSpec(dimension=2)
    with pytest.raises(ValueError):
        k.density(np.array([0.5]))
    with pytest.raises(ValueError):
        k.scaled_density(np.array([0.5, 0.5, 0.5]), np.zeros((4, 3)), 0.1)


def test_dimension_is_a_whole_number_stored_as_int():
    k = KernelSpec(dimension=2.0)
    assert type(k.dimension) is int and k == KernelSpec(dimension=2)
    assert k.density(np.array([0.1, 0.2])) == KernelSpec(dimension=2).density(np.array([0.1, 0.2]))
    for bad in (True, False, 1.5, 0, -1.0, math.nan, math.inf, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            KernelSpec(dimension=bad)


def density_by_axis_sum(kernel, u):
    """The kernel as it was written before the column-by-column radius: r^2 by np.sum over axis 1."""
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    r2 = np.sum(u2**2, axis=1)
    return kernel.normalization * np.where(r2 < 1.0, (1.0 - r2) ** kernel.degree, 0.0)


def sphere_points(d):
    """Points with ||u||^2 exactly 1 in floating point: +-e_k, and (+-1/2)^4 padded with zeros."""
    eye = np.eye(d)
    points = [eye, -eye]
    if d >= 4:
        half = np.zeros((2, d))
        half[0, :4] = 0.5
        half[1, :4] = [-0.5, 0.5, -0.5, 0.5]
        points.append(half)
    return np.vstack(points)


@pytest.mark.parametrize("profile", ["epanechnikov_ball", "biweight_ball", "uniform_ball"])
@pytest.mark.parametrize("d", range(1, 8))
def test_density_equals_the_axis_sum_bit_for_bit(profile, d):
    k = KernelSpec(profile=profile, dimension=d)
    rng = np.random.default_rng(100 + d)
    sphere = sphere_points(d)
    assert np.all(np.sum(sphere**2, axis=1) == 1.0)
    directions = rng.normal(size=(300, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    u = np.vstack(
        [
            sphere,
            np.nextafter(sphere, 0.0),  # one ulp inside along each nonzero axis
            np.zeros((1, d)),  # the origin
            rng.uniform(-1.2, 1.2, size=(2000, d)),
            directions,  # within rounding of the sphere, on either side
            directions * (1.0 - 1e-15),
            rng.uniform(-1e-3, 1e-3, size=(50, d)),
        ]
    )
    got, want = k.density(u), density_by_axis_sum(k, u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # points on the sphere weigh nothing; the origin weighs the normalization
    assert np.all(k.density(sphere) == 0.0)
    assert k.density(np.zeros(d)) == k.normalization
    for row in u[::97]:
        assert k.density(row) == float(density_by_axis_sum(k, row)[0])


@pytest.mark.parametrize("profile", ["epanechnikov_ball", "biweight_ball", "uniform_ball"])
@pytest.mark.parametrize("d", range(1, 10))
def test_window_weights_equal_scaled_density_bit_for_bit(profile, d):
    # the scan's column-wise pass keeps the pairs with positive weight, each with the bits scaled_density gives it
    k = KernelSpec(profile=profile, dimension=d)
    rng = np.random.default_rng(200 + d)
    h = 0.25
    points = np.vstack([np.full((1, d), 0.5), rng.uniform(0.3, 0.7, size=(4, d))])
    # dyadic offsets: x - h u is exact, so the rows x - h u lie exactly on the ball around x = 0.5
    sphere = sphere_points(d)
    on_ball = np.vstack([0.5 - h * sphere, np.nextafter(0.5 - h * sphere, 0.5), np.nextafter(0.5 - h * sphere, -1.0)])
    xs = np.vstack([on_ball, rng.uniform(0.0, 1.0, size=(400, d))])
    extra = (40, 0, 150, 7, 60)
    counts = np.array(extra) + [on_ball.shape[0], 0, 0, 0, 0]
    rows = np.concatenate([np.arange(on_ball.shape[0])] + [rng.choice(xs.shape[0], c, replace=False) for c in extra])
    want = k.scaled_density(np.repeat(points, counts, axis=0), xs[rows], h)
    inside, weights = k.window_weights(points, counts, xs, rows, h)
    assert inside is not None
    assert np.array_equal(inside, np.flatnonzero(want > 0.0))
    assert weights.dtype == want.dtype and weights.tobytes() == want[want > 0.0].tobytes()
    assert 0 < inside.size < rows.size
    # rows exactly on the ball weigh nothing; one ulp inside, they weigh something
    assert np.all(want[: sphere.shape[0]] == 0.0)
    assert np.all(want[sphere.shape[0] : 2 * sphere.shape[0]] > 0.0)
    # when every candidate is inside, no index comes back
    first = rows[: counts[0]][want[: counts[0]] > 0.0]
    inside, weights = k.window_weights(points[:1], np.array([first.size]), xs, first, h)
    assert inside is None and weights.tobytes() == want[: counts[0]][want[: counts[0]] > 0.0].tobytes()


def test_window_weights_drop_pairs_whose_weight_underflows():
    # at h = 2^1000, a pair with r^2 = 1 - 2^-39 has biweight weight 0.9375 * 2^-78 / 2^1000, which rounds to 0:
    # inside the ball by the radius test, but out of the window, as scaled_density says
    k = KernelSpec(profile="biweight_ball", dimension=1)
    h = 2.0**1000
    xs = -h * np.array([[0.5], [1.0 - 2.0**-40], [0.25], [1.0]])
    rows = np.arange(4)
    want = k.scaled_density(np.zeros((4, 1)), xs, h)
    assert want[1] == 0.0 and np.count_nonzero(want) == 2
    inside, weights = k.window_weights(np.zeros((1, 1)), np.array([4]), xs, rows, h)
    assert inside.tolist() == [0, 2] and weights.tobytes() == want[[0, 2]].tobytes()
