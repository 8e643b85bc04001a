"""The grid path's window index against a scan of the whole sample.

``estimate_grid`` hands each grid point only the candidate rows of its
kernel window (``moments.window_rows``); the kernel's strict test then
decides which candidates are in the window.  Every record must equal, field
for field and exactly, the one a scan of all n rows gives.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frontier_moments import (
    EstimatorConfig,
    KernelSpec,
    RateSchedule,
    Sample,
    StudyConfig,
    estimate_at,
    estimate_grid,
    evaluation_grid,
    field_range,
    load_model,
    moment_concentration,
    sample,
    schedule,
)
from frontier_moments import kernels as kernels_module
from frontier_moments import study as study_module
from frontier_moments.moments import _cells_per_axis

ROOT = Path(__file__).resolve().parent.parent
PROFILES = ["epanechnikov_ball", "biweight_ball", "uniform_ball"]


def full_scan(smpl, grid, config):
    """The grid estimate without the index: every grid point scans all n rows."""
    return [estimate_at(smpl, x, config) for x in np.atleast_2d(np.asarray(grid, dtype=float))]


def assert_matches_full_scan(smpl, grid, h, profile, p=9.0, a=1.0):
    config = EstimatorConfig(p=p, h=h, kernel=KernelSpec(profile=profile, dimension=smpl.dimension), a=a)
    got = estimate_grid(smpl, grid, config)
    want = full_scan(smpl, grid, config)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.x == w.x
        assert g.g_hat == w.g_hat
        assert g.raw_inverse == w.raw_inverse
        assert g.effective_count == w.effective_count
    return got


def random_sample(n, d, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Sample(xs=offset + scale * rng.random((n, d)), ys=rng.random(n) + 0.05)


def with_rows(xs, ys, extra_xs):
    """A sample of ``xs`` plus the rows ``extra_xs``, responses cycled from ``ys``."""
    rows = np.vstack([xs, extra_xs])
    return Sample(xs=rows, ys=np.resize(ys, rows.shape[0]))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("d, n, per_axis, h", [(1, 3000, 41, 0.02), (2, 3000, 9, 0.08), (3, 2000, 4, 0.2)])
def test_random_samples(profile, d, n, per_axis, h):
    smpl = random_sample(n, d, seed=10 + d)
    records = assert_matches_full_scan(smpl, evaluation_grid((0.05, 0.95), d, per_axis), h, profile)
    assert sum(r.ok for r in records) > len(records) // 2


@pytest.mark.parametrize("profile", PROFILES)
def test_points_exactly_on_the_ball_and_one_ulp_inside(profile):
    # dyadic numbers, so x - X and (x - X) / h are exact: r^2 is exactly 1 on the ball
    h = 0.125
    x = 0.5
    on = [x - h, x + h]
    inside = [np.nextafter(x - h, 1.0), np.nextafter(x + h, 0.0)]
    smpl = Sample(xs=np.array(on + inside + [0.2, 0.9])[:, None], ys=np.array([3.0, 2.5, 1.0, 1.5, 0.4, 0.6]))
    (rec,) = assert_matches_full_scan(smpl, [[x]], h, profile)
    assert rec.effective_count == 2
    # non-dyadic bandwidth: points at x +- h as floats may round either side of the ball
    h = 0.1
    grid = np.linspace(0.2, 0.8, 7)[:, None]
    around = np.concatenate([grid[:, 0] + h, grid[:, 0] - h])
    near = np.concatenate([around, np.nextafter(around, 0.0), np.nextafter(around, 1.0)])
    assert_matches_full_scan(with_rows(near[:, None], [1.0, 2.0, 0.5], np.empty((0, 1))), grid, h, profile)


@pytest.mark.parametrize("profile", PROFILES)
def test_points_exactly_on_the_ball_in_2d(profile):
    # a 3-4-5 triangle in sixteenths: (3/16, 4/16) lies exactly at distance h = 5/16
    h = 0.3125
    x = np.array([0.5, 0.5])
    on = x + np.array([[0.1875, 0.25], [-0.25, 0.1875], [0.0, -h], [h, 0.0]])
    inside = on.copy()
    inside[:, 0] = np.nextafter(inside[:, 0], x[0])
    inside[2, 1] = np.nextafter(inside[2, 1], x[1])
    smpl = with_rows(on, [2.0, 1.0, 0.5, 3.0], np.vstack([inside, [[0.05, 0.05]]]))
    assert_matches_full_scan(smpl, [x], h, profile)
    # the radius-0.05 ball around (0.3, 0.3): (0.33, 0.26) sits on it, and rounds inside ||X - x||^2 < h^2
    smpl = Sample(xs=np.array([[0.3, 0.3], [0.33, 0.26], [0.31, 0.32], [0.9, 0.9]]), ys=np.array([0.7, 2.0, 0.9, 3.0]))
    assert_matches_full_scan(smpl, [[0.3, 0.3], [0.33, 0.26]], 0.05, profile)


@pytest.mark.parametrize("d", [1, 2])
def test_large_coordinates_with_a_small_bandwidth(d):
    # near 1e6 one ulp is about 1.2e-10, so the bounds x +- h round on the scale of x, not of h
    h = 1e-3
    smpl = random_sample(4000, d, seed=30, scale=0.02, offset=1e6)
    grid = 1e6 + evaluation_grid((0.002, 0.018), d, 9 if d == 1 else 5)
    edge = grid.copy()
    edge[:, 0] += h
    smpl = with_rows(smpl.xs, smpl.ys, np.vstack([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]))
    for profile in PROFILES:
        records = assert_matches_full_scan(smpl, grid, h, profile)
        assert any(r.ok for r in records)


def test_grid_points_outside_the_sample_have_empty_windows():
    for d in (1, 2, 3):
        smpl = random_sample(500, d, seed=40 + d, scale=0.3, offset=0.35)
        grid = np.vstack([np.full(d, -0.5), np.full(d, 2.0), np.full(d, 0.5), np.full(d, 0.0)])
        grid[3, -1] = 0.5  # in d >= 2: inside on the last axis only
        records = assert_matches_full_scan(smpl, grid, 0.05, "epanechnikov_ball")
        assert [r.effective_count for r in records[:2]] == [0, 0]
        assert records[2].ok
        assert records[3].effective_count == (0 if d > 1 else records[2].effective_count)


def test_duplicated_covariates_and_a_one_point_window():
    for d in (1, 2):
        tied = np.full((40, d), 0.5)
        smpl = with_rows(tied, np.linspace(0.5, 2.0, 7), np.vstack([np.full((1, d), 0.2), np.full((3, d), 0.8)]))
        grid = np.vstack([np.full(d, 0.5), np.full(d, 0.21), np.full(d, 0.79), np.full(d, 0.35)])
        records = assert_matches_full_scan(smpl, grid, 0.05, "biweight_ball")
        assert [r.effective_count for r in records] == [40, 1, 3, 0]


@pytest.mark.parametrize("d, n", [(2, 30), (3, 60)])
def test_tiny_bandwidth_caps_the_cell_count(d, n):
    # h = 1e-9 would give 1e9 cells per axis; the index keeps at most n cells in all
    h = 1e-9
    cap = _cells_per_axis(n, d - 1)
    assert cap ** (d - 1) <= n < (cap + 1) ** (d - 1)
    smpl = random_sample(n, d, seed=50)
    grid = np.vstack([smpl.xs[:5], np.nextafter(smpl.xs[:5], 0.0), evaluation_grid((0.1, 0.9), d, 3)])
    records = assert_matches_full_scan(smpl, grid, h, "epanechnikov_ball")
    assert [r.effective_count for r in records[:10]] == [1] * 10


@pytest.mark.parametrize("path", [ROOT / "models" / "two_term_tail.json", ROOT / "benchmarks" / "models" / "plane_2d.json"])
def test_moment_concentration_matches_full_scan(monkeypatch, path):
    model = load_model(path)
    sched = RateSchedule.optimal(model.dimension, model.eta_g, field_range(model.alpha)[1])
    config = StudyConfig(sizes=(1000, 2000), replications=1, schedule=sched)
    # the quadrature truth does not depend on the scan; a stand-in keeps the test fast
    monkeypatch.setattr(study_module, "smoothed_moment", lambda *args: 1.0)
    indexed = moment_concentration(model, config)
    monkeypatch.setattr(study_module, "window_rows", lambda smpl, grid, h: [None] * len(grid))
    assert moment_concentration(model, config) == indexed


@pytest.mark.parametrize(
    "path, per_axis", [(ROOT / "models" / "canonical.json", 101), (ROOT / "benchmarks" / "models" / "plane_2d.json", 21)]
)
def test_grid_scans_a_fraction_of_the_sample(monkeypatch, path, per_axis):
    # at the study bandwidth a grid point reads fewer than n / 4 rows, not all n
    model = load_model(path)
    n = 4000
    sched = RateSchedule.optimal(model.dimension, model.eta_g, field_range(model.alpha)[1])
    p, h = schedule(n, sched)
    scanned = []
    original = kernels_module.KernelSpec.scaled_density

    def counting(self, x, xs, h):
        scanned.append(len(xs))
        return original(self, x, xs, h)

    monkeypatch.setattr(kernels_module.KernelSpec, "scaled_density", counting)
    grid = evaluation_grid(model.omega, model.dimension, per_axis)
    estimate_grid(sample(model, n, seed=3), grid, EstimatorConfig(p=p, h=h, kernel=KernelSpec(dimension=model.dimension)))
    assert len(scanned) == grid.shape[0]
    assert max(scanned) < n / 4


def test_cli_import_leaves_scipy_spatial_unloaded():
    # scipy.spatial alone adds about 11 MB of resident memory to every run
    code = "import sys, frontier_moments.cli; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
