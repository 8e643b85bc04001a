"""The grid path's batched scan against a scan of the whole sample.

``estimate_grid`` hands each grid point only the candidate rows of its
kernel window (``moments.window_rows``): the chord of its ball over each
neighbouring cell.  It weighs every candidate of a chunk of grid points in
one column-wise kernel pass; the kernel's strict test then decides which
candidates are in a window.  Every record must equal, field
for field and exactly, the one a scan of all n rows gives.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frontier_moments import (
    DegenerateGridError,
    EstimatorConfig,
    KernelSpec,
    RateSchedule,
    Sample,
    ScalarField,
    StudyConfig,
    estimate_at,
    estimate_grid,
    evaluation_grid,
    field_range,
    load_model,
    moment_concentration,
    sample,
    schedule,
    sup_error,
)
from frontier_moments import kernels as kernels_module
from frontier_moments import moments as moments_module
from frontier_moments import study as study_module
from frontier_moments.cli import main as cli_main
from frontier_moments.moments import _cells_per_axis, window_rows

ROOT = Path(__file__).resolve().parent.parent
CANONICAL = ROOT / "models" / "canonical.json"
PROFILES = ["epanechnikov_ball", "biweight_ball", "uniform_ball"]


def full_scan(smpl, grid, config):
    """The grid estimate without the index: every grid point scans all n rows (``all_rows``)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(moments_module, "window_rows", all_rows)
        return estimate_grid(smpl, grid, config)


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
@pytest.mark.parametrize(
    "d, n, per_axis, h", [(1, 3000, 41, 0.02), (2, 3000, 9, 0.08), (3, 2000, 4, 0.2), (4, 3000, 4, 0.3)]
)
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


@pytest.mark.parametrize("d", [1, 2, 3])
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


def edge_and_chord_sample(d):
    """(sample, grid, h): rows on the index's cell edges and chord ends, and one ulp either side of each.

    With rows at 0 and 1 on every axis and n large enough, the cells are
    h / 2 = 5/32 wide from origin 0, so every edge k 5/32 is exact.  From
    the grid point 0.5 the edge 10/32 lies 3/16 away, so the 3-4-5
    triangle in sixteenths puts that edge's chord ends x_d +- 4/16 exactly
    on the h = 5/16 ball; the other chords round.  The second grid point
    lies on an edge, and the edge h away from it is skipped.  The third lies
    2^-45 short of h from the edge 15/32, so the chord in the cell beyond
    that edge is about 4e-7 long.
    """
    h = 0.3125
    side = h / 2.0
    edges = side * np.arange(7)
    grid = np.array([[0.5] * d, [3 * side] * (d - 1) + [0.4], [3 * side + h - 2.0**-45] + [0.5] * (d - 1)])
    rng = np.random.default_rng(97 + d)
    rows = [np.zeros((1, d)), np.ones((1, d)), rng.random((400, d))]
    for x in grid:
        # each lead coordinate is x's own or an edge within h of it; the last is x's own or a chord end
        near = [np.concatenate(([x[k]], edges[np.abs(edges - x[k]) <= h])) for k in range(d - 1)]
        for lead in itertools.product(*near):
            delta2 = sum((a - b) ** 2 for a, b in zip(lead, x))
            if delta2 > h * h:
                continue
            chord = np.sqrt(h * h - delta2)
            for shift in (-np.inf, 0.0, np.inf):
                for end in (x[-1] - chord, x[-1], x[-1] + chord):
                    for last in (np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf)):
                        row = np.array([*lead, last])
                        row[:-1] = row[:-1] if shift == 0.0 else np.nextafter(row[:-1], shift)
                        rows.append(row[None, :])
    xs = np.vstack(rows)
    return Sample(xs=xs, ys=np.resize([1.0, 2.5, 0.7, 1.9, 0.4], xs.shape[0])), grid, h


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("d", [2, 3])
def test_rows_on_cell_edges_and_chord_ends(profile, d):
    smpl, grid, h = edge_and_chord_sample(d)
    assert _cells_per_axis(smpl.n, d - 1) - 1 >= 2 / h  # so the cells are h / 2 wide
    u = (grid[0] - smpl.xs) / h
    assert np.count_nonzero(np.sum(u * u, axis=1) == 1.0) >= 4  # the exact chord ends
    records = assert_matches_full_scan(smpl, grid, h, profile)
    assert min(r.effective_count for r in records) > 1


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


@pytest.mark.parametrize("n, axes, want", [(64, 3, 4), (2**60 - 1, 2, 2**30 - 1)])
def test_cells_per_axis_corrects_the_float_root(n, axes, want):
    # 64 ** (1 / 3) is 3.999..., and (2^60 - 1) ** 0.5 rounds up to 2^30
    assert _cells_per_axis(n, axes) == want


def test_cells_per_axis_is_the_integer_root():
    for axes in range(1, 5):
        for n in range(1, 20_001):
            c = _cells_per_axis(n, axes)
            assert c**axes <= n < (c + 1) ** axes


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
    monkeypatch.setattr(moments_module, "window_rows", all_rows)
    assert moment_concentration(model, config) == indexed


def all_rows(smpl, grid, h):
    """``window_rows`` without the index: every grid point is its own chunk, paired with all n rows."""
    return ((slice(g, g + 1), np.arange(smpl.n), np.zeros(smpl.n, dtype=np.intp)) for g in range(len(grid)))


def counting_scans(monkeypatch):
    """Patch ``KernelSpec.window_weights`` to record the candidate count of every call."""
    scanned = []
    original = kernels_module.KernelSpec.window_weights

    def counting(self, points, counts, xs, rows, h):
        scanned.append(len(rows))
        return original(self, points, counts, xs, rows, h)

    monkeypatch.setattr(kernels_module.KernelSpec, "window_weights", counting)
    return scanned


@pytest.mark.parametrize(
    "path, per_axis", [(ROOT / "models" / "canonical.json", 101), (ROOT / "benchmarks" / "models" / "plane_2d.json", 21)]
)
def test_grid_scans_a_fraction_of_the_sample(monkeypatch, path, per_axis):
    # at the study bandwidth a grid point reads fewer than n / 4 rows, not all n
    model = load_model(path)
    n = 4000
    sched = RateSchedule.optimal(model.dimension, model.eta_g, field_range(model.alpha)[1])
    p, h = schedule(n, sched)
    smpl = sample(model, n, seed=3)
    grid = evaluation_grid(model.omega, model.dimension, per_axis)
    chunks = list(window_rows(smpl, grid, h))
    scanned = counting_scans(monkeypatch)
    estimate_grid(smpl, grid, EstimatorConfig(p=p, h=h, kernel=KernelSpec(dimension=model.dimension)))
    # one kernel call per chunk, over exactly that chunk's candidates
    assert scanned == [rows.size for _, rows, _ in chunks]
    assert max(scanned) <= moments_module._CHUNK_ROWS
    candidates = np.concatenate([np.bincount(seg, minlength=c.stop - c.start) for c, _, seg in chunks])
    assert candidates.size == grid.shape[0]
    assert candidates.max() < n / 4


@pytest.mark.parametrize("size_index, n", [(0, 4000), (1, 16000)])
def test_candidates_stay_near_the_window_points(size_index, n):
    # the plane_2d cells of the benchmark's first study: the chords hand the kernel at most 1.4 candidates
    # per window point (about 1.31 here), where whole cells of the box handed it 1.89
    model = load_model(ROOT / "benchmarks" / "models" / "plane_2d.json")
    sched = RateSchedule.optimal(model.dimension, model.eta_g, field_range(model.alpha)[1])
    p, h = schedule(n, sched)
    smpl = sample(model, n, seed=study_module.cell_seed(1000, size_index, 0, 2))
    grid = evaluation_grid(model.omega, 2, 21)
    candidates = sum(rows.size for _, rows, _ in window_rows(smpl, grid, h))
    records = estimate_grid(smpl, grid, EstimatorConfig(p=p, h=h, kernel=KernelSpec(dimension=2)))
    assert candidates <= 1.4 * sum(r.effective_count for r in records)


SCIPY_LOADED = "import sys; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"


def last_line(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    # the package needs only numpy; importing scipy.special alone took about 0.24 s and 23 MB per process
    assert last_line("import frontier_moments.cli\n" + SCIPY_LOADED) == "[]"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert cli_main(["simulate", "--model", str(CANONICAL), "--n", "2000", "--seed", "4", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc-study", "oracle-check"])
def test_cli_commands_leave_scipy_unloaded(tmp_path, dataset, command):
    out = str(tmp_path / "out")
    argv = {
        "simulate": ["simulate", "--model", str(CANONICAL), "--n", "500", "--seed", "1", "--out", out],
        "estimate": ["estimate", str(dataset), "--p", "20", "--h", "0.1", "--grid", "11", "--out", out],
        "mc-study": ["mc-study", "--model", str(CANONICAL), "--sizes", "400,900", "--reps", "1", "--grid", "11", "--out", out],
        "oracle-check": ["oracle-check", "--model", str(CANONICAL), "--out", out],
    }[command]
    code = f"from frontier_moments.cli import main\nassert main({argv!r}) == 0\n" + SCIPY_LOADED
    assert last_line(code) == "[]"


def test_package_import_loads_numpy_random():
    # numpy 2 loads numpy.random lazily, on first use.  Sampling runs only in the
    # forked workers of an mc-study, so unless the import loads it in the parent,
    # every worker of every run_study imports numpy.random again (about 14 ms).
    assert last_line("import sys, frontier_moments\nprint('numpy.random' in sys.modules)") == "True"


@pytest.mark.parametrize("d, per_axis, h", [(1, 41, 0.3), (2, 7, 0.4)])
def test_chunked_grid_equals_one_pass(monkeypatch, d, per_axis, h):
    # a wide bandwidth puts most of the sample in every window; a small chunk bound splits the grid
    smpl = random_sample(300, d, seed=60 + d)
    grid = evaluation_grid((0.05, 0.95), d, per_axis)
    config = EstimatorConfig(p=9.0, h=h, kernel=KernelSpec(dimension=d))
    assert len(list(window_rows(smpl, grid, h))) == 1
    whole = estimate_grid(smpl, grid, config)
    limit = 500
    monkeypatch.setattr(moments_module, "_CHUNK_ROWS", limit)
    chunks = list(window_rows(smpl, grid, h))
    assert len(chunks) > 2
    assert [c[0].start for c in chunks[1:]] == [c[0].stop for c in chunks[:-1]]
    assert chunks[0][0].start == 0 and chunks[-1][0].stop == grid.shape[0]
    for points, rows, _ in chunks:
        assert rows.size <= limit or points.stop - points.start == 1
    scanned = counting_scans(monkeypatch)
    assert estimate_grid(smpl, grid, config) == whole
    assert scanned == [rows.size for _, rows, _ in chunks]


def per_point_reference(smpl, grid, config):
    """(count, high, low) per grid point: one kernel call and np.sum per point over all n rows.

    high and low are None when the window cannot give them.
    """
    p, a, h, kernel = config.p, config.a, config.h, config.kernel
    out = []
    for x in grid:
        weights = kernel.scaled_density(x, smpl.xs, h)
        w, y = weights[weights > 0.0], smpl.ys[weights > 0.0]
        ratios = []
        for q in ((a + 1.0) * p, p):
            if w.size == 0:
                break
            m = float(y.max())
            t = y / m
            tq = t**q
            den = float(np.sum(tq * t * w))
            if den <= 0.0:
                break
            ratios.append(float(np.sum(tq * w)) / (m * den))
        out.append((w.size, *(ratios if len(ratios) == 2 else (None, None))))
    return out


def gapped_sample():
    # responses on [0.2, 0.4) and [0.6, 0.8), one point at 0.51, and two points exactly on
    # the h = 0.125 ball around 0.5
    rng = np.random.default_rng(70)
    xs = np.concatenate([0.2 + 0.2 * rng.random(60), 0.6 + 0.2 * rng.random(60), [0.51, 0.375, 0.625]])
    return Sample(xs=xs[:, None], ys=rng.random(xs.size) + 0.05)


def two_term_sample():
    return sample(load_model(ROOT / "models" / "two_term_tail.json"), 2000, seed=71)  # D0 != 0


def few_large_sample(d):
    # about 1 in 200 responses is 1.0 and the rest 0.1: at p = 1, 1 / g_hat < 0 in a window that holds a large
    # response and more than about 7 small ones per large one, and 1 / g_hat = 10 in one with no large response.
    # No window lands near 0, where the reference's np.sum order would cancel past rtol.
    # Grid points outside [0, 1]^d have empty windows.
    rng = np.random.default_rng(90 + d)
    return Sample(xs=rng.random((600, d)), ys=np.where(rng.random(600) < 0.005, 1.0, 0.1))


def ball_sample_2d():
    # (0.3, 0.3) + (3/16, 4/16) lies exactly at distance h = 5/16
    xs = np.array([[0.3, 0.3], [0.4875, 0.55], [0.31, 0.32], [0.28, 0.29], [0.9, 0.9]])
    return Sample(xs=xs, ys=np.array([0.7, 2.0, 0.9, 0.95, 3.0]))


DIFFERENTIAL = {
    # grid 0.0 and 1.0: empty first and last windows; 0.45: empty between non-empty ones;
    # 0.51: a one-point window at h = 0.05; 0.5 at h = 0.125: points on the ball
    "gaps-and-one-point": (gapped_sample, [[0.0], [0.3], [0.45], [0.51], [0.7], [1.0]], 0.05),
    "on-the-ball": (gapped_sample, [[0.5], [0.375], [0.625]], 0.125),
    "two-term-tail": (two_term_sample, evaluation_grid((0.1, 0.9), 1, 41), 0.02),
    "d2-on-ball": (ball_sample_2d, [[0.3, 0.3], [0.4875, 0.55], [0.0, 1.0], [0.6, 0.6]], 0.3125),
    "d2-random": (lambda: random_sample(1500, 2, seed=72), evaluation_grid((-0.1, 1.1), 2, 9), 0.1),
    "d3-random": (lambda: random_sample(1500, 3, seed=73), evaluation_grid((-0.1, 1.1), 3, 5), 0.2),
    "d1-nonpositive-and-empty": (lambda: few_large_sample(1), evaluation_grid((-0.3, 1.3), 1, 33), 0.1),
    "d2-nonpositive-and-empty": (lambda: few_large_sample(2), evaluation_grid((-0.3, 1.3), 2, 9), 0.2),
}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
def test_batched_grid_matches_per_point_sums(case, profile):
    make, grid, h = DIFFERENTIAL[case]
    smpl, grid = make(), np.asarray(grid, dtype=float)
    kernel = KernelSpec(profile=profile, dimension=smpl.dimension)
    outcomes = set()
    for p, a in ((1.0, 1.0), (7.5, 0.5), (120.0, 2.0)):
        config = EstimatorConfig(p=p, h=h, kernel=kernel, a=a)
        want = per_point_reference(smpl, grid, config)
        records = estimate_grid(smpl, grid, config)
        outcomes |= {"empty" if r.raw_inverse is None else "ok" if r.ok else "nonpositive" for r in records}
        windows = [w for _, w in moments_module.grid_windows(smpl, grid, h, kernel)]
        high = np.concatenate([w.ratio((a + 1.0) * p) for w in windows])
        low = np.concatenate([w.ratio(p) for w in windows])
        assert [r.effective_count for r in records] == [c for c, _, _ in want]
        for x, rec in zip(grid, records):
            assert estimate_at(smpl, x, config) == estimate_grid(smpl, [x], config)[0] == rec
        for rec, hi, lo, (count, want_hi, want_lo) in zip(records, high, low, want):
            if want_hi is None:
                assert rec.raw_inverse is None and not rec.ok
                assert np.isnan(hi) and np.isnan(lo)
                continue
            assert_allclose([hi, lo], [want_hi, want_lo], rtol=1e-13)
            raw = (((a + 1.0) * p + 1.0) * want_hi - (p + 1.0) * want_lo) / (a * p)
            assert_allclose(rec.raw_inverse, raw, rtol=1e-13)
            assert rec.ok == (raw > 0.0)
    if case == "gaps-and-one-point":
        assert [r.effective_count for r in records] == [0, want[1][0], 0, 1, want[4][0], 0]
    if "nonpositive" in case:
        assert outcomes == {"empty", "ok", "nonpositive"}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("d, n, per_axis, h", [(1, 300, 41, 0.05), (2, 400, 9, 0.15), (3, 300, 5, 0.3)])
def test_ratio_is_finite_exactly_where_the_window_has_a_point(profile, d, n, per_axis, h):
    # the row with Y = M has t = 1, so every window with a point has positive mass at any power,
    # however far apart the responses: no window fails but an empty one
    rng = np.random.default_rng(80 + d)
    smpl = Sample(xs=rng.random((n, d)), ys=np.exp(rng.uniform(-700.0, 700.0, n)))
    grid = evaluation_grid((-0.3, 1.3), d, per_axis)
    kernel = KernelSpec(profile=profile, dimension=d)
    windows = [w for _, w in moments_module.grid_windows(smpl, grid, h, kernel)]
    count = np.concatenate([w.count for w in windows])
    assert 0 < np.count_nonzero(count) < count.size
    for q in (1e-300, 1.0, 7.5, 1e3, 1e300):
        ratio = np.concatenate([w.ratio(q) for w in windows])
        assert np.array_equal(np.isfinite(ratio), count > 0)


def scan_by_fancy_indexing(sample, points, h, kernel, rows, seg):
    """``moments._scan`` as it was written before ``np.take``: fancy indexing and boolean masks.

    The kernel weights use the axis-1 ``np.sum`` of the squared offsets,
    as ``KernelSpec.density`` did, so no part of the reference shares the
    new code.
    """
    u = (points[seg] - sample.xs[rows]) / h
    r2 = np.sum(u**2, axis=1)
    weights = kernel.normalization * np.where(r2 < 1.0, (1.0 - r2) ** kernel.degree, 0.0) / h**kernel.dimension
    keep = weights > 0.0
    seg, w, ys = seg[keep], weights[keep], sample.ys[rows[keep]]
    m = np.zeros(points.shape[0])
    np.maximum.at(m, seg, ys)
    return moments_module.Windows(seg=seg, w=w, t=ys / m[seg], m=m, count=np.bincount(seg, minlength=points.shape[0]))


def gather_by_fancy_indexing(order, starts, lengths, per_point):
    """``moments._gather`` as it was written before ``np.take``."""
    ends = np.cumsum(lengths)
    at = np.repeat(starts - (ends - lengths), lengths)
    at += np.arange(at.size)
    seg = np.repeat(np.arange(per_point.size), per_point)
    base = seg * order.size
    rows = order[at]
    rows += base
    rows.sort()
    rows -= base
    return rows, seg


def plane_2d_sample(n):
    return sample(load_model(ROOT / "benchmarks" / "models" / "plane_2d.json"), n, seed=75)  # D0 != 0


FANCY_INDEXING = {
    "d1-canonical": (lambda: sample(load_model(CANONICAL), 4000, seed=76), evaluation_grid((0.1, 0.9), 1, 101), 0.03),
    "d2-plane": (lambda: plane_2d_sample(4000), evaluation_grid((0.1, 0.9), 2, 21), 0.08),
    "d3-random": (lambda: random_sample(3000, 3, seed=77), evaluation_grid((0.05, 0.95), 3, 6), 0.15),
    # beyond d = 3 the index cuts h-wide cells
    "d4-random": (lambda: random_sample(3000, 4, seed=96), evaluation_grid((0.05, 0.95), 4, 4), 0.3),
    # at h = 0.02 most windows of a 300-point plane sample hold no point or one
    "d2-tiny-h": (lambda: plane_2d_sample(300), evaluation_grid((0.1, 0.9), 2, 31), 0.02),
    "d1-gaps-and-one-point": (gapped_sample, [[0.0], [0.3], [0.45], [0.51], [0.7], [1.0]], 0.05),
}


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("case", sorted(FANCY_INDEXING))
def test_scan_equals_the_fancy_indexing_scan(monkeypatch, case, profile):
    make, grid, h = FANCY_INDEXING[case]
    smpl, grid = make(), np.asarray(grid, dtype=float)
    config = EstimatorConfig(p=12.0, h=h, kernel=KernelSpec(profile=profile, dimension=smpl.dimension), a=1.5)
    got = estimate_grid(smpl, grid, config)
    windows = list(moments_module.grid_windows(smpl, grid, h, config.kernel))
    with monkeypatch.context() as m:
        m.setattr(moments_module, "_scan", scan_by_fancy_indexing)
        m.setattr(moments_module, "_gather", gather_by_fancy_indexing)
        want = estimate_grid(smpl, grid, config)
        want_windows = list(moments_module.grid_windows(smpl, grid, h, config.kernel))
    assert len(got) == len(want) == grid.shape[0]
    for g, w in zip(got, want):
        assert (g.x, g.g_hat, g.effective_count, g.raw_inverse) == (w.x, w.g_hat, w.effective_count, w.raw_inverse)
    assert len(windows) == len(want_windows)
    for (points, win), (want_points, want_win) in zip(windows, want_windows):
        assert points.tobytes() == want_points.tobytes()
        for field in ("seg", "w", "t", "m", "count"):
            a, b = getattr(win, field), getattr(want_win, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    counts = {r.effective_count for r in got}
    if "tiny-h" in case or "one-point" in case:
        assert {0, 1} <= counts
    else:
        assert min(counts) > 1
    # the scan filters its candidates only when some lie outside their window: cover both
    candidates = sum(rows.size for _, rows, _ in window_rows(smpl, grid, h))
    in_windows = sum(r.effective_count for r in got)
    assert (candidates == in_windows) == case.startswith("d1")


def test_grid_equals_one_point_path_in_9d():
    # beyond d = 7 the column-by-column radius no longer matches np.sum's order; every path shares it
    smpl = random_sample(400, 9, seed=78)
    grid = np.random.default_rng(79).uniform(0.3, 0.7, size=(6, 9))
    for profile in PROFILES:
        config = EstimatorConfig(p=4.0, h=0.9, kernel=KernelSpec(profile=profile, dimension=9))
        records = estimate_grid(smpl, grid, config)
        assert records == full_scan(smpl, grid, config) == [estimate_at(smpl, x, config) for x in grid]
        assert min(r.effective_count for r in records) > 1


def test_all_empty_grid_is_degenerate():
    smpl = random_sample(200, 2, seed=74, scale=0.2, offset=0.4)
    grid = evaluation_grid((0.0, 0.1), 2, 4)
    records = estimate_grid(smpl, grid, EstimatorConfig(p=5.0, h=0.05, kernel=KernelSpec(dimension=2)))
    assert [r.effective_count for r in records] == [0] * 16
    with pytest.raises(DegenerateGridError, match="all 16 grid points failed"):
        sup_error(records, ScalarField.constant(1.0, dimension=2))

