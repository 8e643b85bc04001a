"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The convergence study (criteria 7-9) runs once per session and is shared.
"""

import json
import time

import numpy as np
import pytest

from frontier_moments import (
    CovariateDensity,
    EstimatorConfig,
    FrontierModel,
    KernelSpec,
    RateSchedule,
    Sample,
    ScalarField,
    StudyConfig,
    estimate_at,
    moment_brute,
    moment_concentration,
    moment_decomposition,
    moment_equivalent,
    ratio_expansion,
    run_study,
    smoothed_moment,
    smoothed_ratio,
)
from frontier_moments.cli import main as cli_main
from frontier_moments.oracle import LOG_GAMMA_RATIO_BOUND, log_gamma_ratio
from scipy.special import gammaln

K1 = KernelSpec(dimension=1)


def build_model(g=1.0, alpha=1.0, beta=1.0, C=1.0, D0=0.0):
    def lift(v):
        return v if isinstance(v, ScalarField) else ScalarField.constant(v)

    return FrontierModel(
        g=lift(g), alpha=lift(alpha), beta=lift(beta), C=lift(C), D0=lift(D0),
        f=CovariateDensity.uniform(1),
    )


CANONICAL = build_model(g=ScalarField.sinusoid(1.0, 0.5, 1.0))

STUDY_SIZES = (1_000, 4_000, 16_000)
STUDY_REPS = 20
STUDY_SEED = 20260809
RATE_SCHEDULE = RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0)  # c1 = c2 = 1/2
# strictly inside the growth region so the moment concentration actually
# tightens with n; the rate-optimal boundary trades that away for speed
CONCENTRATION_SCHEDULE = RateSchedule(c1=0.2, c2=0.4, d=1, eta_g=1.0, alpha_bar=1.0)


def announce(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def canonical_study():
    config = StudyConfig(
        sizes=STUDY_SIZES, replications=STUDY_REPS, schedule=RATE_SCHEDULE,
        grid_per_axis=101, base_seed=STUDY_SEED,
    )
    start = time.perf_counter()
    report, _ = run_study(CANONICAL, config)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_01_constant_data_identity():
    start = time.perf_counter()
    c = 1.7
    rng = np.random.default_rng(12)
    s = Sample(xs=rng.random((400, 1)), ys=np.full(400, c))
    grid = np.linspace(0.1, 0.9, 9)
    worst = 0.0
    for p in (5.0, 50.0, 500.0):
        for a in (0.5, 1.0, 2.0):
            cfg = EstimatorConfig(p=p, h=0.2, kernel=K1, a=a)
            for x in grid:
                rec = estimate_at(s, [x], cfg)
                assert rec.ok
                worst = max(worst, abs(rec.g_hat - c))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    announce(1, "constant-data identity", ok, f"worst |g_hat - c| = {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_scale_equivariance():
    start = time.perf_counter()
    rng = np.random.default_rng(34)
    s = Sample(xs=rng.random((600, 1)), ys=1.0 + rng.random(600))
    cfg = EstimatorConfig(p=30.0, h=0.2, kernel=K1)
    grid = np.linspace(0.15, 0.85, 9)
    base = [estimate_at(s, [x], cfg).g_hat for x in grid]
    worst = 0.0
    for lam in (0.1, 3.0, 10.0):
        scaled = Sample(xs=s.xs, ys=lam * s.ys)
        for x, b in zip(grid, base):
            got = estimate_at(scaled, [x], cfg).g_hat
            worst = max(worst, abs(got - lam * b) / (lam * b))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    announce(2, "scale equivariance", ok, f"worst relative gap = {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_03_closed_form_moment_oracle():
    start = time.perf_counter()
    m = build_model(alpha=1.0)
    x = np.array([0.5])
    worst_closed = max(
        abs(moment_decomposition(m, x, p).total * (p + 1.0) - 1.0)
        for p in (1.0, 5.0, 50.0, 500.0, 5_000.0, 10_000.0)
    )
    worst_brute = max(
        abs(moment_brute(m, x, p) / moment_decomposition(m, x, p).total - 1.0)
        for p in (1.0, 2.0, 5.0, 25.0, 100.0, 250.0, 500.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-12 and worst_brute <= 1e-8 and elapsed < 5.0
    announce(
        3, "closed-form moment oracle", ok,
        f"closed gap = {worst_closed:.2e}, quadrature gap = {worst_brute:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_04_moment_equivalent_convergence():
    start = time.perf_counter()
    m = build_model(
        g=ScalarField.sinusoid(1.0, 0.05, 1.0),
        alpha=ScalarField.affine(1.0, 0.3),
    )
    xs = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    gaps = []
    for p in (25.0, 100.0, 400.0):
        gaps.append(
            max(abs(smoothed_moment(m, x, p, 1.0 / p, K1) / moment_equivalent(m, x, p) - 1.0) for x in xs)
        )
    elapsed = time.perf_counter() - start
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.05 and elapsed < 10.0
    announce(4, "first-order moment equivalent", ok, f"gaps = {[f'{g:.4f}' for g in gaps]}, {elapsed:.2f}s")
    assert ok


def test_criterion_05_ratio_expansion():
    start = time.perf_counter()
    x = np.array([0.5])
    worst_exact = 0.0
    for g0 in (1.0, 2.0):
        m = build_model(g=g0, alpha=1.0)
        for p in (25.0, 100.0, 400.0):
            gap = abs(smoothed_ratio(m, x, p, 1.0 / p, K1) - ratio_expansion(m, x, p))
            worst_exact = max(worst_exact, gap)
    m_tail = build_model(alpha=1.0, C=0.75, D0=0.25)  # beta = 1
    scaled = []
    for p in (25.0, 100.0, 400.0):
        gap = abs(smoothed_ratio(m_tail, x, p, 1.0 / p, K1) - ratio_expansion(m_tail, x, p))
        scaled.append(gap * p**2)
    spread = max(scaled) / min(scaled)
    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-12 and spread < 3.0 and elapsed < 10.0
    announce(
        5, "consecutive-ratio expansion", ok,
        f"exact-family gap = {worst_exact:.2e}, scaled-gap spread = {spread:.3f}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_06_log_gamma_expansion_bound():
    start = time.perf_counter()
    zs = (5.0, 10.0, 50.0, 100.0, 500.0)
    worst = 0.0
    for z in zs:
        for zp in zs:
            if z == zp:
                continue
            gap = abs(log_gamma_ratio(z, zp) - float(gammaln(z) - gammaln(zp)))
            worst = max(worst, gap / abs(1.0 / z - 1.0 / zp))
    elapsed = time.perf_counter() - start
    ok = worst <= LOG_GAMMA_RATIO_BOUND + 1e-15 and elapsed < 1.0
    announce(
        6, "log-Gamma ratio expansion", ok,
        f"max error/curvature = {worst:.5f} <= 1/12, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_07_sup_error_decreases(canonical_study):
    report, elapsed = canonical_study
    medians = report["aggregate"]["median_sup_error"]
    ok = all(b < a for a, b in zip(medians, medians[1:])) and elapsed < 300.0
    announce(
        7, "uniform consistency at desk scale", ok,
        f"median sup-errors = {[f'{m:.4f}' for m in medians]}, study {elapsed:.1f}s",
    )
    assert ok


def test_criterion_08_rate_slope_and_band(canonical_study):
    report, _ = canonical_study
    slope = report["aggregate"]["log_log_slope"]
    wm = report["aggregate"]["w_times_median_sup_error"]
    spread = max(wm) / min(wm)
    ok = -0.75 <= slope <= -0.25 and spread < 5.0
    announce(
        8, "convergence rate", ok,
        f"log-log slope = {slope:.3f} in [-0.75, -0.25], w*err spread = {spread:.2f} < 5",
    )
    assert ok


def test_criterion_09_moment_concentration():
    start = time.perf_counter()
    config = StudyConfig(
        sizes=STUDY_SIZES, replications=STUDY_REPS, schedule=CONCENTRATION_SCHEDULE,
        grid_per_axis=101, base_seed=STUDY_SEED,
    )
    out = moment_concentration(CANONICAL, config)
    medians = out["median_max_deviation"]
    elapsed = time.perf_counter() - start
    ok = all(b < a for a, b in zip(medians, medians[1:])) and elapsed < 300.0
    announce(
        9, "empirical moment concentration", ok,
        f"median max |ratio - 1| = {[f'{m:.4f}' for m in medians]}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_study_determinism(tmp_path):
    spec = {
        "dimension": 1,
        "g": {"kind": "sinusoid", "a": 1.0, "b": 0.5, "c": [1.0]},
        "alpha": {"kind": "constant", "a": 1.0},
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(spec))
    outs = [tmp_path / f"run{i}.json" for i in range(3)]
    base = [
        "mc-study", "--model", str(model), "--sizes", "500,1000", "--reps", "3",
        "--seed", "42", "--grid", "21", "--c1", "0.5", "--c2", "0.5",
    ]
    assert cli_main(base + ["--workers", "1", "--out", str(outs[0])]) == 0
    assert cli_main(base + ["--workers", "1", "--out", str(outs[1])]) == 0
    assert cli_main(base + ["--workers", "4", "--out", str(outs[2])]) == 0
    identical_reruns = outs[0].read_bytes() == outs[1].read_bytes()
    identical_workers = outs[0].read_bytes() == outs[2].read_bytes()
    ok = identical_reruns and identical_workers
    announce(
        10, "study determinism", ok,
        f"byte-identical across reruns: {identical_reruns}, across worker counts: {identical_workers}",
    )
    assert ok
