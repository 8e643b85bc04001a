import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frontier_moments import (
    CovariateDensity,
    FrontierModel,
    MarginalDensity,
    ModelError,
    Sample,
    ScalarField,
    evaluation_grid,
    load_model,
    model_from_dict,
    model_to_dict,
    quantile,
    sample,
    save_model,
    survival,
    survival_values,
    validate,
)
from frontier_moments import model as model_module
from frontier_moments.model import _quantile_batch, _tail_fields, _tail_survival

ROOT = Path(__file__).resolve().parent.parent


def conditional_normalized_sample(model: FrontierModel, x, n: int, seed: int) -> np.ndarray:
    """Draws of Y / g(x) at a fixed covariate value x."""
    rng = np.random.default_rng(seed)
    u = np.minimum(1.0 - rng.random(n), 1.0 - 2.0**-53)
    return _quantile_batch(model, np.tile(np.asarray(x, dtype=float), (n, 1)), u)


def make_model(**overrides) -> FrontierModel:
    fields = dict(
        g=ScalarField.constant(1.0),
        alpha=ScalarField.constant(1.0),
        beta=ScalarField.constant(1.0),
        C=ScalarField.constant(1.0),
        D0=ScalarField.constant(0.0),
        f=CovariateDensity.uniform(1),
        dimension=1,
    )
    fields.update(overrides)
    return FrontierModel(**fields)


CANONICAL = make_model(g=ScalarField.sinusoid(1.0, 0.5, 1.0))


class TestScalarField:
    def test_forms(self):
        x = np.array([[0.25], [0.5]])
        assert_allclose(ScalarField.constant(2.0).values(x), [2.0, 2.0])
        assert_allclose(ScalarField.affine(1.0, 2.0).values(x), [1.5, 2.0])
        sin = ScalarField.sinusoid(1.0, 0.5, 1.0)
        assert_allclose(sin.values(x), [1.5, 1.0], atol=1e-15)
        assert sin([0.75]) == pytest.approx(0.5)

    def test_sinusoid_amplitude_must_stay_below_mean(self):
        with pytest.raises(ModelError):
            ScalarField.sinusoid(1.0, 1.0, 1.0)
        with pytest.raises(ModelError):
            ScalarField.sinusoid(0.5, -0.7, 1.0)

    def test_affine_needs_one_slope_per_axis(self):
        f = ScalarField.affine(1.0, (0.5, -0.25), dimension=2)
        assert f([0.0, 1.0]) == pytest.approx(0.75)
        with pytest.raises(ModelError):
            ScalarField.affine(1.0, (0.5,), dimension=2)

    def test_dict_round_trip(self):
        for f in (
            ScalarField.constant(0.25),
            ScalarField.affine(1.0, (0.5, -0.25), dimension=2),
            ScalarField.sinusoid(1.0, 0.5, (1.0, 2.0), dimension=2),
        ):
            assert ScalarField.from_dict(f.to_dict(), f.dimension) == f

    def test_scalar_frequency_accepted_in_one_dimension(self):
        spec = {"kind": "sinusoid", "a": 1.0, "b": 0.5, "c": 1.0}
        assert ScalarField.from_dict(spec, 1) == ScalarField.sinusoid(1.0, 0.5, [1.0])


class TestMarginalDensity:
    def test_linear_requires_moderate_slope(self):
        with pytest.raises(ModelError):
            MarginalDensity(kind="linear", slope=2.0)

    def test_ppf_inverts_cdf(self):
        marg = MarginalDensity(kind="linear", slope=1.5)
        u = np.linspace(0.0, 1.0, 101)
        assert_allclose(marg.cdf(marg.ppf(u)), u, atol=1e-13)
        uniform = MarginalDensity()
        assert_allclose(uniform.ppf(u), u, atol=1e-15)

    def test_linear_sampling_matches_mean(self):
        # E X = 1/2 + slope/12 under density 1 + slope (t - 1/2)
        slope = 1.0
        f = CovariateDensity(marginals=(MarginalDensity(kind="linear", slope=slope),))
        m = make_model(f=f)
        s = sample(m, 20000, seed=21)
        assert abs(s.xs.mean() - (0.5 + slope / 12.0)) < 0.01


class TestSurvival:
    def test_alpha_one_is_linear(self):
        assert survival(CANONICAL, [0.3], 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints(self):
        for y, want in ((0.0, 1.0), (1.0, 0.0)):
            assert survival(CANONICAL, [0.3], y) == pytest.approx(want, abs=1e-15)

    def test_two_term_tail(self):
        m = make_model(
            alpha=ScalarField.constant(2.0),
            C=ScalarField.constant(0.75),
            D0=ScalarField.constant(0.25),
        )
        # 0.75 * 0.25 + 0.25 * 0.125
        assert survival(m, [0.5], 0.5) == pytest.approx(0.21875, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            survival(CANONICAL, [0.3], 1.5)
        with pytest.raises(ValueError):
            survival(CANONICAL, [0.3], -0.1)


class TestQuantile:
    def test_linear_case(self):
        assert quantile(CANONICAL, [0.3], 0.25) == pytest.approx(0.75, abs=1e-12)

    def test_full_survival_maps_to_zero(self):
        assert quantile(CANONICAL, [0.3], 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_square_tail(self):
        m = make_model(alpha=ScalarField.constant(2.0))
        assert quantile(m, [0.3], 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_identity(self):
        m = make_model(
            alpha=ScalarField.affine(1.0, 0.5),
            beta=ScalarField.constant(2.0),
            C=ScalarField.constant(0.6),
            D0=ScalarField.constant(0.4),
        )
        for x in (0.1, 0.45, 0.8):
            for y in np.linspace(0.05, 0.95, 7):
                u = survival(m, [x], float(y))
                assert quantile(m, [x], u) == pytest.approx(y, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quantile(CANONICAL, [0.3], 0.0)
        with pytest.raises(ValueError):
            quantile(CANONICAL, [0.3], 1.2)

    def test_detects_broken_mass_at_zero(self):
        m = make_model(C=ScalarField.constant(0.5), D0=ScalarField.constant(0.3))
        with pytest.raises(ModelError):
            quantile(m, [0.3], 0.9)

    def test_detects_rising_survival(self):
        m = make_model(
            C=ScalarField.constant(10.0),
            D0=ScalarField.constant(-9.0),
            beta=ScalarField.constant(3.0),
        )
        with pytest.raises(ModelError):
            quantile(m, [0.3], 0.5)


def bisection_quantile(model: FrontierModel, xs, us) -> np.ndarray:
    """Reference: 100 bisection steps on y in [0, 1], the sampler's former inversion."""
    fields = _tail_fields(model, xs)
    lo, hi = np.zeros_like(us), np.ones_like(us)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        right = _tail_survival(fields, 1.0 - mid) >= us
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


# u = 1 gives y = 0; 1 - 2^-53 is the largest level sampling uses, where the plain
# 1 - u^(1/3) rounds to 0; and the smallest positive doubles
EDGE_LEVELS = np.array([1.0, 1.0 - 2.0**-53, 0.5, 2.0**-53, 1e-300, 5e-324])


def draws_with_edges(model: FrontierModel, n: int, seed: int):
    """(xs, us): n sampling-style draws, then EDGE_LEVELS at the centre of the support."""
    rng = np.random.default_rng(seed)
    d = model.dimension
    xs = np.concatenate([model.f.ppf(rng.random((n, d))), np.full((EDGE_LEVELS.size, d), 0.5)])
    us = np.concatenate([np.minimum(1.0 - rng.random(n), 1.0 - 2.0**-53), EDGE_LEVELS])
    return xs, us


ONE_TERM_MODELS = {
    "alpha-3": make_model(alpha=ScalarField.constant(3.0)),
    "fractional-alpha": make_model(alpha=ScalarField.affine(1.3, 0.4)),
    "C-zero": make_model(beta=ScalarField.constant(0.5), C=ScalarField.constant(0.0), D0=ScalarField.constant(1.0)),
}

REFERENCE_MODELS = {
    "canonical": load_model(ROOT / "models" / "canonical.json"),
    "two-term-tail": load_model(ROOT / "models" / "two_term_tail.json"),
    "plane-2d": load_model(ROOT / "benchmarks" / "models" / "plane_2d.json"),
    "fractional-alpha-two-term": make_model(
        alpha=ScalarField.affine(1.3, 0.4),
        beta=ScalarField.constant(0.5),
        C=ScalarField.constant(0.6),
        D0=ScalarField.constant(0.4),
    ),
    "negative-D0": make_model(
        alpha=ScalarField.constant(2.0),
        C=ScalarField.constant(1.2),
        D0=ScalarField.constant(-0.2),
    ),
    "C-zero": ONE_TERM_MODELS["C-zero"],
    # D0 = 0 at x = 0.5 only, where draws_with_edges puts its edge levels: a batch of one- and two-term rows
    "D0-crosses-zero": make_model(C=ScalarField.affine(1.25, -0.5), D0=ScalarField.affine(-0.25, 0.5)),
}

# constant tail fields with alpha > 0 and beta > 0; the last two rise somewhere in y
MONOTONE_CORPUS = {
    "canonical": CANONICAL,
    "two-term": make_model(C=ScalarField.constant(0.75), D0=ScalarField.constant(0.25)),
    "flat-start": make_model(C=ScalarField.constant(1.5), D0=ScalarField.constant(-0.5), beta=ScalarField.constant(2.0)),
    "C3-D0-minus-2": make_model(C=ScalarField.constant(3.0), D0=ScalarField.constant(-2.0)),
    "rises-near-zero": make_model(C=ScalarField.constant(1.5), D0=ScalarField.constant(-0.5), beta=ScalarField.constant(2.01)),
}


class TestQuantileInversion:
    @pytest.mark.parametrize("model", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
    def test_matches_bisection_reference(self, model):
        for seed in (31, 32):
            xs, us = draws_with_edges(model, 10000, seed)
            got = _quantile_batch(model, xs, us)
            assert np.max(np.abs(got - bisection_quantile(model, xs, us))) <= 1e-15
            assert np.all(got[us < 1.0] > 0.0) and np.all(got <= 1.0)
        assert quantile(model, np.full(model.dimension, 0.5), 1.0) == 0.0

    def test_mixed_batch_equals_per_row_quantile(self):
        # the x = 0.5 rows are solved in closed form, the others by Newton on the batch's two-term part
        model = REFERENCE_MODELS["D0-crosses-zero"]
        assert validate(model).ok
        xs = np.array([[0.1], [0.5], [0.9], [0.5], [0.3]])
        us = np.array([0.3, 0.3, 0.7, 0.9, 0.05])
        want = np.array([quantile(model, x, u) for x, u in zip(xs, us)])
        assert _quantile_batch(model, xs, us).tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", ONE_TERM_MODELS.values(), ids=ONE_TERM_MODELS.keys())
    def test_one_term_rows_are_closed_form(self, model):
        # with one term left, -expm1(log u / exponent) is the answer to the last bit
        xs, us = draws_with_edges(model, 10000, seed=33)
        exponent = model.alpha.values(xs) + (model.beta.values(xs) if model.C.a == 0.0 else 0.0)
        got = _quantile_batch(model, xs, us)
        assert np.array_equal(got, -np.expm1(np.log(us) / exponent))
        assert np.all(got[us < 1.0] > 0.0)

    @pytest.mark.parametrize("name", ["two-term-tail", "plane-2d"])
    def test_shipped_two_term_models_never_bisect(self, monkeypatch, name):
        def no_bisection(*args):
            raise AssertionError("a row fell back to bisection")

        monkeypatch.setattr(model_module, "_bisect", no_bisection)
        model = REFERENCE_MODELS[name]
        for seed in (1, 2, 3):
            sample(model, 20000, seed)
        _quantile_batch(model, *draws_with_edges(model, 1000, seed=34))

    def test_bracket_fallback_matches_newton(self, monkeypatch):
        # with no Newton step allowed, every row is finished by bisection on its bracket
        model = REFERENCE_MODELS["negative-D0"]
        xs, us = draws_with_edges(model, 2000, seed=35)
        newton = _quantile_batch(model, xs, us)
        monkeypatch.setattr(model_module, "_NEWTON_STEPS", 0)
        assert np.max(np.abs(_quantile_batch(model, xs, us) - newton)) <= 1e-15

    @pytest.mark.parametrize(
        "fields",
        [
            dict(C=ScalarField.constant(1.5), D0=ScalarField.constant(-0.5), beta=ScalarField.constant(2.1)),
            dict(alpha=ScalarField.affine(0.2, -0.4)),
            dict(C=ScalarField.constant(0.5), D0=ScalarField.constant(0.5), beta=ScalarField.constant(0.0)),
        ],
        ids=["rises-near-zero", "alpha-not-positive", "beta-zero-two-term"],
    )
    def test_non_monotone_survival_rejected_at_any_level(self, fields):
        # the first model rises only over y < 0.02, far from the root at u = 0.5
        with pytest.raises(ModelError, match="non-monotone"):
            quantile(make_model(**fields), [0.7], 0.5)

    def test_flat_start_is_accepted(self):
        # C alpha + D0 (alpha + beta) = 0: S is flat at y = 0 and decreasing after it
        model = make_model(C=ScalarField.constant(1.5), D0=ScalarField.constant(-0.5), beta=ScalarField.constant(2.0))
        assert quantile(model, [0.5], 1.0) == 0.0
        y = quantile(model, [0.5], 0.5)
        assert survival(model, [0.5], y) == pytest.approx(0.5, abs=1e-15)


class TestValidate:
    def test_canonical_passes(self):
        report = validate(CANONICAL)
        assert report.ok
        assert not report.failures

    def test_broken_mass(self):
        report = validate(make_model(C=ScalarField.constant(0.5), D0=ScalarField.constant(0.3)))
        failed = {c.name for c in report.failures}
        assert "C_plus_D0_equals_one" in failed
        worst = next(c for c in report.failures if c.name == "C_plus_D0_equals_one")
        assert worst.worst_value == pytest.approx(0.8)

    def test_two_term_model_is_monotone(self):
        m = make_model(
            alpha=ScalarField.constant(2.0),
            C=ScalarField.constant(0.75),
            D0=ScalarField.constant(0.25),
        )
        report = validate(m)
        assert report.ok

    def test_nonmonotone_detected(self):
        for m in (MONOTONE_CORPUS["C3-D0-minus-2"], MONOTONE_CORPUS["rises-near-zero"]):
            failed = {c.name for c in validate(m).failures}
            assert "survival_nonincreasing" in failed

    def test_survival_check_reports_the_exact_margin(self):
        # worst value min(C alpha, C alpha + D0 (alpha + beta)) over the grid, at a point with no y coordinate
        m = make_model(
            alpha=ScalarField.affine(1.0, -0.5),
            beta=ScalarField.constant(2.5),
            C=ScalarField.constant(1.5),
            D0=ScalarField.constant(-0.5),
        )
        check = next(c for c in validate(m).checks if c.name == "survival_nonincreasing")
        assert not check.passed
        assert check.worst_value == pytest.approx(1.5 * 0.5 - 0.5 * (0.5 + 2.5))  # at x = 1, alpha = 0.5
        assert check.worst_point == (1.0,) and type(check.worst_point[0]) is float

    @pytest.mark.parametrize("model", MONOTONE_CORPUS.values(), ids=MONOTONE_CORPUS.keys())
    def test_survival_verdict_matches_dense_levels(self, model):
        # the fields are constant, so one covariate value shows the survival everywhere
        t = np.geomspace(1e-12, 0.5, 4000)
        ys = np.unique(np.concatenate([[0.0], t, 1.0 - t, [1.0]]))
        s = survival_values(model, np.full((ys.size, 1), 0.5), ys)
        rise = np.max(s[1:] - np.minimum.accumulate(s)[:-1])
        check = next(c for c in validate(model).checks if c.name == "survival_nonincreasing")
        assert check.passed == (rise <= 1e-12)

    def test_negative_field_detected(self):
        m = make_model(g=ScalarField.affine(0.1, -0.2))
        failed = {c.name for c in validate(m).failures}
        assert "g_positive" in failed


SAMPLE_ROWS = model_module._SAMPLE_ROWS
BLOCK_MODELS = {
    "canonical": ROOT / "models" / "canonical.json",  # closed form
    "two_term_tail": ROOT / "models" / "two_term_tail.json",  # Newton
    "plane_2d": ROOT / "benchmarks" / "models" / "plane_2d.json",  # d = 2, affine fields
}


def whole_sample(model: FrontierModel, n: int, seed: int) -> Sample:
    """The same draws as ``sample``, with the inverse survival solved in one call over all n rows."""
    rng = np.random.default_rng(seed)
    xs = model.f.ppf(rng.random((n, model.dimension)))
    u = np.minimum(1.0 - rng.random(n), 1.0 - 2.0**-53)
    return Sample(xs=xs, ys=model.g.values(xs) * _quantile_batch(model, xs, u))


class TestSampling:
    def test_deterministic(self):
        s1 = sample(CANONICAL, 500, seed=9)
        s2 = sample(CANONICAL, 500, seed=9)
        assert np.array_equal(s1.xs, s2.xs)
        assert np.array_equal(s1.ys, s2.ys)
        s3 = sample(CANONICAL, 500, seed=10)
        assert not np.array_equal(s1.ys, s3.ys)

    def test_responses_below_frontier_and_positive(self):
        s = sample(CANONICAL, 2000, seed=4)
        assert np.all(s.ys > 0.0)
        assert np.all(s.ys <= CANONICAL.g.values(s.xs))

    def test_tail_fraction_matches_survival(self):
        # survival(0.9) = 0.1 for the linear tail; binomial 4-sigma band
        s = sample(CANONICAL, 1000, seed=13)
        frac = np.mean(s.ys / CANONICAL.g.values(s.xs) > 0.9)
        assert abs(frac - 0.1) < 4.0 * np.sqrt(0.1 * 0.9 / 1000)

    def test_uniform_covariate_mean(self):
        s = sample(CANONICAL, 10000, seed=2)
        assert abs(s.xs.mean() - 0.5) < 0.02

    def test_conditional_distribution_ks(self):
        # empirical CDF of Y/g(x) at fixed x against 1 - survival; 99% band
        m = make_model(
            alpha=ScalarField.constant(2.0),
            C=ScalarField.constant(0.75),
            D0=ScalarField.constant(0.25),
        )
        n = 2000
        x = [0.37]
        ys = np.sort(conditional_normalized_sample(m, x, n, seed=11))
        cdf = 1.0 - survival_values(m, np.tile(x, (n, 1)), ys)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - (steps - 1.0 / n))))
        assert ks <= 1.63 / np.sqrt(n)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            sample(CANONICAL, 0, seed=1)

    @pytest.mark.parametrize("n", [SAMPLE_ROWS - 1, SAMPLE_ROWS, SAMPLE_ROWS + 1, 2 * SAMPLE_ROWS + 1])
    @pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
    def test_blocks_match_one_whole_sample_solve(self, name, n):
        model = load_model(BLOCK_MODELS[name])
        got, want = sample(model, n, seed=n), whole_sample(model, n, seed=n)
        assert got.xs.tobytes() == want.xs.tobytes()
        assert got.ys.tobytes() == want.ys.tobytes()

    def test_no_block_of_one_row(self, monkeypatch):
        # with blocks of 4 rows, every n = 4k + 1 would leave one row alone, the case numpy rounds unlike gemv
        monkeypatch.setattr(model_module, "_SAMPLE_ROWS", 4)
        spec = {"dimension": 2, "g": {"kind": "sinusoid", "a": 1.0, "b": 0.9, "c": [1.0, 3.0]}, "alpha": {"kind": "constant", "a": 1.0}}
        model = model_from_dict(spec)
        for n in range(1, 42):
            assert sample(model, n, seed=n).ys.tobytes() == whole_sample(model, n, seed=n).ys.tobytes(), n

    @pytest.mark.parametrize("case", ["non-monotone", "level above C + D0", "both"])
    def test_error_from_a_later_block_is_the_whole_sample_error(self, monkeypatch, case):
        monkeypatch.setattr(model_module, "_SAMPLE_ROWS", 16)
        n, seed = 256, 3
        xs = np.random.default_rng(seed).random(n)  # the uniform covariates sample draws
        top = int(xs.argmax())
        assert top >= 16 and xs[:16].max() < xs[top] - 1e-3
        fields = {}
        if case == "non-monotone":
            fields["alpha"] = ScalarField.affine(xs[top], [-1.0])  # alpha <= 0 at the largest covariate only
        else:
            # C(x) = 1000 (c - x): C + D0 is 0, below every level, at x = c, and C < 0 (non-monotone) beyond c.
            # In "both", c is the largest covariate before the block of the largest one, so an earlier
            # block fails only the level check and a later one the monotone check, which is named first.
            c = xs[top] if case == "level above C + D0" else xs[: top - top % 16].max()
            fields["C"] = ScalarField.affine(1000.0 * c, [-1000.0])
        model = make_model(**fields)
        with pytest.raises(ModelError) as want:
            whole_sample(model, n, seed)
        with pytest.raises(ModelError) as got:
            sample(model, n, seed)
        assert str(got.value) == str(want.value)


class TestSampleType:
    def test_invariants(self):
        with pytest.raises(ValueError, match=r"^xs must have shape \(n, d\)$"):
            Sample(xs=np.zeros(3), ys=np.ones(3))
        with pytest.raises(ValueError):
            Sample(xs=np.zeros((3, 1)), ys=np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(xs=np.zeros((3, 1)), ys=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Sample(xs=np.zeros((0, 1)), ys=np.zeros(0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                Sample(xs=np.array([[0.5], [bad]]), ys=np.ones(2))
            with pytest.raises(ValueError, match="finite"):
                Sample(xs=np.full((2, 1), 0.5), ys=np.array([1.0, bad]))

    def test_arrays_are_frozen(self):
        s = Sample(xs=np.ones((2, 1)), ys=np.ones(2))
        with pytest.raises(ValueError):
            s.ys[0] = 3.0


class TestModelConfig:
    def test_dict_round_trip(self):
        m = make_model(
            g=ScalarField.sinusoid(1.0, 0.25, 1.0),
            alpha=ScalarField.affine(1.0, 0.5),
            omega=(0.2, 0.8),
            eta_g=1.0,
        )
        again = model_from_dict(model_to_dict(m))
        assert again == m

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(CANONICAL, path)
        assert load_model(path) == CANONICAL
        again = tmp_path / "again.json"
        model_module.dump_json(model_to_dict(CANONICAL), again)
        assert path.read_bytes() == again.read_bytes()

    def test_defaults_fill_in(self):
        spec = {"dimension": 1, "g": {"kind": "constant", "a": 1.0}, "alpha": {"kind": "constant", "a": 1.0}}
        m = model_from_dict(spec)
        assert m.C.a == 1.0 and m.D0.a == 0.0
        assert m.omega == (0.1, 0.9)

    def test_missing_required_field(self):
        with pytest.raises(ModelError):
            model_from_dict({"dimension": 1, "g": {"kind": "constant", "a": 1.0}})

    def test_schema_example_from_docs(self, tmp_path):
        spec = {
            "dimension": 1,
            "g": {"kind": "sinusoid", "a": 1.0, "b": 0.5, "c": [1.0]},
            "alpha": {"kind": "constant", "a": 1.0},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        m = load_model(path)
        assert m == CANONICAL

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ModelError):
            make_model(g=ScalarField.constant(1.0, dimension=2))

    def test_omega_inside_support(self):
        with pytest.raises(ModelError):
            make_model(omega=(0.5, 1.5))

    @pytest.mark.parametrize(
        "d, overrides, message",
        [
            (17, {}, "field 'dimension' must be between 1 and 16, got 17"),
            (1, dict(dimension=0), "field 'dimension' must be between 1 and 16, got 0"),
            (1, dict(dimension=1.5), "field 'dimension' must be a whole number, got 1.5"),
            (1, dict(dimension=True), "field 'dimension' must be a number, got True"),
            (1, dict(omega=(0.1, 0.5, 0.9)), "field 'omega' must be two numbers, got (0.1, 0.5, 0.9)"),
            (1, dict(omega=0.5), "field 'omega' must be two numbers, got 0.5"),
            (1, dict(omega=("a", "b")), "field 'omega' must be two numbers, got ('a', 'b')"),
            (1, dict(f=CovariateDensity.uniform(2)), "covariate density dimension does not match the model"),
        ],
        ids=["dimension-17", "dimension-zero", "dimension-fractional", "dimension-bool", "omega-three-numbers",
             "omega-scalar", "omega-strings", "f-dimension"],
    )
    def test_model_built_in_code_keeps_the_shape_rules(self, d, overrides, message):
        # the rules model_from_dict applied to JSON alone: d = 17 made validate build a 2^17-point support grid
        fields = {name: ScalarField.constant(1.0 if name != "D0" else 0.0, d) for name in ("g", "alpha", "beta", "C", "D0")}
        with pytest.raises(ModelError) as err:
            make_model(**{**fields, "f": CovariateDensity.uniform(d), "dimension": d, **overrides})
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: ScalarField.constant(1.0, dimension=0), ModelError, "field dimension must be a positive integer"),
            (lambda: CovariateDensity(marginals=()), ModelError, "covariate density needs at least one marginal"),
            (lambda: evaluation_grid((0.1, 0.9), 1, 0), ValueError, "grid needs at least one point per axis"),
        ],
        ids=["field-dimension-zero", "no-marginals", "grid-per-axis-zero"],
    )
    def test_shapes_refused_in_code(self, build, error, message):
        # a field, a covariate density and a grid built in code each refuse an empty shape by name
        with pytest.raises(error) as err:
            build()
        assert err.type is error and str(err.value) == message

    def test_whole_float_dimension_is_stored_as_int(self):
        fields = {name: ScalarField.constant(1.0 if name != "D0" else 0.0, 2) for name in ("g", "alpha", "beta", "C", "D0")}
        m = make_model(**fields, f=CovariateDensity.uniform(2), dimension=2.0, omega=[0.2, np.float64(0.8)])
        assert type(m.dimension) is int and m.dimension == 2 and m.omega == (0.2, 0.8)


# d = 8 models whose fields run BLAS gemv on 64,001 rows and on validate's 4**8-point support grid
BLAS_THREADS_SCRIPT = """
import hashlib, json
import numpy as np
from frontier_moments import RateSchedule, StudyConfig, field_range, model_from_dict, run_study, validate
rng = np.random.default_rng(2)
xs, b = rng.random((64001, 8)), rng.random(8).tolist()
for g in ({"kind": "affine", "a": 1.0, "b": b}, {"kind": "sinusoid", "a": 1.0, "b": 0.5, "c": b}):
    spec = {"dimension": 8, "g": g, "alpha": {"kind": "affine", "a": 1.2, "b": b}, "D0": {"kind": "constant", "a": 0.25},
            "C": {"kind": "constant", "a": 0.75}, "f": [{"kind": "uniform"}] * 8}
    model = model_from_dict(spec)
    schedule = RateSchedule(c1=0.1, c2=0.1, d=8, eta_g=1.0, alpha_bar=2.0, k1=2.0)
    report, _ = run_study(model, StudyConfig(sizes=(400, 800), replications=1, schedule=schedule, grid_per_axis=2))
    parts = (
        model.g.values(xs),
        [c.worst_value for c in validate(model).checks],
        [field_range(f) for f in (model.g, model.alpha)],
        json.dumps(report, sort_keys=True).encode(),
    )
    print(*(hashlib.md5(np.asarray(p).tobytes()).hexdigest() for p in parts))
"""


def test_d8_field_values_do_not_depend_on_the_blas_thread_count():
    # gemv on a whole large array rounds by its thread split; ScalarField.values runs it per block of _SAMPLE_ROWS
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs at least 2 CPUs for OpenBLAS to split the product")
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env, capture_output=True, text=True, check=True)
        out[threads] = proc.stdout
    assert out["1"].count("\n") == 2 and out["1"] == out["2"]
