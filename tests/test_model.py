import json

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
from frontier_moments.model import _quantile_batch


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
        m = make_model(C=ScalarField.constant(3.0), D0=ScalarField.constant(-2.0))
        failed = {c.name for c in validate(m).failures}
        assert "survival_nonincreasing" in failed

    def test_negative_field_detected(self):
        m = make_model(g=ScalarField.affine(0.1, -0.2))
        failed = {c.name for c in validate(m).failures}
        assert "g_positive" in failed


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


class TestSampleType:
    def test_invariants(self):
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
