"""Every public entry that takes a query point or a grid applies one shape rule.

A point in dimension d is a sequence of d coordinates; in d = 1 a flat
sequence holds one coordinate per point.  Any other shape raises a
ValueError naming the expected coordinate count.

Every tensor-product grid comes from one builder, ``model._tensor``, and
every grid over the whole support takes its size from one rule.
"""

import itertools

import numpy as np
import pytest

from frontier_moments import (
    EstimatorConfig,
    KernelSpec,
    ScalarField,
    effective_count,
    estimate_at,
    estimate_grid,
    evaluation_grid,
    field_range,
    model_from_dict,
    moment_brute,
    moment_decomposition,
    moment_equivalent,
    moment_ratio,
    moment_ratio_exact,
    moment_ratio_pair,
    quantile,
    ratio_expansion,
    sample,
    scaled_moment,
    smoothed_moment,
    smoothed_ratio,
    survival,
    survival_values,
    validate,
)
from frontier_moments import model as model_module
from frontier_moments import oracle as oracle_module
from frontier_moments.model import _tensor
from frontier_moments.moments import window_rows

SPECS = {
    1: {
        "dimension": 1,
        "g": {"kind": "affine", "a": 1.0, "b": [0.2]},
        "alpha": {"kind": "constant", "a": 2.0},
        "C": {"kind": "constant", "a": 0.7},
        "D0": {"kind": "constant", "a": 0.3},
    },
    2: {
        "dimension": 2,
        "g": {"kind": "affine", "a": 1.0, "b": [0.2, 0.1]},
        "alpha": {"kind": "constant", "a": 2.0},
    },
}
MODELS = {d: model_from_dict(spec) for d, spec in SPECS.items()}
SAMPLES = {d: sample(MODELS[d], 400, seed=1) for d in SPECS}
KERNELS = {d: KernelSpec(dimension=d) for d in SPECS}
CONFIGS = {d: EstimatorConfig(p=5.0, h=0.2, kernel=KERNELS[d]) for d in SPECS}

# name -> call(d, x): each takes one query point x
ONE_POINT = {
    "ScalarField.__call__": lambda d, x: MODELS[d].g(x),
    "CovariateDensity.pdf_point": lambda d, x: MODELS[d].f.pdf_point(x),
    "survival": lambda d, x: survival(MODELS[d], x, 0.5),
    "quantile": lambda d, x: quantile(MODELS[d], x, 0.5),
    "estimate_at": lambda d, x: estimate_at(SAMPLES[d], x, CONFIGS[d]),
    "scaled_moment": lambda d, x: scaled_moment(SAMPLES[d], x, 5.0, 0.2, KERNELS[d]),
    "moment_ratio": lambda d, x: moment_ratio(SAMPLES[d], x, 5.0, 0.2, KERNELS[d]),
    "moment_ratio_pair": lambda d, x: moment_ratio_pair(SAMPLES[d], x, 5.0, 1.0, 0.2, KERNELS[d]),
    "effective_count": lambda d, x: effective_count(SAMPLES[d], x, 0.2),
    "moment_decomposition": lambda d, x: moment_decomposition(MODELS[d], x, 5.0),
    "moment_brute": lambda d, x: moment_brute(MODELS[d], x, 5.0),
    "moment_ratio_exact": lambda d, x: moment_ratio_exact(MODELS[d], x, 5.0),
    "smoothed_moment": lambda d, x: smoothed_moment(MODELS[d], x, 5.0, 0.1, KERNELS[d]),
    "smoothed_ratio": lambda d, x: smoothed_ratio(MODELS[d], x, 5.0, 0.1, KERNELS[d]),
    "moment_equivalent": lambda d, x: moment_equivalent(MODELS[d], x, 5.0),
    "ratio_expansion": lambda d, x: ratio_expansion(MODELS[d], x, 5.0),
}
# name -> call(d, xs): each takes a batch of points
GRID = {
    "ScalarField.values": lambda d, xs: MODELS[d].g.values(xs),
    "CovariateDensity.pdf": lambda d, xs: MODELS[d].f.pdf(xs),
    "survival_values": lambda d, xs: survival_values(MODELS[d], xs, np.full(len(xs), 0.5)),
    "estimate_grid": lambda d, xs: estimate_grid(SAMPLES[d], xs, CONFIGS[d]),
    "window_rows": lambda d, xs: window_rows(SAMPLES[d], xs, 0.2),
}

MISUSE = (
    [(name, 2, [0.5], "one-coordinate-in-2d") for name in ONE_POINT]
    + [(name, 2, [0.5, 0.5, 0.5], "three-coordinates-in-2d") for name in ONE_POINT]
    + [(name, 1, [0.5, 0.7], "two-points-in-1d") for name in ONE_POINT]
    + [(name, 2, [[0.5], [0.6]], "one-coordinate-in-2d") for name in GRID]
    + [(name, 2, [[0.5, 0.5, 0.5]], "three-coordinates-in-2d") for name in GRID]
)


@pytest.mark.parametrize("name, d, x", [m[:3] for m in MISUSE], ids=[f"{m[0]}-{m[3]}" for m in MISUSE])
def test_misshapen_point_raises_naming_the_coordinate_count(name, d, x):
    call = ONE_POINT.get(name) or GRID[name]
    with pytest.raises(ValueError, match=f"of {d} coordinate"):
        call(d, x)


NON_FINITE = ["estimate_at", "scaled_moment", "moment_ratio", "moment_ratio_pair", "effective_count", "estimate_grid"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_query_point_raises(name, d, bad):
    # refused before the window index casts it to a cell
    for at in range(d):
        x = [0.5] * d
        x[at] = bad
        call = ONE_POINT.get(name)
        with pytest.raises(ValueError, match="finite"):
            call(d, x) if call else GRID[name](d, [[0.5] * d, x])


@pytest.mark.parametrize("name", ["scaled_moment", "moment_ratio", "moment_ratio_pair", "effective_count"])
def test_infinite_bandwidth_raises(name):
    # every window would hold the whole sample, but h^d is infinite and every kernel weight 0
    calls = {
        "scaled_moment": lambda: scaled_moment(SAMPLES[2], [0.5, 0.5], 5.0, np.inf, KERNELS[2]),
        "moment_ratio": lambda: moment_ratio(SAMPLES[2], [0.5, 0.5], 5.0, np.inf, KERNELS[2]),
        "moment_ratio_pair": lambda: moment_ratio_pair(SAMPLES[2], [0.5, 0.5], 5.0, 1.0, np.inf, KERNELS[2]),
        "effective_count": lambda: effective_count(SAMPLES[2], [0.5, 0.5], np.inf),
    }
    with pytest.raises(ValueError, match="bandwidth h must be finite"):
        calls[name]()


@pytest.mark.parametrize("h", [0.0, -0.1])
@pytest.mark.parametrize("d", sorted(SPECS))
def test_nonpositive_bandwidth_raises(d, h):
    # refused before the window index runs: it divides by h, and a negative h gave a negative array length
    with pytest.raises(ValueError, match="bandwidth h must be positive"):
        effective_count(SAMPLES[d], np.full(d, 0.5), h)


@pytest.mark.parametrize("d, refused, kept", [(1, 1e-310, 1e-300), (2, 1e-155, 1e-150)])
def test_bandwidth_whose_weights_overflow_is_refused(d, refused, kept):
    # at `refused` the weight c / h^d of the one point at a sample row overflowed, and the point failed
    row, y = SAMPLES[d].xs[0], SAMPLES[d].ys[0]
    with pytest.raises(ValueError, match="too small: the kernel weights c / h\\^d overflow"):
        estimate_at(SAMPLES[d], row, EstimatorConfig(p=5.0, h=refused, kernel=KERNELS[d]))
    record = estimate_at(SAMPLES[d], row, EstimatorConfig(p=5.0, h=kept, kernel=KERNELS[d]))
    assert record.ok and record.effective_count == 1
    assert record.g_hat == pytest.approx(y, rel=1e-14)


def test_flat_grid_in_one_dimension_is_one_point_per_entry():
    flat = np.linspace(0.1, 0.9, 9)
    records = estimate_grid(SAMPLES[1], flat, CONFIGS[1])
    assert records == estimate_grid(SAMPLES[1], flat.reshape(-1, 1), CONFIGS[1])
    assert [r.x for r in records] == [(float(v),) for v in flat]


def test_record_holds_the_point_that_was_evaluated():
    assert estimate_at(SAMPLES[1], 0.5, CONFIGS[1]).x == (0.5,)
    assert estimate_at(SAMPLES[2], np.array([[0.4, 0.6]]), CONFIGS[2]).x == (0.4, 0.6)


AXES = [np.linspace(0.1, 0.9, k) for k in (1, 2, 5)] + [np.arange(k, dtype=np.int64) for k in (1, 3)]


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize("axis", AXES)
def test_tensor_is_the_product_in_row_major_order(d, axis):
    # at d = 0 the product is one empty tuple: shape (1, 0), in the axis's dtype
    got = _tensor(axis, d)
    want = np.array(list(itertools.product(axis, repeat=d)), dtype=axis.dtype).reshape(len(axis) ** d, d)
    assert got.shape == (len(axis) ** d, d)
    assert got.dtype == axis.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d, k", [(1, 101), (1, 256), (2, 21), (2, 129), (2, 256), (3, 40)])
def test_evaluation_grid_equals_the_meshgrid_stack(d, k):
    axis = np.linspace(0.1, 0.9, k)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    assert np.array_equal(evaluation_grid((0.1, 0.9), d, k), np.stack([m.ravel() for m in mesh], axis=1))


def test_ball_rules_equal_the_outer_product():
    nodes, weights = oracle_module._BALL_NODES, oracle_module._BALL_WEIGHTS
    u, w = oracle_module._ball_rule(1)
    assert np.array_equal(u, nodes.reshape(-1, 1)) and np.array_equal(w, weights)
    u, w = oracle_module._ball_rule(2)
    mesh = np.meshgrid(nodes, nodes, indexing="ij")
    assert np.array_equal(u, np.stack([m.ravel() for m in mesh], axis=1))
    assert np.array_equal(w, np.outer(weights, weights).ravel())


class _Asked(Exception):
    pass


@pytest.mark.parametrize("d", range(1, 17))
def test_support_grids_take_one_size_rule(monkeypatch, d):
    # the builder records what it is asked for and raises, so no grid is allocated
    asked = []

    def record(omega, dimension, per_axis):
        asked.append((per_axis, per_axis**dimension))
        raise _Asked

    monkeypatch.setattr(model_module, "evaluation_grid", record)
    spec = {"dimension": d, "g": {"kind": "constant", "a": 1.0}, "alpha": {"kind": "constant", "a": 1.0}}
    with pytest.raises(_Asked):
        validate(model_from_dict(spec))
    with pytest.raises(_Asked):
        field_range(ScalarField.constant(1.0, dimension=d))
    (v_axis, v_points), (f_axis, f_points) = asked
    assert v_axis == (256 if d <= 2 else max(2, int(round(65536 ** (1.0 / d)))))
    assert f_axis == min(129, v_axis)
    # rounding lets the cap pass 65,536 points at d = 7, 11 and 12, on validate's grid as well
    assert f_points <= max(65536, v_points)
