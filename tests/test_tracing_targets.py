"""The benchmark tracer's lookups and counts resolve on the package as it is.

``benchmarks/tracing.py`` replaces each traced function at the name its
caller looks it up by, read from ``owner.__dict__``, and its count
callbacks read the results (``len`` and ``.ok`` of the grid records, the
count ``moment_ratio_pair`` returns, the empty-window exception's type).  A
refactor that moves or drops one of those names, or changes one of those
results, breaks only a ``--trace 1`` benchmark run, so both are checked
here, against the tracer module itself.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import frontier_moments
import frontier_moments.cli  # noqa: F401  (the tracer wraps cli.main and the names cli looks up)
from frontier_moments import InsufficientLocalDataError, KernelSpec, RateSchedule, StudyConfig, load_model

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_where_the_tracer_looks():
    tracing = load_tracing()
    patches = tracing.targets(frontier_moments, tracing.Tracer())
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in patches if attr not in owner.__dict__]
    assert missing == []


def test_patched_installs_the_wrappers_and_puts_every_original_back():
    tracing = load_tracing()
    patches = tracing.targets(frontier_moments, tracing.Tracer())
    originals = [owner.__dict__[attr] for owner, attr, _ in patches]
    with tracing.patched(patches):
        assert all(owner.__dict__[attr] is wrapper for owner, attr, wrapper in patches)
    assert all(owner.__dict__[attr] is original for (owner, attr, _), original in zip(patches, originals))


def test_every_count_the_tracer_records_reads_the_results(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    fm = frontier_moments
    model = load_model(ROOT / "models" / "canonical.json")
    config = StudyConfig(
        sizes=(200, 300),
        replications=1,
        schedule=RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0),
        grid_per_axis=5,
        base_seed=3,
    )
    data, estimates = tmp_path / "data.csv", tmp_path / "estimates.csv"
    with tracing.patched(tracing.targets(fm, tracer)):
        fm.study.run_study(model, config, workers=1)
        sample = fm.model.sample(model, 300, 4)
        fm.estimator.moment_ratio_pair(sample, [0.5], 5.0, 1.0, 0.2, KernelSpec())
        with pytest.raises(InsufficientLocalDataError):
            fm.estimator.moment_ratio_pair(sample, [10.0], 5.0, 1.0, 0.05, KernelSpec())
        simulate = ["simulate", "--model", str(ROOT / "models" / "canonical.json"), "--n", "300", "--seed", "7"]
        assert fm.cli.main([*simulate, "--out", str(data)]) == 0
        estimate = ["estimate", str(data), "--p", "5", "--h", "0.2", "--grid", "5", "--out", str(estimates)]
        assert fm.cli.main(estimate) == 0

    def counts(name):
        return [s.counts for s in tracer.spans if s.name == name]

    assert counts("study.run_study") == [{"cells": 2}]
    assert [c["draws"] for c in counts("model.sample")] == [200, 300, 300]
    assert counts("estimator.estimate_grid") == [{"grid_points": 5, "failed_points": 0}] * 3
    found, empty = counts("moments.ratio_pair")
    assert found["window_points"] > 0 and empty == {"empty_windows": 1}
    assert counts("study.write_dataset") == counts("study.read_dataset") == [{"dataset_bytes": os.path.getsize(data)}]
