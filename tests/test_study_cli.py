import contextlib
import csv
import errno
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frontier_moments import (
    CovariateDensity,
    EstimateRecord,
    EstimatorConfig,
    FrontierModel,
    InsufficientLocalDataError,
    KernelSpec,
    ModelError,
    RateSchedule,
    Sample,
    ScalarField,
    ScheduleError,
    StudyConfig,
    cell_seed,
    estimate_grid,
    evaluation_grid,
    field_range,
    load_model,
    moment_concentration,
    read_dataset,
    run_study,
    sample,
    schedule,
    write_dataset,
    write_estimates,
    write_report,
)
from frontier_moments import model as model_module
from frontier_moments import oracle as oracle_module
from frontier_moments import study as study_module
from frontier_moments.cli import main
from frontier_moments.study import DatasetFormatError

ROOT = Path(__file__).resolve().parent.parent

CANONICAL_SPEC = {
    "dimension": 1,
    "g": {"kind": "sinusoid", "a": 1.0, "b": 0.5, "c": [1.0]},
    "alpha": {"kind": "constant", "a": 1.0},
    "beta": {"kind": "constant", "a": 1.0},
    "C": {"kind": "constant", "a": 1.0},
    "D0": {"kind": "constant", "a": 0.0},
}

FLAT_SPEC = {
    "dimension": 1,
    "g": {"kind": "constant", "a": 1.0},
    "alpha": {"kind": "constant", "a": 1.0},
}

BROKEN_SPEC = {
    "dimension": 1,
    "g": {"kind": "constant", "a": 1.0},
    "alpha": {"kind": "constant", "a": 1.0},
    "C": {"kind": "constant", "a": 0.5},
    "D0": {"kind": "constant", "a": 0.3},
}

# S exceeds 1 for y below about 0.003: C alpha + D0 (alpha + beta) = -0.005
RISING_SPEC = {
    "dimension": 1,
    "g": {"kind": "constant", "a": 1.0},
    "alpha": {"kind": "constant", "a": 1.0},
    "beta": {"kind": "constant", "a": 2.01},
    "C": {"kind": "constant", "a": 1.5},
    "D0": {"kind": "constant", "a": -0.5},
}


@pytest.fixture
def model_file(tmp_path):
    def write(spec, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write


def small_study_config(**overrides):
    base = dict(
        sizes=(400, 900),
        replications=3,
        schedule=RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0),
        grid_per_axis=21,
        base_seed=99,
    )
    base.update(overrides)
    return StudyConfig(**base)


def canonical_model():
    return FrontierModel(
        g=ScalarField.sinusoid(1.0, 0.5, 1.0),
        alpha=ScalarField.constant(1.0),
        beta=ScalarField.constant(1.0),
        C=ScalarField.constant(1.0),
        D0=ScalarField.constant(0.0),
        f=CovariateDensity.uniform(1),
    )


# every value class the writer must spell as csv does: signed zero, subnormal, exponent forms, the largest double
EDGE_VALUES = (-0.0, 5e-324, 1e-05, 1e16, 0.1, 1.7976931348623157e308)
WRITE_ROWS = study_module._WRITE_ROWS


def csv_writer_dataset(smpl, path):
    """The reference writer: ``csv.writer`` over the whole table's ``tolist()``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{k + 1}" for k in range(smpl.dimension)] + ["y"])
        writer.writerows(np.column_stack((smpl.xs, smpl.ys)).tolist())


def edge_sample(n, d, seed=0):
    """Random rows, with the edge values in every column of the first and last six rows."""
    rng = np.random.default_rng(seed)
    xs, ys = rng.random((n, d)), 0.5 + rng.random(n)
    positive = [v for v in EDGE_VALUES if v > 0.0]
    for i in {*range(min(6, n)), *range(max(n - 6, 0), n)}:
        xs[i] = [EDGE_VALUES[(i + j) % len(EDGE_VALUES)] for j in range(d)]
        ys[i] = positive[i % len(positive)]
    return Sample(xs=xs, ys=ys)


class FailingFile:
    """An open file whose ``fail_at``-th write raises ``err`` instead of writing; reads pass through."""

    def __init__(self, fh, err, fail_at):
        self.fh, self.err, self.fail_at, self.writes = fh, err, fail_at, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.err
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_write(monkeypatch, err, at=3):
    """Make the ``at``-th write to each file the package opens raise ``err``.

    Every file the package writes is opened in ``model``; at 3 that is the
    dataset writer's second row block, or the estimates writer's second row.
    """
    monkeypatch.setattr(model_module, "open", lambda *a, **k: FailingFile(open(*a, **k), err, at), raising=False)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        s = sample(canonical_model(), 100, seed=1)
        path = tmp_path / "data.csv"
        write_dataset(s, path)
        again = read_dataset(path)
        assert np.array_equal(again.xs, s.xs)
        assert np.array_equal(again.ys, s.ys)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x_1,y\n0.5,1.0\n0.6,oops\n")
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("d", [1, 2])
    def test_values_written_as_repr(self, tmp_path, d):
        values = [5e-324, 1e-300, 0.1, 1.0 / 3.0, 1.0 - 2.0**-53, 123456789.125]
        columns = [values, values[::-1]][:d]
        path = tmp_path / "data.csv"
        write_dataset(Sample(xs=np.column_stack(columns), ys=np.array(values)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join([f"x_{k + 1}" for k in range(d)] + ["y"])
        assert lines[1:] == [",".join(repr(c[i]) for c in columns + [values]) for i in range(len(values))]

    @pytest.mark.parametrize("d", [1, 2])
    def test_estimates_written_exactly(self, tmp_path, d):
        # successful rows, nonpositive inverses (g_hat empty) and an empty window (both empty)
        rows = [
            ((5e-324, 1e308), 1.0 / 3.0, 7, 3.0),
            ((1.0 / 3.0, 5e-324), 1e308, 12, 1e-308),
            ((1e308, 0.5), None, 4, -0.25),
            ((1.0 - 2.0**-53, 1.0 / 3.0), None, 3, -0.0),
            ((0.5, 1.0 - 2.0**-53), None, 0, None),
        ]
        records = [EstimateRecord(x=x[:d], g_hat=g, effective_count=c, raw_inverse=r) for x, g, c, r in rows]
        path = tmp_path / "est.csv"
        write_estimates(records, path)
        xs = {
            1: ["5e-324", "0.3333333333333333", "1e+308", "0.9999999999999999", "0.5"],
            2: ["5e-324,1e+308", "0.3333333333333333,5e-324", "1e+308,0.5",
                "0.9999999999999999,0.3333333333333333", "0.5,0.9999999999999999"],
        }[d]
        tails = ["0.3333333333333333,7,3.0", "1e+308,12,1e-308", ",4,-0.25", ",3,-0.0", ",0,"]
        header = ",".join([f"x_{k + 1}" for k in range(d)] + ["g_hat", "effective_count", "raw_inverse"])
        lines = [header] + [f"{x},{tail}" for x, tail in zip(xs, tails)]
        assert path.read_bytes().decode("utf-8") == "".join(line + "\r\n" for line in lines)

    @pytest.mark.parametrize("n", [1, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, 2 * WRITE_ROWS + 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bytes_match_the_csv_writer(self, tmp_path, monkeypatch, d, n):
        s = edge_sample(n, d, seed=n + d)
        path, reference = tmp_path / "data.csv", tmp_path / "reference.csv"
        write_dataset(s, path)
        csv_writer_dataset(s, reference)
        assert path.read_bytes() == reference.read_bytes()

        def row_loop(_):
            raise AssertionError("the file left the np.loadtxt bulk path")

        monkeypatch.setattr(study_module, "_read_dataset_rows", row_loop)
        again = read_dataset(path)
        assert again.xs.tobytes() == s.xs.tobytes() and again.ys.tobytes() == s.ys.tobytes()

    def test_writer_never_holds_the_whole_table(self, tmp_path):
        # a nested list of the 64,000 x 2 table alone peaks at about 9 MB
        rng = np.random.default_rng(6)
        s = Sample(xs=rng.random((64_000, 1)), ys=0.5 + rng.random(64_000))
        tracemalloc.start()
        try:
            write_dataset(s, tmp_path / "data.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    @pytest.mark.parametrize("err", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt()])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, err):
        path = tmp_path / "data.csv"
        path.write_text("x_1,y\n0.5,1.0\n")
        fail_write(monkeypatch, err)
        with pytest.raises(type(err)):
            write_dataset(edge_sample(WRITE_ROWS + 1, 1), path)
        assert not path.exists()

    def test_failed_write_to_a_pipe_leaves_the_pipe(self, tmp_path, monkeypatch):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        drained = []
        reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()), daemon=True)
        reader.start()
        fail_write(monkeypatch, OSError(errno.EPIPE, os.strerror(errno.EPIPE)))
        try:
            with pytest.raises(OSError):
                write_dataset(edge_sample(WRITE_ROWS + 1, 1), fifo)
        finally:
            reader.join(timeout=30)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert drained and drained[0].startswith(b"x_1,y\r\n")

    @pytest.mark.parametrize("err", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), KeyboardInterrupt()])
    @pytest.mark.parametrize("what", ["estimates", "report"])
    def test_other_failed_writes_leave_no_file(self, tmp_path, monkeypatch, what, err):
        path = tmp_path / "out"
        path.write_text("an older file\n")
        records = [EstimateRecord(x=(0.25 * k,), g_hat=1.0, effective_count=5, raw_inverse=1.0) for k in range(3)]
        # the estimates writer's third write is its second row; the JSON writer writes once
        fail_write(monkeypatch, err, at=3 if what == "estimates" else 1)
        with pytest.raises(type(err)):
            if what == "estimates":
                write_estimates(records, path)
            else:
                write_report({"cells": []}, {"total_wall_time_s": 0.0}, path)
        assert not path.exists()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n0.5,1.0\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)


def traced_peak(fn, *args) -> int:
    """The largest number of bytes ``tracemalloc`` sees allocated during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """At n = 64,000 (d = 1) no step of simulate -> estimate holds O(n) scratch beside its input and output.

    The input and output arrays alone take 1 MiB.  The peaks read 1.96,
    2.02 and 1.90 MiB.  Solving all rows at once, keeping the file's bytes
    beside the table and an index of about seven n-length arrays gave 7.15,
    4.43 and 2.94 MiB.
    """

    N = 64_000
    MIB = 2**20
    MODEL = ROOT / "models" / "two_term_tail.json"

    def test_sample(self):
        assert traced_peak(sample, load_model(self.MODEL), self.N, 5000) <= 2.5 * self.MIB

    def test_read_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(sample(load_model(self.MODEL), self.N, 5000), path)
        assert traced_peak(read_dataset, path) <= 2.5 * self.MIB

    def test_estimate_grid(self):
        model = load_model(self.MODEL)
        p, h = schedule(self.N, RateSchedule.optimal(1, model.eta_g, field_range(model.alpha)[1]))
        config = EstimatorConfig(p=p, h=h, kernel=KernelSpec("epanechnikov_ball", 1))
        grid = evaluation_grid(model.omega, 1, 101)
        assert traced_peak(estimate_grid, sample(model, self.N, 5000), grid, config) <= 2 * self.MIB


class TestRunStudy:
    def test_report_is_deterministic_and_worker_independent(self):
        model = canonical_model()
        config = small_study_config()
        report1, _ = run_study(model, config, workers=1)
        report2, _ = run_study(model, config, workers=1)
        report3, _ = run_study(model, config, workers=3)
        assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)
        assert json.dumps(report1, sort_keys=True) == json.dumps(report3, sort_keys=True)

    def test_cell_seeds_are_distinct_and_reproducible(self):
        seeds = {
            cell_seed(7, i, r, 3) for i in range(2) for r in range(3)
        }
        assert len(seeds) == 6
        assert cell_seed(7, 0, 0, 3) == 7

    def test_cells_carry_schedule_and_failures(self):
        model = canonical_model()
        config = small_study_config()
        report, timing = run_study(model, config)
        assert len(report["cells"]) == 6
        for cell in report["cells"]:
            assert cell["failures"] >= 0
            assert cell["p"] == pytest.approx(0.5 * cell["n"] ** 0.5)
            assert cell["h"] == pytest.approx(cell["n"] ** -0.5)
        assert len(timing["cells"]) == 6
        assert all(t["wall_time_s"] > 0 for t in timing["cells"])

    def test_failure_accounting_matches_grid(self):
        from frontier_moments import EstimatorConfig, KernelSpec, estimate_grid, evaluation_grid, schedule

        model = canonical_model()
        config = small_study_config()
        report, _ = run_study(model, config)
        cell = report["cells"][0]
        p, h = schedule(cell["n"], config.schedule)
        smpl = sample(model, cell["n"], cell["seed"])
        grid = evaluation_grid(model.omega, 1, config.grid_per_axis)
        records = estimate_grid(smpl, grid, EstimatorConfig(p=p, h=h, kernel=KernelSpec(dimension=1)))
        assert cell["failures"] == sum(1 for r in records if not r.ok)

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            small_study_config(sizes=(400,))
        with pytest.raises(ValueError):
            small_study_config(sizes=(900, 400))
        with pytest.raises(ValueError):
            small_study_config(replications=0)

    @pytest.mark.parametrize("study", [run_study, moment_concentration])
    @pytest.mark.parametrize(
        "model, sched, named",
        [
            # a d = 1 schedule on a d = 2 model
            (
                FrontierModel(
                    g=ScalarField.constant(1.0, 2), alpha=ScalarField.constant(1.0, 2),
                    beta=ScalarField.constant(1.0, 2), C=ScalarField.constant(1.0, 2),
                    D0=ScalarField.constant(0.0, 2), f=CovariateDensity.uniform(2), dimension=2,
                ),
                RateSchedule.optimal(d=1, eta_g=1.0, alpha_bar=1.0),
                ("d = 1", "d = 2"),
            ),
            # passes the bias check with eta_g = 2, fails it with the model's eta_g = 1
            (
                canonical_model(),
                RateSchedule(c1=0.4, c2=0.2, d=1, eta_g=2.0, alpha_bar=1.0),
                ("eta_g = 2.0", "eta_g = 1.0"),
            ),
        ],
        ids=["dimension", "eta_g"],
    )
    def test_schedule_for_another_model_rejected(self, monkeypatch, study, model, sched, named):
        def no_cells(*args):
            raise AssertionError("a cell ran before the schedule was checked")

        monkeypatch.setattr(study_module, "sample", no_cells)
        with pytest.raises(ScheduleError) as err:
            study(model, small_study_config(schedule=sched))
        for text in named:
            assert text in str(err.value)


    def test_study_of_empty_windows_reports_every_cell_degenerate(self):
        # at k2 = 1e-9 every window on the grid is empty, so no cell has a sup-error to fit a slope to
        sched = RateSchedule(c1=0.5, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0, k2=1e-9)
        config = small_study_config(sizes=(1000, 2000), replications=2, schedule=sched)
        report, _ = run_study(canonical_model(), config)
        assert [(cell["sup_error"], cell["failures"]) for cell in report["cells"]] == [(None, 21)] * 4
        agg = report["aggregate"]
        assert agg["degenerate_cells"] == 4
        assert agg["median_sup_error"] == [None, None] and agg["log_log_slope"] is None

    def test_concentration_counts_an_empty_window_as_deviation_one(self):
        # at k2 = 1e-9 each window is narrower than 1e-10, and every one on the 50-point grid is empty
        sched = RateSchedule(c1=0.5, c2=0.5, d=1, eta_g=1.0, alpha_bar=1.0, k2=1e-9)
        out = moment_concentration(canonical_model(), small_study_config(sizes=(1000, 2000), replications=2, schedule=sched))
        assert [cell["max_deviation"] for cell in out["cells"]] == [1.0] * 4
        assert out["median_max_deviation"] == [1.0, 1.0]

MODEL_FILES = {
    "canonical": ROOT / "models" / "canonical.json",
    "two_term_tail": ROOT / "models" / "two_term_tail.json",
    "plane_2d": ROOT / "benchmarks" / "models" / "plane_2d.json",
}

CELL_ERRORS = [
    ModelError("non-monotone survival in a cell"),
    InsufficientLocalDataError("kernel window holds 0 points"),
    DatasetFormatError("line 9: expected 2 columns, found 3", line=9),
]


def failing_sample(err):
    def sample_in_cell(model, n, seed):
        raise err

    return sample_in_cell


def sample_failing_in(where, err):
    """A sampler that raises ``err`` only in the calling process or only in its forked children."""
    caller = os.getpid()

    def sample_in_cell(model, n, seed):
        if (os.getpid() == caller) == (where == "caller"):
            raise err
        return sample(model, n, seed)

    return sample_in_cell


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError inside the block once it has run ``seconds``; forked children keep no timer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    @pytest.mark.parametrize("name", sorted(MODEL_FILES))
    def test_reports_byte_identical_at_one_two_and_three_workers(self, name):
        # 4 cells: 7 workers also checks a count above the number of cells
        model = load_model(MODEL_FILES[name])
        sched = RateSchedule.optimal(model.dimension, model.eta_g, field_range(model.alpha)[1])
        config = StudyConfig(sizes=(400, 900), replications=2, schedule=sched, grid_per_axis=9, base_seed=5)
        reports = []
        for workers in (1, 2, 3, 7):
            report, timing = run_study(model, config, workers=workers)
            assert [(t["n"], t["replication"]) for t in timing["cells"]] == [(c["n"], c["replication"]) for c in report["cells"]]
            reports.append(json.dumps(report, sort_keys=True))
            assert_no_children()
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]
        assert reports[3] == reports[0]

    @pytest.mark.parametrize("err", CELL_ERRORS, ids=lambda e: type(e).__name__)
    def test_cell_error_reaches_the_caller(self, monkeypatch, err):
        # the forked workers inherit the patched sampler
        monkeypatch.setattr(study_module, "sample", failing_sample(err))
        with pytest.raises(type(err)) as caught:
            run_study(canonical_model(), small_study_config(), workers=2)
        assert str(caught.value) == str(err)
        assert vars(caught.value) == vars(err)
        assert_no_children()

    @pytest.mark.parametrize("where", ["child", "caller"])
    @pytest.mark.parametrize("err", CELL_ERRORS, ids=lambda e: type(e).__name__)
    def test_error_in_one_process_reaches_the_caller(self, monkeypatch, err, where):
        monkeypatch.setattr(study_module, "sample", sample_failing_in(where, err))
        with time_limit(60), pytest.raises(type(err)) as caught:
            run_study(canonical_model(), small_study_config(), workers=2)
        assert str(caught.value) == str(err)
        assert vars(caught.value) == vars(err)
        if where == "child":
            # the child's traceback comes back as text, down to the line that raised
            assert "in sample_in_cell" in str(caught.value.__cause__)
        assert_no_children()

    @pytest.mark.parametrize("failing, first", [({0, 1, 2, 3, 4, 5}, 0), ({1, 2, 3}, 3), ({2, 4}, 4)])
    def test_first_error_in_share_order_wins(self, monkeypatch, failing, first):
        # 6 cells over 3 processes: the caller runs cells 0 and 3, the children 1, 4 and 2, 5
        config = small_study_config()

        def sample_in_cell(model, n, seed):
            cell = (seed - config.base_seed) // study_module.SEED_STRIDE
            if cell in failing:
                raise ValueError(f"cell {cell}")
            return sample(model, n, seed)

        monkeypatch.setattr(study_module, "sample", sample_in_cell)
        with time_limit(60), pytest.raises(ValueError, match=f"^cell {first}$"):
            run_study(canonical_model(), config, workers=3)
        assert_no_children()

    def test_child_that_dies_without_a_result_is_named(self, monkeypatch):
        caller = os.getpid()

        def sample_in_cell(model, n, seed):
            if os.getpid() != caller:
                os._exit(3)
            return sample(model, n, seed)

        monkeypatch.setattr(study_module, "sample", sample_in_cell)
        with time_limit(60), pytest.raises(RuntimeError, match="study worker 1 exited with code 3"):
            run_study(canonical_model(), small_study_config(), workers=2)
        assert_no_children()

    def test_unpicklable_child_error_is_named(self, monkeypatch):
        err = ValueError("holds a lambda")
        err.hook = lambda: None
        monkeypatch.setattr(study_module, "sample", sample_failing_in("child", err))
        with time_limit(60), pytest.raises(RuntimeError, match="study worker result cannot be pickled"):
            run_study(canonical_model(), small_study_config(), workers=2)
        assert_no_children()

    def test_interrupt_in_the_caller_kills_the_children(self, monkeypatch):
        # the children would sleep far past the limit: the caller must kill them, not wait
        caller = os.getpid()

        def sample_in_cell(model, n, seed):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(600)

        monkeypatch.setattr(study_module, "sample", sample_in_cell)
        with time_limit(30), pytest.raises(KeyboardInterrupt):
            run_study(canonical_model(), small_study_config(), workers=3)
        assert_no_children()

    @pytest.mark.parametrize(
        "err, code", [(None, 0), (CELL_ERRORS[0], 2), (ValueError("responses must be finite"), 2), (CELL_ERRORS[2], 1)]
    )
    def test_mc_study_exit_codes(self, monkeypatch, model_file, tmp_path, capsys, err, code):
        if err is not None:
            monkeypatch.setattr(study_module, "sample", failing_sample(err))
        out = tmp_path / "r.json"
        argv = ["mc-study", "--model", model_file(CANONICAL_SPEC), "--sizes", "400,900", "--reps", "2",
                "--grid", "9", "--workers", "2", "--out", str(out)]
        assert main(argv) == code
        if err is None:
            assert len(json.loads(out.read_text())["cells"]) == 4
        else:
            assert str(err) in capsys.readouterr().err
            assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_output(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--model", model, "--n", "100", "--seed", "7", "--out", str(out1)]) == 0
        assert main(["simulate", "--model", model, "--n", "100", "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_model_exits_2_naming_invariant(self, model_file, tmp_path, capsys):
        model = model_file(BROKEN_SPEC)
        code = main(["simulate", "--model", model, "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "C_plus_D0_equals_one" in err
        assert "at (0.0,)" in err and "np.float64" not in err

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"dimension": 1, "g": {"kind": "constant"}, "alpha": {"kind": "constant", "a": 1.0}}, "'g'"),
            ({"dimension": 1, "g": {"kind": "constant", "a": 1.0}, "alpha": 1.0}, "'alpha'"),
            ({**FLAT_SPEC, "beta": {"a": 1.0}}, "'beta'"),
            ({**FLAT_SPEC, "omega": [0.1]}, "'omega'"),
            ({**FLAT_SPEC, "omega": 0.5}, "'omega'"),
            ({**FLAT_SPEC, "omega": ["a", "b"]}, "'omega'"),
            ([FLAT_SPEC], "JSON object"),
            ({**FLAT_SPEC, "dimension": None}, "'dimension'"),
            ({**FLAT_SPEC, "dimension": 1.7}, "'dimension'"),
            ({**FLAT_SPEC, "f": 5}, "'f'"),
            ({**FLAT_SPEC, "f": [3]}, "'f'"),
            ({**FLAT_SPEC, "f": {"kind": "uniform"}}, "'f'"),
            ({**FLAT_SPEC, "f": [{"kind": "linear", "slope": None}]}, "'f'"),
            ({**FLAT_SPEC, "g": {"kind": "constant", "a": None}}, "'g'"),
            ({**FLAT_SPEC, "g": {"kind": "affine", "a": 1.0, "b": None}}, "'g'"),
            ({**FLAT_SPEC, "eta_g": None}, "'eta_g'"),
            ({**FLAT_SPEC, "eta_alpha": [1]}, "'eta_alpha'"),
            ({**FLAT_SPEC, "eta_alpha": float("nan")}, "'eta_alpha'"),
            ({**FLAT_SPEC, "eta_g": -1.0}, "'eta_g'"),
            ({**FLAT_SPEC, "alpha": {"kind": "constant", "a": "1.0x"}}, "'alpha'"),
            ({**FLAT_SPEC, "g": {"kind": "affine", "a": 1.0, "b": [0.1, "x"]}}, "'g'"),
            ({**FLAT_SPEC, "g": {"kind": "affine", "a": 1.0, "b": [[0.1]]}}, "'g'"),
            ({**FLAT_SPEC, "dimension": True}, "'dimension'"),
            ({**FLAT_SPEC, "alpha": {"kind": "constant", "a": True}}, "'alpha'"),
            ({**FLAT_SPEC, "eta_g": True}, "'eta_g'"),
            ({**FLAT_SPEC, "omega": [False, True]}, "'omega'"),
            ({**FLAT_SPEC, "dimension": "1"}, "'dimension'"),
            ({**FLAT_SPEC, "alpha": {"kind": "constant", "a": "1.0"}}, "'alpha'"),
            ({**FLAT_SPEC, "eta_g": "1.0"}, "'eta_g'"),
            ({**FLAT_SPEC, "dimension": 0}, "'dimension'"),
            ({**FLAT_SPEC, "dimension": 17}, "'dimension'"),
            ({**FLAT_SPEC, "dimension": 1000}, "'dimension'"),
            ({**FLAT_SPEC, "dimension": 10**400}, "'dimension'"),
        ],
        ids=["field-without-a", "field-not-object", "field-without-kind", "omega-one-number",
             "omega-scalar", "omega-strings", "top-level-list", "dimension-null", "dimension-fractional",
             "f-number", "f-list-of-number", "f-object", "f-slope-null", "field-a-null", "affine-b-null",
             "eta-g-null", "eta-alpha-list", "eta-alpha-nan", "eta-g-negative", "field-a-text", "affine-b-text",
             "affine-b-nested", "dimension-bool", "field-a-bool", "eta-g-bool", "omega-bools", "dimension-text",
             "field-a-numeric-text", "eta-g-text", "dimension-zero", "dimension-17", "dimension-1000",
             "dimension-beyond-float"],
    )
    def test_malformed_model_exits_2_naming_field(self, model_file, tmp_path, capsys, spec, named):
        model = model_file(spec)
        code = main(["simulate", "--model", model, "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_missing_model_exits_1(self, tmp_path):
        code = main(["simulate", "--model", str(tmp_path / "nope.json"), "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_truncated_model_file_exits_1(self, tmp_path, capsys):
        model, out = tmp_path / "model.json", tmp_path / "x.csv"
        model.write_text(json.dumps(FLAT_SPEC)[:-10])
        assert main(["simulate", "--model", str(model), "--n", "10", "--seed", "1", "--out", str(out)]) == 1
        assert "malformed JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_full_disk_exits_1_and_leaves_no_file(self, model_file, tmp_path, monkeypatch, capsys):
        model, out = model_file(CANONICAL_SPEC), tmp_path / "data.csv"
        fail_write(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        assert main(["simulate", "--model", model, "--n", str(WRITE_ROWS + 1), "--seed", "1", "--out", str(out)]) == 1
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert not out.exists()

    def test_frontier_is_reached(self, model_file, tmp_path):
        model = model_file(FLAT_SPEC)
        out = tmp_path / "flat.csv"
        assert main(["simulate", "--model", model, "--n", "10000", "--seed", "3", "--out", str(out)]) == 0
        ys = read_dataset(out).ys
        assert 0.999 < ys.max() <= 1.0


class TestEstimateCommand:
    def test_constant_dataset_recovers_constant(self, tmp_path):
        rng = np.random.default_rng(0)
        s = Sample(xs=rng.random((300, 1)), ys=np.full(300, 2.5))
        data = tmp_path / "data.csv"
        write_dataset(s, data)
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--grid", "11", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            assert float(row["g_hat"]) == pytest.approx(2.5, abs=1e-12)
            assert int(row["effective_count"]) > 0

    def test_bad_bandwidth_is_validation_error(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        write_dataset(Sample(xs=rng.random((50, 1)), ys=np.ones(50)), data)
        assert main(["estimate", str(data), "--p", "20", "--h", "0", "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("d, h", [(1, "1e-310"), (2, "1e-170")])
    def test_bandwidth_whose_weights_overflow_exits_2(self, tmp_path, capsys, d, h):
        # at d = 2, h^2 is 0.0 and the kernel divided by it; at d = 1, c / h overflowed
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        write_dataset(Sample(xs=rng.random((50, d)), ys=np.ones(50)), data)
        out = tmp_path / "o.csv"
        assert main(["estimate", str(data), "--p", "10", "--h", h, "--grid", "5", "--out", str(out)]) == 2
        assert f"bandwidth h = {float(h)!r} is too small" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, named", [("--p", "moment power p"), ("--a", "order multiplier a")])
    def test_infinite_power_or_order_exits_2(self, tmp_path, capsys, flag, named):
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        write_dataset(Sample(xs=rng.random((50, 1)), ys=np.ones(50)), data)
        out = tmp_path / "o.csv"
        args = {"--p": "20", "--a": "1", flag: "inf"}
        argv = ["estimate", str(data), "--h", "0.2", "--out", str(out)] + [t for kv in args.items() for t in kv]
        assert main(argv) == 2
        assert f"{named} must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_full_disk_exits_1_and_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        data, out = tmp_path / "data.csv", tmp_path / "est.csv"
        write_dataset(Sample(xs=np.linspace(0.0, 1.0, 50)[:, None], ys=np.ones(50)), data)
        fail_write(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--grid", "5", "--out", str(out)]) == 1
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body",
        [
            "0.5,1.0\n0.25,abc\n",  # exit 1: line 3: non-numeric value in ['0.25', 'abc']
            "0.5,1.0\n0.25,0\n",  # exit 2: line 3: nonpositive response
            "".join(f"{k / 10},{1 + k / 10}\n" for k in range(11)),  # exit 0, by the bulk path
        ],
    )
    @pytest.mark.parametrize("kind", ["fifo", "pipe"])
    def test_dataset_from_a_pipe_reads_as_from_a_file(self, tmp_path, capsys, kind, body):
        # "pipe" is what a shell's <(cat data.csv) passes: /dev/fd/N of a pipe whose writer has closed
        text = "x_1,y\n" + body
        path = tmp_path / "data.csv"
        path.write_text(text)
        if kind == "fifo":
            source = tmp_path / "pipe"
            os.mkfifo(source)
            writer = threading.Thread(target=source.write_text, args=(text,), daemon=True)
            writer.start()
        else:
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode())
            os.close(write_end)
            source = f"/dev/fd/{read_end}"
        seen = {}
        try:
            # a reader that opened the FIFO a second time would wait for a writer forever
            with time_limit(30):
                for name, data in (("pipe", source), ("file", path)):
                    out = tmp_path / f"{name}.csv"
                    code = main(["estimate", str(data), "--p", "20", "--h", "0.3", "--grid", "5", "--out", str(out)])
                    seen[name] = (code, capsys.readouterr().err, out.read_bytes() if out.exists() else None)
        finally:
            if kind == "fifo":
                writer.join(timeout=30)
            else:
                os.close(read_end)
        assert seen["pipe"] == seen["file"]

    def test_unparseable_row_exits_1_with_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x_1,y\n0.5,1.0\nbroken\n")
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--out", str(tmp_path / "o.csv")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_non_utf8_byte_exits_1_with_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x_1,y\n0.5,0.7\n0.6,\xff\n")
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--out", str(tmp_path / "o.csv")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_line_after_a_quoted_newline_is_the_physical_line(self, tmp_path, capsys):
        # the quoted field spans lines 2 and 3, so the bad row is on line 4, not the third record
        data = tmp_path / "data.csv"
        data.write_text('x_1,y\n"0.5\n",1.0\n0.25,x\n')
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--out", str(tmp_path / "o.csv")]) == 1
        assert "line 4: non-numeric value in ['0.25', 'x']" in capsys.readouterr().err
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(data)
        assert err.value.line == 4

    @pytest.mark.parametrize("bad_row", ["0.3,0", "0.3,-1.5", "0.3,-0.0"])
    def test_nonpositive_response_exits_2_with_line(self, tmp_path, capsys, bad_row):
        data = tmp_path / "data.csv"
        data.write_text(f"x_1,y\n0.5,1.0\n0.4,0.9\n{bad_row}\n0.6,1.1\n")
        out = tmp_path / "o.csv"
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--out", str(out)]) == 2
        assert f"line 4: nonpositive response in {bad_row.split(',')!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad_row", ["nan,1.0", "0.45,inf"])
    def test_non_finite_value_exits_2_with_line(self, tmp_path, capsys, bad_row):
        data = tmp_path / "data.csv"
        data.write_text(f"x_1,y\n0.5,1.0\n0.4,0.9\n{bad_row}\n0.6,1.1\n")
        out = tmp_path / "o.csv"
        assert main(["estimate", str(data), "--p", "20", "--h", "0.2", "--out", str(out)]) == 2
        assert "line 4" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_omega_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "data.csv"
        write_dataset(Sample(xs=rng.random((50, 1)), ys=np.ones(50)), data)
        out = tmp_path / "o.csv"
        # a non-finite end is refused too, not reported as every grid point failing
        for omega in (["0.9", "0.1"], ["0.1", "inf"]):
            argv = ["estimate", str(data), "--p", "20", "--h", "0.2", "--grid", "5", "--omega", *omega, "--out", str(out)]
            assert main(argv) == 2
            assert "lo < hi" in capsys.readouterr().err
            assert not out.exists()

    def test_responses_near_the_float_maximum_estimate(self, tmp_path, capsys):
        # plane_2d scaled by 2**1020: M * den overflowed in every window, and all 441 points failed with exit 3
        data = tmp_path / "data.csv"
        model = str(ROOT / "benchmarks" / "models" / "plane_2d.json")
        assert main(["simulate", "--model", model, "--n", "8000", "--seed", "7", "--out", str(data)]) == 0
        s = read_dataset(data)
        write_dataset(Sample(xs=s.xs, ys=s.ys * 2.0**1020), data)
        out = tmp_path / "o.csv"
        assert main(["estimate", str(data), "--p", "15", "--h", "0.1", "--grid", "21", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 441 and all(row["g_hat"] for row in rows)

    def test_empty_grid_everywhere_exits_3(self, tmp_path):
        # one observation far from the evaluation window
        data = tmp_path / "data.csv"
        data.write_text("x_1,y\n-40.0,1.0\n")
        out = tmp_path / "o.csv"
        assert main(["estimate", str(data), "--p", "5", "--h", "0.01", "--grid", "5", "--out", str(out)]) == 3
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["g_hat"] == "" for row in rows)

    def test_scheduled_parameters_mostly_succeed(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        data = tmp_path / "data.csv"
        assert main(["simulate", "--model", model, "--n", "10000", "--seed", "5", "--out", str(data)]) == 0
        out = tmp_path / "est.csv"
        assert main(["estimate", str(data), "--p", "50", "--h", "0.01", "--grid", "101", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        ok = sum(1 for row in rows if row["g_hat"])
        assert ok >= 0.9 * len(rows)


class TestMcStudyCommand:
    def test_byte_identical_reports_across_runs_and_workers(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        outs = [tmp_path / f"r{i}.json" for i in range(3)]
        base = [
            "mc-study", "--model", model, "--sizes", "400,900", "--reps", "2",
            "--seed", "11", "--grid", "15", "--c1", "0.5", "--c2", "0.5",
        ]
        assert main(base + ["--out", str(outs[0])]) == 0
        assert main(base + ["--out", str(outs[1])]) == 0
        assert main(base + ["--workers", "4", "--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_bytes() == outs[2].read_bytes()
        # wall times live outside the deterministic report
        report = json.loads(outs[0].read_text())
        assert "wall_time" not in json.dumps(report)
        timing = json.loads((tmp_path / "r0.timing.json").read_text())
        assert len(timing["cells"]) == 4

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exits_2(self, model_file, tmp_path, capsys, workers):
        model = model_file(CANONICAL_SPEC)
        out = tmp_path / "r.json"
        code = main([
            "mc-study", "--model", model, "--sizes", "400,900", "--reps", "1",
            "--grid", "5", "--workers", workers, "--out", str(out),
        ])
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, named",
        [
            ("--a", "order multiplier a"),
            ("--k1", "schedule parameter k1"),
            ("--k2", "schedule parameter k2"),
            ("--alpha-bar", "tail exponent bound alpha_bar"),
        ],
    )
    def test_infinite_order_or_constant_exits_2(self, model_file, tmp_path, capsys, flag, named):
        out = tmp_path / "r.json"
        code = main([
            "mc-study", "--model", model_file(CANONICAL_SPEC), "--sizes", "400,900", "--reps", "1",
            "--grid", "5", flag, "inf", "--out", str(out),
        ])
        assert code == 2
        assert f"{named} must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_violation_fails_before_any_work(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        out = tmp_path / "r.json"
        code = main([
            "mc-study", "--model", model, "--sizes", "400,900", "--reps", "2",
            "--c1", "0.6", "--c2", "0.6", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_study_of_empty_windows_exits_0(self, model_file, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "mc-study", "--model", model_file(CANONICAL_SPEC), "--sizes", "400,900", "--reps", "1",
            "--grid", "5", "--k2", "1e-9", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["aggregate"]["degenerate_cells"] == 2 and report["aggregate"]["log_log_slope"] is None

    def test_size_beyond_the_float_range_exits_2_before_any_cell(self, monkeypatch, model_file, tmp_path, capsys):
        # n ** c1 raised a bare OverflowError, which ended in a traceback and exit 1
        def no_cells(*args):
            raise AssertionError("a cell ran before the schedule was checked")

        monkeypatch.setattr(study_module, "sample", no_cells)
        out = tmp_path / "r.json"
        big = "1" + "0" * 400
        code = main(["mc-study", "--model", model_file(CANONICAL_SPEC), "--sizes", f"1000,{big}", "--reps", "1", "--out", str(out)])
        assert code == 2
        assert f"powers of the sample size overflow at n={big}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_schema_fields(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        out = tmp_path / "r.json"
        assert main([
            "mc-study", "--model", model, "--sizes", "400,900", "--reps", "2",
            "--seed", "3", "--grid", "15", "--c1", "0.25", "--k1", "0.7", "--k2", "0.9", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["schema"].startswith("frontier-moments/mc-study/")
        # c2 and alpha_bar are the model's defaults: optimal c2 and the grid max of alpha
        assert report["config"]["schedule"] == {
            "c1": 0.25, "c2": 0.5, "k1": 0.7, "k2": 0.9, "d": 1, "eta_g": 1.0, "alpha_bar": 1.0,
        }
        agg = report["aggregate"]
        for key in ("sizes", "median_sup_error", "w", "w_times_median_sup_error",
                    "log_log_slope", "log_log_residual", "bias_terms"):
            assert key in agg
        assert {c["n"] for c in report["cells"]} == {400, 900}
        for cell in report["cells"]:
            for key in ("n", "replication", "seed", "p", "h", "w", "sup_error", "failures"):
                assert key in cell


class TestOracleCheckCommand:
    def test_full_disk_exits_1_and_leaves_no_file(self, model_file, tmp_path, monkeypatch, capsys):
        model, out = model_file(FLAT_SPEC), tmp_path / "oracle.json"
        fail_write(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), at=1)
        assert main(["oracle-check", "--model", model, "--out", str(out)]) == 1
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert not out.exists()

    def test_constant_model_all_pass(self, model_file, tmp_path):
        model = model_file(FLAT_SPEC)
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--model", model, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"]
        assert report["checks"]["ratio_expansion"]["exact"]

    def test_tail_correction_model_reports_scaled_column(self, model_file, tmp_path):
        spec = dict(FLAT_SPEC)
        spec["C"] = {"kind": "constant", "a": 0.75}
        spec["D0"] = {"kind": "constant", "a": 0.25}
        model = model_file(spec)
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--model", model, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["checks"]["ratio_expansion"]["scaled_gaps"]) == 3

    def test_three_dimensional_model_exits_2(self, model_file, tmp_path, capsys, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran before the dimension check")

        monkeypatch.setattr(oracle_module, "moment_brute", no_quadrature)
        monkeypatch.setattr(oracle_module, "moment_decomposition", no_quadrature)
        model = model_file({**FLAT_SPEC, "dimension": 3})
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--model", model, "--out", str(out)]) == 2
        assert "d <= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_exits_1(self, tmp_path):
        assert main(["oracle-check", "--model", str(tmp_path / "none.json"), "--out", str(tmp_path / "o.json")]) == 1


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--n", "10"],
        ["mc-study", "--sizes", "400,900", "--reps", "1", "--grid", "5"],
        ["oracle-check"],
    ],
    ids=["simulate", "mc-study", "oracle-check"],
)
def test_rising_survival_exits_2_naming_invariant(model_file, tmp_path, capsys, command):
    model = model_file(RISING_SPEC)
    out = tmp_path / "out"
    assert main([command[0], "--model", model, *command[1:], "--out", str(out)]) == 2
    assert "survival_nonincreasing" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "frontier_moments.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mc-study" in proc.stdout


def test_shipped_model_files_are_valid():
    from frontier_moments import load_model, validate

    models = Path(__file__).resolve().parent.parent / "models"
    for name in ("canonical.json", "two_term_tail.json"):
        model = load_model(models / name)
        assert validate(model).ok, name
