import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from frontier_moments import (
    CovariateDensity,
    FrontierModel,
    RateSchedule,
    Sample,
    ScalarField,
    StudyConfig,
    cell_seed,
    read_dataset,
    run_study,
    sample,
    write_dataset,
)
from frontier_moments.cli import main
from frontier_moments.study import DatasetFormatError

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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n0.5,1.0\n")
        with pytest.raises(DatasetFormatError):
            read_dataset(path)


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
        assert "C_plus_D0_equals_one" in capsys.readouterr().err

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
        ],
        ids=["field-without-a", "field-not-object", "field-without-kind", "omega-one-number",
             "omega-scalar", "omega-strings", "top-level-list"],
    )
    def test_malformed_model_exits_2_naming_field(self, model_file, tmp_path, capsys, spec, named):
        model = model_file(spec)
        code = main(["simulate", "--model", model, "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_missing_model_exits_1(self, tmp_path):
        code = main(["simulate", "--model", str(tmp_path / "nope.json"), "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1

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
        argv = ["estimate", str(data), "--p", "20", "--h", "0.2", "--omega", "0.9", "0.1", "--out", str(out)]
        assert main(argv) == 2
        assert "lo < hi" in capsys.readouterr().err
        assert not out.exists()

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

    def test_schedule_violation_fails_before_any_work(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        out = tmp_path / "r.json"
        code = main([
            "mc-study", "--model", model, "--sizes", "400,900", "--reps", "2",
            "--c1", "0.6", "--c2", "0.6", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_report_schema_fields(self, model_file, tmp_path):
        model = model_file(CANONICAL_SPEC)
        out = tmp_path / "r.json"
        assert main([
            "mc-study", "--model", model, "--sizes", "400,900", "--reps", "2",
            "--seed", "3", "--grid", "15", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["schema"].startswith("frontier-moments/mc-study/")
        agg = report["aggregate"]
        for key in ("sizes", "median_sup_error", "w", "w_times_median_sup_error",
                    "log_log_slope", "log_log_residual", "bias_terms"):
            assert key in agg
        assert {c["n"] for c in report["cells"]} == {400, 900}
        for cell in report["cells"]:
            for key in ("n", "replication", "seed", "p", "h", "w", "sup_error", "failures"):
                assert key in cell


class TestOracleCheckCommand:
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

    def test_missing_model_exits_1(self, tmp_path):
        assert main(["oracle-check", "--model", str(tmp_path / "none.json"), "--out", str(tmp_path / "o.json")]) == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "frontier_moments.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mc-study" in proc.stdout


def test_shipped_model_files_are_valid():
    from pathlib import Path

    from frontier_moments import load_model, validate

    models = Path(__file__).resolve().parent.parent / "models"
    for name in ("canonical.json", "two_term_tail.json"):
        model = load_model(models / name)
        assert validate(model).ok, name
