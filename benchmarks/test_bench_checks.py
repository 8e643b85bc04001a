"""Self-test of the benchmark's output checks.

A reordered floating-point sum must pass; a single ``g_hat`` off by 1e-6
relative, a dropped grid point, a changed study cell or a flipped oracle
flag must each fail exactly one operation.  Run with

    python3 -m pytest -q benchmarks/test_bench_checks.py
"""

from __future__ import annotations

import copy
import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402


def reference(workload: str) -> dict:
    return json.loads((HERE / "references" / f"{workload}.json").read_text(encoding="utf-8"))["inputs"][0]


def write_estimates(path, rows) -> None:
    """An estimates CSV in the layout ``cli estimate`` writes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_1", "g_hat", "effective_count", "raw_inverse"])
        for x, g_hat in rows:
            writer.writerow([repr(v) for v in x] + [repr(g_hat) if g_hat is not None else "", "7", "1.0"])


def estimate_problems(tmp_path, rows, exit_code=0):
    path = tmp_path / "estimates.csv"
    write_estimates(path, rows)
    return checks.check_estimates(exit_code, checks.read_estimates(path), reference("cli-pipeline")["estimates"])


def test_reference_estimates_pass(tmp_path):
    assert estimate_problems(tmp_path, reference("cli-pipeline")["estimates"]) == []


def test_reordered_sum_passes(tmp_path):
    rows = [(x, g * (1.0 + 3e-14)) for x, g in reference("cli-pipeline")["estimates"]]
    assert estimate_problems(tmp_path, rows) == []


def test_one_perturbed_g_hat_fails(tmp_path):
    rows = copy.deepcopy(reference("cli-pipeline")["estimates"])
    rows[50][1] *= 1.0 + 1e-6
    problems = estimate_problems(tmp_path, rows)
    assert len(problems) == 1 and problems[0].startswith("row 50:")


def test_dropped_grid_point_fails(tmp_path):
    rows = reference("cli-pipeline")["estimates"]
    assert estimate_problems(tmp_path, rows[:40] + rows[41:]) != []


def test_failed_point_in_place_of_estimate_fails(tmp_path):
    rows = copy.deepcopy(reference("cli-pipeline")["estimates"])
    rows[3][1] = None
    assert len(estimate_problems(tmp_path, rows)) == 1


def test_nonzero_exit_fails(tmp_path):
    assert estimate_problems(tmp_path, reference("cli-pipeline")["estimates"], exit_code=3) != []


def test_study_cells():
    cells = reference("study-1d")["cells"]
    assert checks.check_study({"cells": copy.deepcopy(cells)}, cells) == []
    bumped = copy.deepcopy(cells)
    bumped[5]["sup_error"] *= 1.0 + 1e-6
    assert len(checks.check_study({"cells": bumped}, cells)) == 1
    failed = copy.deepcopy(cells)
    failed[0]["failures"] += 1
    assert len(checks.check_study({"cells": failed}, cells)) == 1


def test_oracle_flags(tmp_path):
    flags = reference("cli-pipeline")["oracle"]
    report = {"passed": flags["passed"], "checks": {k: {"passed": v} for k, v in flags.items() if k != "passed"}}
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert checks.check_oracle(0, path, flags) == []
    report["checks"]["ratio_expansion"]["passed"] = not report["checks"]["ratio_expansion"]["passed"]
    path.write_text(json.dumps(report), encoding="utf-8")
    assert checks.check_oracle(0, path, flags) != []


class _Replay:
    """A workload that replays stored estimate rows, one perturbed on request."""

    name = "replay"

    def __init__(self, tmp_path, perturb_index):
        self.tmp_path = tmp_path
        self.perturb_index = perturb_index

    def run(self, index, ref, workers=None):
        rows = copy.deepcopy(ref["estimates"])
        if index == self.perturb_index:
            rows[0][1] *= 1.0 - 1e-6
        return [run.Op("estimate", 0.1, estimate_problems(self.tmp_path, rows))]


def test_loop_counts_one_failed_op(tmp_path):
    ref = reference("cli-pipeline")
    loop = run.Loop(_Replay(tmp_path, perturb_index=2), [ref] * 4)
    for index in range(4):
        loop.iterate(index)
    assert loop.attempted == 4
    assert len(loop.failures) == 1 and loop.failures[0].startswith("estimate on input 2")
