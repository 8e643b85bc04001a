"""Output checks: every timed operation is compared with stored references.

References live in ``references/<workload>.json`` and are written by
``make_references.py`` from the program itself.  Floats are compared with
a relative tolerance of 1e-9: a sum taken in another order moves a result
by ~1e-14 relative, while any real change to an estimate (the self-test
perturbs one ``g_hat`` by 1e-6 relative) lies far outside it.  Counts,
flags, exit codes and row counts must match exactly.

Each check returns a list of problems; an empty list means the output is
correct.  The module imports nothing from the package, so it also runs
where the package is broken.
"""

from __future__ import annotations

import csv
import json
import math

RTOL = 1e-9


def close(got, want) -> bool:
    """Both None, or both finite floats within RTOL of each other."""
    if got is None or want is None:
        return got is None and want is None
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= RTOL * max(abs(got), abs(want))


def check_study(report: dict, ref_cells: list) -> list[str]:
    """Per-cell ``sup_error`` and ``failures`` of a ``run_study`` report."""
    cells = report.get("cells", [])
    if len(cells) != len(ref_cells):
        return [f"study has {len(cells)} cells, reference has {len(ref_cells)}"]
    problems = []
    for k, (cell, ref) in enumerate(zip(cells, ref_cells)):
        if (cell["n"], cell["replication"]) != (ref["n"], ref["replication"]):
            problems.append(f"cell {k} is (n={cell['n']}, rep={cell['replication']}), reference differs")
        elif cell["failures"] != ref["failures"]:
            problems.append(f"cell {k}: failures {cell['failures']} != reference {ref['failures']}")
        elif not close(cell["sup_error"], ref["sup_error"]):
            problems.append(f"cell {k}: sup_error {cell['sup_error']!r} != reference {ref['sup_error']!r}")
    return problems


def count_rows(path) -> int:
    """Data rows of a CSV file with a header line."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.count(b"\n") + (0 if data.endswith(b"\n") or not data else 1)
    return max(lines - 1, 0)


def check_dataset(exit_code: int, path, n: int) -> list[str]:
    """A ``simulate`` call: exit code 0 and one CSV row per draw."""
    if exit_code != 0:
        return [f"simulate exited {exit_code}"]
    rows = count_rows(path)
    return [] if rows == n else [f"dataset has {rows} rows, want {n}"]


def read_estimates(path) -> list[tuple[list[float], float | None]]:
    """(x, g_hat) per row of an estimates CSV; g_hat is None where empty."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = header.index("g_hat")
        return [([float(v) for v in row[:d]], float(row[d]) if row[d] else None) for row in reader if row]


def check_estimates(exit_code: int, rows, ref_rows) -> list[str]:
    """An ``estimate`` call: exit code 0, the row count, and x and g_hat per grid point.

    ``rows`` and ``ref_rows`` are (x, g_hat) pairs as ``read_estimates`` gives them.
    """
    if exit_code != 0:
        return [f"estimate exited {exit_code}"]
    if len(rows) != len(ref_rows):
        return [f"estimates have {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for k, ((x, g_hat), (ref_x, ref_g)) in enumerate(zip(rows, ref_rows)):
        if len(x) != len(ref_x) or not all(close(a, b) for a, b in zip(x, ref_x)):
            problems.append(f"row {k}: grid point {x} != reference {ref_x}")
        elif not close(g_hat, ref_g):
            problems.append(f"row {k}: g_hat {g_hat!r} != reference {ref_g!r}")
    return problems


def oracle_flags(report: dict) -> dict:
    """The overall and per-check ``passed`` flags of an oracle report."""
    flags = {name: check["passed"] for name, check in report["checks"].items()}
    flags["passed"] = report["passed"]
    return flags


def check_oracle(exit_code: int, path, ref_flags: dict) -> list[str]:
    """An ``oracle-check`` call: exit code 0 and the reference's ``passed`` flags."""
    if exit_code != 0:
        return [f"oracle-check exited {exit_code}"]
    with open(path, "r", encoding="utf-8") as fh:
        flags = oracle_flags(json.load(fh))
    return [] if flags == ref_flags else [f"oracle flags {flags} != reference {ref_flags}"]
