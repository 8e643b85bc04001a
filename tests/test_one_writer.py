"""Argument rules and the moment scan have one writer each.

Each positivity message is written once in ``src/``, and query points are
coerced only by ``model._points``.  Whether p, h and a are finite is
checked only by ``model._positive``, and the kernel weights' scale h^d is
formed only by ``KernelSpec.weight_scale``; the h powers of the rate
formulas (``w_rate``, the study's bias terms) are not weight scales.  ``KernelSpec.density`` keeps its own
``np.atleast_2d``: its argument is a kernel-space offset ``u``, not a query
point.  The sample meets the kernel in one place, ``moments._scan``, which
only ``moments.grid_windows`` calls, so every candidate list comes from the
window index and none is a hand-built list of all n rows.  ``moments`` adds
every window sum with ``np.bincount``, never ``np.sum``: one scan and one
summation rule, with no second path beside them.  A pair is in its window
exactly when r^2 < 1: neither ``KernelSpec.window_weights`` nor
``moments._scan`` compares a value with 0, such as a weight.
Dataset text is parsed only by ``study``'s dataset reader: its
``np.loadtxt`` bulk path and the ``csv.reader`` row loop behind it.
``csv.writer`` writes only the estimates CSV; the dataset writer formats
its row blocks itself.
Files are opened for writing only by ``model._output_file``, which removes
a cut-short file; the one other write-mode ``open`` is a study worker's
end of its result pipe.
The estimate has one path from window to record: ``estimate_at`` is a
one-row ``estimate_grid`` call, and the ratio pair, the only function that
takes the estimator's order multiplier ``a``, lives in ``estimator``, so
``moments`` knows nothing of the estimator.  The dataset reader's bulk
path checks the file's format only and leaves the value rules to
``Sample``.
Every tensor product comes from ``model._tensor``: no ``np.meshgrid``,
``np.outer`` or ``itertools`` beside it.  Processes are forked only by
``study._map_cells``, with no ``multiprocessing`` or ``concurrent`` pool
beside it, and both studies map their cells through it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frontier_moments"
SOURCES = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
MESSAGES = (
    "moment power p must be positive",
    "bandwidth h must be positive",
    "order multiplier a must be positive",
)
ARGUMENTS = ("moment power p", "bandwidth h", "order multiplier a")
COERCIONS = {"atleast_1d", "atleast_2d"}
ALLOWED = {"model._points", "kernels.KernelSpec.density"}
WRITE_MODE = set("wax+")
WRITES = {"write_text", "write_bytes", "tofile", "savetxt"}


def string_constants(source: str) -> list[str]:
    return [n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def sites(module: str, source: str, hit) -> list[str]:
    """Qualified name of the function around each node of ``source`` for which ``hit(node)`` holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if hit(child):
                found.append(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def attribute_sites(module: str, source: str, attrs, owner: str | None = None) -> list[str]:
    """Qualified name of the function around each use of an attribute named in ``attrs``.

    With ``owner``, count only ``<owner>.<attr>``, such as ``csv.reader``.
    """
    return sites(
        module,
        source,
        lambda n: isinstance(n, ast.Attribute)
        and n.attr in attrs
        and (owner is None or isinstance(n.value, ast.Name) and n.value.id == owner),
    )


def call_sites(module: str, source: str, name: str) -> list[str]:
    """Qualified name of the function around each call of the plain name ``name``, such as ``_scan(...)``."""
    return sites(module, source, lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name)


def finiteness_sites(module: str, source: str, names) -> list[str]:
    """Qualified name of the function around each string constant that is one of ``names`` or says it must be finite.

    ``"bandwidth h must be finite, got "``, an f-string's literal part, is
    a hit, and so is the bare ``"moment power p"`` a finiteness loop names.
    """
    return sites(
        module,
        source,
        lambda n: isinstance(n, ast.Constant)
        and isinstance(n.value, str)
        and any(n.value == name or n.value.startswith(f"{name} must be finite") for name in names),
    )


def power_sites(module: str, source: str, base: str) -> list[str]:
    """Qualified name of the function around each power of the plain name ``base``, such as ``h**d``."""
    return sites(
        module,
        source,
        lambda n: isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow) and isinstance(n.left, ast.Name) and n.left.id == base,
    )


def zero_compare_sites(module: str, source: str) -> list[str]:
    """Qualified name of the function around each comparison with the number 0, such as ``weights > 0.0``."""
    return sites(
        module,
        source,
        lambda n: isinstance(n, ast.Compare)
        and any(isinstance(o, ast.Constant) and type(o.value) in (int, float) and o.value == 0 for o in [n.left, *n.comparators]),
    )


def arange_over_n_sites(module: str, source: str) -> list[str]:
    """Qualified name of the function around each ``np.arange(<x>.n)``: a list of every sample row."""
    return sites(
        module,
        source,
        lambda n: isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "arange"
        and bool(n.args)
        and isinstance(n.args[0], ast.Attribute)
        and n.args[0].attr == "n",
    )


def write_open_sites(module: str, source: str) -> list[str]:
    """Qualified name of the function around each ``open`` call whose mode may write.

    A mode that is not a string literal counts as a write.
    """

    def writes(n):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open"):
            return False
        modes = n.args[1:2] + [k.value for k in n.keywords if k.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(WRITE_MODE & set(mode.value))

    return sites(module, source, writes)


def coercion_sites(module: str, source: str) -> list[str]:
    """Qualified name of the function around each np.atleast_1d / np.atleast_2d use."""
    return attribute_sites(module, source, COERCIONS)


def numpy_uses(source: str, name: str) -> list[int]:
    """Line of each ``np.<name>`` / ``numpy.<name>`` in ``source``."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == name and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")
    ]


def functions_with_parameter(source: str, name: str) -> list[str]:
    """Name of each function or method of ``source`` that has a parameter called ``name``."""
    return [
        n.name
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and name in [a.arg for a in n.args.posonlyargs + n.args.args + n.args.kwonlyargs]
    ]


def called_names(source: str, function: str) -> set[str]:
    """The plain names the top-level function ``function`` of ``source`` calls, such as ``estimate_grid(...)``."""
    (node,) = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def column_compare_sites(module: str, source: str) -> list[str]:
    """Qualified name of the function around each comparison of a column slice, such as ``table[:, d] > 0.0``."""
    return sites(
        module,
        source,
        lambda n: isinstance(n, ast.Compare)
        and any(isinstance(o, ast.Subscript) and isinstance(o.slice, ast.Tuple) for o in [n.left, *n.comparators]),
    )


def imported_modules(source: str) -> list[str]:
    """Top-level name of each module ``source`` imports."""
    names = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names += [a.name.split(".")[0] for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            names.append(n.module.split(".")[0])
    return names


@pytest.mark.parametrize("message", MESSAGES)
def test_positivity_message_written_once(message):
    count = sum(string_constants(src).count(message) for src in SOURCES.values())
    assert count == 1


def test_finiteness_of_p_h_and_a_checked_only_by_the_argument_rule():
    sites = [s for module, src in SOURCES.items() for s in finiteness_sites(module, src, ARGUMENTS)]
    assert sites == ["model._positive"] * len(ARGUMENTS)


def test_weight_scale_formed_only_by_the_kernel():
    assert power_sites("moments", SOURCES["moments"], "h") == []
    assert power_sites("kernels", SOURCES["kernels"], "h") == ["kernels.KernelSpec.weight_scale"]


def test_query_points_coerced_only_by_the_point_rule():
    sites = [s for module, src in SOURCES.items() for s in coercion_sites(module, src)]
    assert set(sites) <= ALLOWED, sites


def test_kernel_scanned_only_by_the_windows_primitive():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"window_weights"})]
    assert sites == ["moments._scan"]


def test_scan_called_only_by_the_grid_path():
    assert [s for module, src in SOURCES.items() for s in call_sites(module, src, "_scan")] == ["moments.grid_windows"]
    assert [s for module, src in SOURCES.items() for s in arange_over_n_sites(module, src)] == []


def test_window_membership_decided_by_the_radius_alone():
    scan = ("kernels.KernelSpec.window_weights", "moments._scan")
    found = zero_compare_sites("kernels", SOURCES["kernels"]) + zero_compare_sites("moments", SOURCES["moments"])
    assert [s for s in found if any(s == name or s.startswith(f"{name}.") for name in scan)] == []


def test_moments_sum_only_by_bincount():
    assert numpy_uses(SOURCES["moments"], "sum") == []
    assert numpy_uses(SOURCES["moments"], "bincount")


def test_dataset_text_parsed_only_by_the_dataset_reader():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"loadtxt"})]
    assert sites == ["study.read_dataset"]
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"reader"}, "csv")]
    assert sorted(sites) == ["study._read_dataset_rows", "study.read_dataset"]


def test_csv_writer_writes_only_the_estimates():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"writer"}, "csv")]
    assert sites == ["study.write_estimates"]


def test_files_written_only_by_the_output_helper():
    sites = [s for module, src in SOURCES.items() for s in write_open_sites(module, src)]
    assert sorted(sites) == ["model._output_file", "study._serve_share"]
    assert [s for module, src in SOURCES.items() for s in attribute_sites(module, src, WRITES)] == []


def test_moments_know_nothing_of_the_estimator():
    assert functions_with_parameter(SOURCES["moments"], "a") == []


def test_one_point_estimate_is_a_one_row_grid_call():
    calls = called_names(SOURCES["estimator"], "estimate_at")
    assert "estimate_grid" in calls
    moments_functions = {n.name for n in ast.parse(SOURCES["moments"]).body if isinstance(n, ast.FunctionDef)}
    assert calls & moments_functions == set()


def test_dataset_values_judged_by_sample_only():
    assert "study.read_dataset" not in attribute_sites("study", SOURCES["study"], {"isfinite"})
    assert "study.read_dataset" not in column_compare_sites("study", SOURCES["study"])


def test_tensor_products_built_only_by_the_grid_builder():
    for module, src in SOURCES.items():
        assert numpy_uses(src, "meshgrid") == [] and numpy_uses(src, "outer") == [], module
        assert "itertools" not in imported_modules(src), module


def test_processes_forked_only_by_the_cell_dispatcher():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"fork"}, "os")]
    assert sites == ["study._map_cells"]
    for module, src in SOURCES.items():
        assert not {"multiprocessing", "concurrent"} & set(imported_modules(src)), module


def test_both_studies_map_their_cells_through_the_dispatcher():
    sites = [s for module, src in SOURCES.items() for s in call_sites(module, src, "_map_cells")]
    assert sorted(sites) == ["study.moment_concentration", "study.run_study"]


def test_guard_sees_copies():
    copy = 'def f(x):\n    if not x > 0:\n        raise ValueError("bandwidth h must be positive")\n'
    assert string_constants(copy).count("bandwidth h must be positive") == 1
    src = "import numpy as np\nclass K:\n    def g(self, x):\n        return np.atleast_2d(x)\ny = np.atleast_1d(3)\n"
    assert coercion_sites("m", src) == ["m.K.g", "m"]
    src = "import numpy as np\ndef f(k, x, xs):\n    return np.sum(k.scaled_density(x, xs, 0.1))\n"
    assert attribute_sites("m", src, {"scaled_density"}) == ["m.f"]
    assert numpy_uses(src, "sum") == [3]
    src = "import numpy as np\ndef f(s, x):\n    return _scan(s, x, np.arange(s.n), m._scan)\nclass K:\n    def g(self):\n        _scan()\n"
    assert call_sites("m", src, "_scan") == ["m.f", "m.K.g"]
    assert arange_over_n_sites("m", src) == ["m.f"]
    src = "def f(w, r):\n    return w > 0.0, 0 < r, r < 1.0, w is False\nclass K:\n    def g(self):\n        def h(x):\n            return x == 0\n"
    assert zero_compare_sites("m", src) == ["m.f", "m.f", "m.K.g.h"]
    src = "import csv\nimport numpy as np\ndef f(fh):\n    return np.loadtxt(fh), csv.reader(fh), fh.reader\n"
    assert attribute_sites("m", src, {"loadtxt"}) == ["m.f"]
    assert attribute_sites("m", src, {"reader"}, "csv") == ["m.f"]
    src = "import itertools\nfrom itertools import product\nimport numpy as np\ng = np.meshgrid(a, a), np.outer(a, a)\n"
    assert imported_modules(src) == ["itertools", "itertools", "numpy"]
    assert numpy_uses(src, "meshgrid") == [4] and numpy_uses(src, "outer") == [4]
    src = "def f(p, m):\n    open(p)\n    open(p, 'rb')\n    open(p, mode='a')\n    open(p, m)\nclass K:\n    def g(self, p):\n        return open(p, 'r+'), p.write_text('')\n"
    assert write_open_sites("m", src) == ["m.f", "m.f", "m.K.g"]
    assert attribute_sites("m", src, WRITES) == ["m.K.g"]
    src = "import os\nimport multiprocessing.pool\nfrom concurrent.futures import ProcessPoolExecutor\ndef f():\n    return os.fork()\n"
    assert attribute_sites("m", src, {"fork"}, "os") == ["m.f"]
    assert imported_modules(src) == ["os", "multiprocessing", "concurrent"]
    src = "def f(x, a):\n    return g(x)\nclass K:\n    def h(self, *, a=1):\n        return m.g(a)\ndef g(x):\n    return f(x, 1)\n"
    assert functions_with_parameter(src, "a") == ["f", "h"]
    assert called_names(src, "f") == {"g"} and called_names(src, "g") == {"f"}
    src = "import numpy as np\ndef f(t, d):\n    return (t[:, d] > 0.0).all() and t.shape[1] == d and np.isfinite(t).all()\n"
    assert column_compare_sites("m", src) == ["m.f"]
    assert attribute_sites("m", src, {"isfinite"}) == ["m.f"]
    src = (
        'def f(h):\n    raise ValueError(f"bandwidth h must be finite, got {h!r}")\nclass K:\n    def g(self, p, a, d):\n'
        '        for name, v in (("moment power p", p), ("order multiplier a", a)):\n            pass\n'
        '        return "bandwidth h = 1", h**d, p**d, (1 - h) ** d, 2**h, _map_cells(f, [], 1), m._map_cells()\n'
    )
    assert finiteness_sites("m", src, ARGUMENTS) == ["m.f", "m.K.g", "m.K.g"]
    assert power_sites("m", src, "h") == ["m.K.g"]
    assert call_sites("m", src, "_map_cells") == ["m.K.g"]
