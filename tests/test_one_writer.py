"""Argument rules and the moment scan have one writer each.

Each positivity message is written once in ``src/``, and query points are
coerced only by ``model._points``.  ``KernelSpec.density`` keeps its own
``np.atleast_2d``: its argument is a kernel-space offset ``u``, not a query
point.  The sample meets the kernel in one place, ``moments._scan``, and
``moments`` adds every window sum with ``np.bincount``, never ``np.sum``:
one scan and one summation rule, with no second path beside them.
Dataset text is parsed only by ``study``'s dataset reader: its
``np.loadtxt`` bulk path and the ``csv.reader`` row loop behind it.
Every tensor product comes from ``model._tensor``: no ``np.meshgrid``,
``np.outer`` or ``itertools`` beside it.  Processes are forked only by
``study._map_cells``, with no ``multiprocessing`` or ``concurrent`` pool
beside it.
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
COERCIONS = {"atleast_1d", "atleast_2d"}
ALLOWED = {"model._points", "kernels.KernelSpec.density"}


def string_constants(source: str) -> list[str]:
    return [n.value for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def attribute_sites(module: str, source: str, attrs, owner: str | None = None) -> list[str]:
    """Qualified name of the function around each use of an attribute named in ``attrs``.

    With ``owner``, count only ``<owner>.<attr>``, such as ``csv.reader``.
    """
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Attribute) and child.attr in attrs and (
                    owner is None or isinstance(child.value, ast.Name) and child.value.id == owner
                ):
                    sites.append(".".join([module] + scope))
                visit(child, scope)

    visit(ast.parse(source), [])
    return sites


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


def test_query_points_coerced_only_by_the_point_rule():
    sites = [s for module, src in SOURCES.items() for s in coercion_sites(module, src)]
    assert set(sites) <= ALLOWED, sites


def test_kernel_scanned_only_by_the_windows_primitive():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"scaled_density"})]
    assert sites == ["moments._scan"]


def test_moments_sum_only_by_bincount():
    assert numpy_uses(SOURCES["moments"], "sum") == []
    assert numpy_uses(SOURCES["moments"], "bincount")


def test_dataset_text_parsed_only_by_the_dataset_reader():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"loadtxt"})]
    assert sites == ["study.read_dataset"]
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"reader"}, "csv")]
    assert sorted(sites) == ["study._read_dataset_rows", "study.read_dataset"]


def test_tensor_products_built_only_by_the_grid_builder():
    for module, src in SOURCES.items():
        assert numpy_uses(src, "meshgrid") == [] and numpy_uses(src, "outer") == [], module
        assert "itertools" not in imported_modules(src), module


def test_processes_forked_only_by_the_cell_dispatcher():
    sites = [s for module, src in SOURCES.items() for s in attribute_sites(module, src, {"fork"}, "os")]
    assert sites == ["study._map_cells"]
    for module, src in SOURCES.items():
        assert not {"multiprocessing", "concurrent"} & set(imported_modules(src)), module


def test_guard_sees_copies():
    copy = 'def f(x):\n    if not x > 0:\n        raise ValueError("bandwidth h must be positive")\n'
    assert string_constants(copy).count("bandwidth h must be positive") == 1
    src = "import numpy as np\nclass K:\n    def g(self, x):\n        return np.atleast_2d(x)\ny = np.atleast_1d(3)\n"
    assert coercion_sites("m", src) == ["m.K.g", "m"]
    src = "import numpy as np\ndef f(k, x, xs):\n    return np.sum(k.scaled_density(x, xs, 0.1))\n"
    assert attribute_sites("m", src, {"scaled_density"}) == ["m.f"]
    assert numpy_uses(src, "sum") == [3]
    src = "import csv\nimport numpy as np\ndef f(fh):\n    return np.loadtxt(fh), csv.reader(fh), fh.reader\n"
    assert attribute_sites("m", src, {"loadtxt"}) == ["m.f"]
    assert attribute_sites("m", src, {"reader"}, "csv") == ["m.f"]
    src = "import itertools\nfrom itertools import product\nimport numpy as np\ng = np.meshgrid(a, a), np.outer(a, a)\n"
    assert imported_modules(src) == ["itertools", "itertools", "numpy"]
    assert numpy_uses(src, "meshgrid") == [4] and numpy_uses(src, "outer") == [4]
    src = "import os\nimport multiprocessing.pool\nfrom concurrent.futures import ProcessPoolExecutor\ndef f():\n    return os.fork()\n"
    assert attribute_sites("m", src, {"fork"}, "os") == ["m.f"]
    assert imported_modules(src) == ["os", "multiprocessing", "concurrent"]
