"""The benchmark tracer's lookups resolve on the package as it is.

``benchmarks/tracing.py`` replaces each traced function at the name its
caller looks it up by, read from ``owner.__dict__``.  A refactor that moves
or drops one of those names breaks only a ``--trace 1`` benchmark run, so
the lookups are checked here, against the tracer module itself.
"""

import importlib.util
import sys
from pathlib import Path

import frontier_moments
import frontier_moments.cli  # noqa: F401  (the tracer wraps cli.main and the names cli looks up)

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


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
