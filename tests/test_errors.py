"""Package exceptions survive pickling, so they cross from a study worker process intact."""

import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import frontier_moments
from frontier_moments import (
    DatasetFormatError,
    DegenerateGridError,
    InsufficientLocalDataError,
    KernelSpec,
    ModelError,
    Sample,
    ScheduleError,
    moment_ratio,
)


def empty_window_error():
    """The error as ``moment_ratio`` raises it on an empty window, traceback attached."""
    try:
        moment_ratio(Sample(xs=np.zeros((1, 1)), ys=np.ones(1)), [10.0], 1.0, 0.1, KernelSpec())
    except InsufficientLocalDataError as err:
        return err
    raise AssertionError("the window around 10.0 is not empty")


# every exception the package defines, with constructor arguments that set each of its fields
EXAMPLES = [
    ModelError("field 'g': amplitude too large"),
    ScheduleError("bandwidth 1.5 falls outside (0, 1) at n=4"),
    DegenerateGridError("all 21 grid points failed"),
    InsufficientLocalDataError("kernel window holds 0 points"),
    empty_window_error(),
    DatasetFormatError("line 3: non-numeric value in ['a', '1']", line=3),
    DatasetFormatError("dataset file is empty"),
]


def package_exceptions():
    modules = [importlib.import_module(f"frontier_moments.{m.name}") for m in pkgutil.iter_modules(frontier_moments.__path__)]
    return {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == module.__name__
    }


def test_examples_cover_every_package_exception():
    assert {type(err) for err in EXAMPLES} == package_exceptions()


@pytest.mark.parametrize("err", EXAMPLES, ids=lambda e: type(e).__name__)
def test_round_trip_keeps_type_message_and_fields(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert vars(back) == vars(err)


def test_empty_window_message_is_not_nested():
    back = pickle.loads(pickle.dumps(empty_window_error()))
    assert str(back) == "kernel window holds 0 points"
