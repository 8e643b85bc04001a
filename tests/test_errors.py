"""Package exceptions survive pickling, so they cross from a study worker process intact."""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import frontier_moments
from frontier_moments import (
    DatasetFormatError,
    DegenerateGridError,
    InsufficientLocalDataError,
    ModelError,
    ScheduleError,
)

# every exception the package defines, with constructor arguments that set each of its fields
EXAMPLES = [
    ModelError("field 'g': amplitude too large"),
    ScheduleError("bandwidth 1.5 falls outside (0, 1) at n=4"),
    DegenerateGridError("all 21 grid points failed"),
    InsufficientLocalDataError(0),
    InsufficientLocalDataError(7, "window of 7 points carries no usable moment mass"),
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
    back = pickle.loads(pickle.dumps(InsufficientLocalDataError(0)))
    assert str(back) == "kernel window holds 0 points"
    assert back.count == 0
