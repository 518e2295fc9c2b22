"""Every function the benchmark's tracer wraps still exists in mukailat.

The tracer (perfbench/spans.py) raises on a missing name, so a rename or
deletion would otherwise only show up when the traced benchmark runs."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, qualname", _traced())
def test_traced_name_is_callable(module, qualname):
    obj = importlib.import_module(f"mukailat.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
