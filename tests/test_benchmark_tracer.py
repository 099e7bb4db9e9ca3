"""The functions that the benchmark's span tracer wraps exist in the package.

``perfbench/spans.py`` replaces each function named in its ``WRAPPED`` table
when a run is traced; a name missing from the package would end every traced
run in ``Tracer.install``.  The table is read from the file as it stands.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()


@pytest.mark.parametrize("module_name,function", [
    (module_name, function)
    for module_name, functions in _SPANS.WRAPPED.items()
    for function in functions
])
def test_every_traced_function_exists(module_name, function):
    module = importlib.import_module(f"{_SPANS.PACKAGE}.{module_name}")
    assert callable(getattr(module, function, None))
