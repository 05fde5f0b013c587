"""The benchmark reaches into crashcast by name; those names must keep existing.

perfbench/spans.py wraps the functions in its TRACED table by module
attribute, so a renamed or deleted function would break `--trace 1` runs
without failing any other test.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module.TRACED


@pytest.mark.parametrize("module_name, names", sorted(_traced_table().items()))
def test_traced_functions_exist(module_name, names):
    module = importlib.import_module(f"crashcast.{module_name}")
    for name in names:
        assert callable(getattr(module, name, None)), f"crashcast.{module_name}.{name}"
