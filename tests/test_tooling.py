"""Guards for code outside the package that binds sklpdm names.

The benchmark's tracer (bench/tracing.py) wraps the functions listed in its
TRACED table, and a traced run fails when a listed function is missing or
records no calls. These checks catch a removed or renamed name here, in the
fast test run, instead of only in the benchmark smoke tests.
"""

import importlib
import importlib.util
from pathlib import Path

import sklpdm

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = load_traced_table()
    assert traced
    missing = [
        f"sklpdm.{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"sklpdm.{module}"), name, None))
    ]
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in sklpdm.__all__ if not hasattr(sklpdm, name)]
    assert missing == []
