"""Guards for code outside the package that binds sklpdm names.

The benchmark's tracer (bench/tracing.py) wraps the functions listed in its
TRACED table, and a traced run fails when a listed function is missing or
records no calls. These checks catch a removed or renamed name, or an SKLP
layer the fit no longer calls, here, in the fast test run, instead of only
in the benchmark smoke tests.
"""

import importlib
import importlib.util
from pathlib import Path

import sklpdm

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = [
        f"sklpdm.{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"sklpdm.{module}"), name, None))
    ]
    assert missing == []


def test_every_traced_sklp_layer_records_calls():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    data = sklpdm.gen_gaussian_classes(3, 10, 4, 1.0, 6.0, seed=0)
    config = sklpdm.SklpConfig(rho=0.5, max_iters=2)
    tracer.install()
    try:
        # through the module attributes, which install() replaced
        sklpdm.sklp_projection.init_state(data, config)
        sklpdm.sklp_projection.fit(data, config)
    finally:
        tracer.uninstall()
    layers = [name for (module, _), name in tracing.TRACED.items() if module == "sklp_projection"]
    assert layers
    assert [name for name in layers if not tracer.calls.get(name)] == []


def test_every_public_name_resolves():
    missing = [name for name in sklpdm.__all__ if not hasattr(sklpdm, name)]
    assert missing == []
