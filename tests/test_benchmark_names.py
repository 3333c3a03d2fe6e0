"""Every layer the benchmark's tracer wraps must exist under its name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_layers():
    # the tracer imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("prefix, module, attribute", load_layers())
def test_traced_layer_resolves(prefix, module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target), prefix
