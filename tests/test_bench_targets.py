"""The benchmark's tracer wraps mbckit callables by name; a rename must
fail here, not only in a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,module,path", _targets())
def test_traced_name_resolves(span, module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), f"{span}: {module}.{path} is not callable"
