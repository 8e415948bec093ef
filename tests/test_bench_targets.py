"""The benchmark's tracer wraps mbckit callables by name; a rename must
fail here, not only in a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _spans().TARGETS


@pytest.mark.parametrize("span,module,path", _targets())
def test_traced_name_resolves(span, module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), f"{span}: {module}.{path} is not callable"


def test_table_bytes_sees_the_step_point_tables():
    # tree.table_mb walks the DpTable a few references deep; it must reach
    # every array the fill keeps, or the metric reads 0
    import numpy as np

    import mbckit as mb

    g = mb.Graph([(f"v{i}", f"v{i + 1}") for i in range(89)])
    table = mb.DpTable(mb.binarize(mb.root_tree(g, np.array([float(v % 6) for v in range(g.n)]))))
    held = sum(
        getattr(nt, slot).nbytes
        for nt in table.tables
        for slot in type(nt).__slots__
        if isinstance(getattr(nt, slot), np.ndarray)
    )
    assert held > 0 and _spans()._table_bytes((table,), {}, None) == held
