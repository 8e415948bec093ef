"""Self-time arithmetic, layer counters, and the tracer's patching."""

import numpy as np
import pytest
import spans

import mbckit as mb


def _span(name, start, end, parent, request=0, extra=None):
    return (name, start, end, parent, request, extra)


def test_self_time_on_nested_tree():
    tree = [
        _span("request", 0.0, 10.0, -1),  # 0
        _span("greedy.modified", 1.0, 9.0, 0),  # 1
        _span("gbc.copy", 1.5, 2.0, 1),  # 2
        _span("gbc.add", 2.0, 4.0, 1),  # 3
        _span("gbc.gains", 5.0, 8.0, 1),  # 4
        _span("graph.apsp", 6.0, 7.0, 4, extra=3),  # 5
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([2.0, 2.5, 0.5, 2.0, 2.0, 1.0])
    assert sum(got) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("request", 0.0, 10.0, -1),
        _span("gbc.add", 2.0, 6.0, 0),
        _span("gbc.add", 4.0, 8.0, 0),
        _span("gbc.add", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_groups_and_counters():
    tree = [
        _span("request", 0.0, 10.0, -1, request=0),
        _span("greedy.modified", 0.0, 9.0, 0, request=0),
        _span("gbc.copy", 0.0, 1.0, 1, request=0),
        _span("gbc.add", 1.0, 2.0, 1, request=0),
        _span("gbc.add", 2.0, 3.0, 1, request=0),
        _span("gbc.copy", 3.0, 4.0, 1, request=0),
        _span("gbc.add", 4.0, 5.0, 1, request=0),
        _span("request", 10.0, 12.0, -1, request=1),
        _span("exact.solve", 10.0, 12.0, 7, request=1),
        _span("gbc.add", 10.5, 11.0, 8, request=1),
        _span("tree.fill", 11.0, 11.5, 8, request=1, extra=3 * 2**20),
    ]
    out = spans.layer_totals(tree, {0: "a", 1: "b"}.__getitem__)
    a, b = out["a"], out["b"]
    assert a["greedy.restarts"] == 2 and a["greedy.adds_per_restart"] == 1.5
    assert a["gbc.add.calls"] == 3 and a["gbc.copy.calls"] == 2
    assert a["greedy.self_s"] == pytest.approx(4.0)
    assert a["request.self_s"] == pytest.approx(1.0)
    assert b["exact.branches"] == 1 and b["greedy.restarts"] == 0
    assert b["exact.self_s"] == pytest.approx(1.0)
    assert b["tree.table_mb"] == pytest.approx(3.0)


def test_tracer_patches_every_binding_and_restores_them():
    import mbckit.greedy

    original = mbckit.greedy.apsp
    g = mb.gen_random(20, 0.3, 2)
    inst = mb.CostedInstance(g, np.ones(g.n), 3.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mbckit.greedy.apsp is not original and mb.apsp is mbckit.greedy.apsp
        with tracer.request_span(0):
            sol = mb.greedy_unit(inst, 3)  # builds its own apsp through greedy's binding
    finally:
        tracer.remove()
    assert mbckit.greedy.apsp is original and mb.apsp is original
    names = [sp[0] for sp in tracer.spans]
    assert names[0] == "request" and names[1] == "greedy.unit"
    assert names.count("graph.apsp") == 1 and names.count("gbc.add") == 3
    totals = spans.layer_totals(tracer.spans, lambda rid: rid)[0]
    assert totals["gbc.gains.candidates"] == g.n + (g.n - 1) + (g.n - 2)
    assert totals["graph.apsp.levels"] == int(mb.apsp(g).dist.max())
    assert sol.gbc == pytest.approx(mb.gbc_direct(mb.apsp(g), sol.nodes))


def test_table_bytes_counts_every_array_of_the_dp_table():
    g = mb.Graph([(f"p{i}", f"p{i + 1}") for i in range(11)])
    table = mb.DpTable(mb.binarize(mb.root_tree(g, np.ones(g.n))))
    want = sum(
        getattr(getattr(nt, slot), "nbytes", 0)
        for nt in table.tables
        for slot in type(nt).__slots__
    )
    assert want > 0 and spans._table_bytes((table,), {}, None) == want
