import gc
import json
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbckit import (
    CapExceededError,
    ContractViolationError,
    CostedInstance,
    DisconnectedGraphError,
    DuplicateEdgeError,
    FormatError,
    Graph,
    SelfLoopError,
    UnknownLabelError,
    apsp,
    cost_array,
    enumerate_shortest_paths,
    on_shortest_path,
    parse_costs,
    parse_graph,
    parse_instance,
    to_instance_json,
)
from mbckit.generators import gen_apx, gen_random, gen_random_tree, gen_tight

from oracle_utils import LoopGraph, dist_sigma_int


class TestGraphConstruction:
    def test_labels_in_first_appearance_order(self):
        g = Graph([("x", "y"), ("y", "a"), ("a", "x")])
        assert g.labels == ("x", "y", "a")
        assert g.id_of == {"x": 0, "y": 1, "a": 2}
        assert g.n == 3 and g.m == 3

    def test_labels_coerced_to_strings(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.labels == ("0", "1", "2")

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph([("a", "b"), ("b", "b")])

    def test_duplicate_edge_rejected_in_both_orientations(self):
        with pytest.raises(DuplicateEdgeError):
            Graph([("a", "b"), ("a", "b")])
        with pytest.raises(DuplicateEdgeError):
            Graph([("a", "b"), ("b", "a")])

    def test_empty_edge_list_rejected(self):
        with pytest.raises(FormatError):
            Graph([])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            Graph([("a", "b"), ("c", "d")])

    def test_neighbors_degree_has_edge(self, c4):
        assert c4.neighbors(0) == [1, 3]
        assert c4.degree(0) == 2
        assert c4.has_edge(0, 1) and c4.has_edge(1, 0)
        assert not c4.has_edge(0, 2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: g.has_edge(-1, 2),
            lambda g: g.has_edge(2, -1),
            lambda g: g.has_edge(True, 2),
            lambda g: g.has_edge(0, 4),
            lambda g: g.has_edge(0, 1.0),
            lambda g: g.degree(-1),
            lambda g: g.degree(4),
            lambda g: g.degree(False),
            lambda g: g.neighbors(-1),
            lambda g: g.neighbors(4),
            lambda g: g.neighbors("a"),
            lambda g: g.label(-1),
            lambda g: g.label(True),
            lambda g: g.label(4),
        ],
    )
    def test_accessors_check_node_ids(self, p4, call):
        # on a - b - c - d, -1 used to wrap to d and True to read as b
        with pytest.raises(ContractViolationError):
            call(p4)

    def test_accessors_take_numpy_ids(self, p4):
        assert p4.degree(np.int64(1)) == 2
        assert p4.neighbors(np.int32(3)) == [2]
        assert p4.has_edge(np.int64(2), np.int64(3)) and not p4.has_edge(0, np.int64(3))
        assert p4.label(np.int64(3)) == "d"

    def test_ids_and_label_round_trip(self, p3):
        assert p3.ids(["c", "a"]) == [2, 0]
        assert p3.label(1) == "b"
        with pytest.raises(UnknownLabelError):
            p3.ids(["nope"])

    def test_csr_matches_adjacency(self, c4):
        mat = c4.csr()
        assert mat.shape == (4, 4)
        dense = mat.toarray()
        for u in range(4):
            for v in range(4):
                assert bool(dense[u, v]) == c4.has_edge(u, v) if u != v else True


class TestParsing:
    def test_edge_list_with_comments_and_blanks(self):
        g = parse_graph("# header\n a b # inline\n\nb c\n")
        assert g.labels == ("a", "b", "c")

    def test_malformed_edge_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_graph("a b\na b c\n")

    def test_empty_document(self):
        with pytest.raises(FormatError):
            parse_graph("   \n")

    def test_json_instance(self):
        text = json.dumps(
            {"edges": [["a", "b"], ["b", "c"]], "costs": {"b": 3}, "budget": 2}
        )
        inst = parse_instance(text)
        assert inst.graph.labels == ("a", "b", "c")
        assert inst.cost.tolist() == [1.0, 3.0, 1.0]
        assert inst.budget == 2.0

    def test_explicit_arguments_beat_json_fields(self):
        text = json.dumps({"edges": [["a", "b"]], "costs": {"a": 5}, "budget": 9})
        inst = parse_instance(text, costs_text="b 7\n", budget=1)
        assert inst.cost.tolist() == [1.0, 7.0]
        assert inst.budget == 1.0

    def test_missing_budget(self):
        with pytest.raises(FormatError, match="budget"):
            parse_instance("a b\n")

    @pytest.mark.parametrize(
        "edges",
        [
            [[[1], 2], [2, 3]],
            [[None, True], [True, 3]],
            [[{"a": 1}, 2]],
            [["a", 1.5]],
            [["a", "b"], ["b", None]],
            # a bool or a float equal to an earlier int label
            [[1, 2], [True, 3]],
            [[1, 2], [1.0, 3]],
        ],
    )
    def test_json_endpoints_must_be_strings_or_integers(self, edges):
        bad = next(
            rec for rec in edges if not all(type(x) in (str, int) for x in rec)
        )
        with pytest.raises(FormatError, match=re.escape(f"bad edge record {bad!r}")):
            parse_graph(json.dumps({"edges": edges}))

    @pytest.mark.parametrize("edges", [["ab", ["b", "c"]], [{"a": 1, "b": 2}], [["a", "b", "c"]]])
    def test_json_records_must_be_pairs(self, edges):
        with pytest.raises(FormatError, match="bad edge record"):
            parse_graph(json.dumps({"edges": edges}))

    def test_json_integer_endpoints_read_as_decimal_strings(self):
        g = parse_graph(json.dumps({"edges": [[10, "x"], ["10", 2], [2, "y"]]}))
        assert g.labels == ("10", "x", "2", "y")
        assert g.m == 3 and g.has_edge(g.id_of["10"], g.id_of["2"])

    @pytest.mark.parametrize("cost", [True, None, "3", [1]])
    def test_json_costs_must_be_numbers(self, cost):
        with pytest.raises(FormatError, match="'b' is not a number"):
            parse_instance(json.dumps({"edges": [["a", "b"]], "costs": {"b": cost}, "budget": 1}))

    def test_bad_json_shapes(self):
        with pytest.raises(FormatError):
            parse_graph("{not json")
        with pytest.raises(FormatError):
            parse_graph(json.dumps({"edges": "ab"}))
        with pytest.raises(FormatError):
            parse_graph(json.dumps({"nodes": []}))
        with pytest.raises(FormatError):
            parse_instance(json.dumps({"edges": [["a", "b"]], "budget": True}))

    def test_costs_file_defaults_and_errors(self, p3):
        cost = parse_costs("b 2.5\n# note\n", p3)
        assert cost.tolist() == [1.0, 2.5, 1.0]
        with pytest.raises(UnknownLabelError):
            parse_costs("zz 1\n", p3)
        with pytest.raises(FormatError):
            parse_costs("b\n", p3)
        with pytest.raises(FormatError):
            parse_costs("b twelve\n", p3)
        with pytest.raises(FormatError):
            parse_costs("b -1\n", p3)

    def test_to_instance_json_round_trip(self, c4):
        text = to_instance_json(c4, cost=np.array([1.0, 2.0, 3.0, 4.0]), budget=5)
        inst = parse_instance(text)
        g2 = inst.graph
        assert sorted(g2.labels) == sorted(c4.labels)
        before = {frozenset((c4.labels[u], c4.labels[v])) for u, v in c4.edge_list}
        after = {frozenset((g2.labels[u], g2.labels[v])) for u, v in g2.edge_list}
        assert after == before
        # costs follow labels, whatever the new id assignment
        assert [float(inst.cost[g2.id_of[lab]]) for lab in c4.labels] == [1.0, 2.0, 3.0, 4.0]
        assert inst.budget == 5.0


class TestCostedInstance:
    def test_unit_helper(self, p3):
        inst = CostedInstance.unit(p3, 2)
        assert inst.unit_costs and inst.budget == 2.0
        assert inst.cost_of([0, 2]) == 2.0

    def test_validation(self, p3):
        with pytest.raises(ContractViolationError):
            CostedInstance(p3, np.ones(2), 1.0)
        with pytest.raises(ContractViolationError):
            CostedInstance(p3, -np.ones(3), 1.0)
        with pytest.raises(ContractViolationError):
            CostedInstance(p3, np.full(3, np.inf), 1.0)
        with pytest.raises(ContractViolationError):
            CostedInstance(p3, np.ones(3), -1.0)


class TestApsp:
    def test_p3_counts(self, p3):
        pc = apsp(p3)
        assert pc.dist[0, 2] == 2
        assert pc.sigma[0, 2] == 1.0
        assert pc.sigma[0, 0] == 1.0 and pc.dist[0, 0] == 0

    def test_c4_counts(self, c4):
        pc = apsp(c4)
        assert pc.dist[0, 2] == 2
        assert pc.sigma[0, 2] == 2.0

    def test_arrays_read_only(self, p3):
        pc = apsp(p3)
        with pytest.raises(ValueError):
            pc.dist[0, 0] = 5

    def test_counts_computed_once_per_graph(self, c4, bfs_calls):
        first, second = apsp(c4), apsp(c4)
        assert len(bfs_calls) == 1
        assert first.graph is c4 and second.graph is c4
        assert second.dist is first.dist and second.sigma is first.sigma
        assert not second.dist.flags.writeable and not second.sigma.flags.writeable

    def test_cached_counts_die_with_their_graph(self):
        # the graph keeps bare arrays, so no reference cycle holds them
        # until the cyclic collector runs
        g = Graph([("a", "b"), ("b", "c")])
        ref = weakref.ref(apsp(g).sigma)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_bfs_counting_on_random_graphs(self, seed):
        g = gen_random(4 + seed * 2, 0.3, seed=seed)
        pc = apsp(g)
        dists, sigmas = dist_sigma_int(g.n, list(g.edge_list))
        for s in range(g.n):
            for t in range(g.n):
                assert pc.dist[s, t] == dists[s][t]
                assert pc.sigma[s, t] == float(sigmas[s][t])


class TestPathPredicates:
    def test_on_shortest_path(self, c4):
        pc = apsp(c4)
        assert on_shortest_path(pc, 0, 1, 2)
        assert on_shortest_path(pc, 0, 3, 2)
        assert not on_shortest_path(pc, 0, 2, 1)
        assert on_shortest_path(pc, 0, 0, 2)  # endpoints count
        with pytest.raises(ContractViolationError):
            on_shortest_path(pc, 0, 9, 2)

    def test_enumerate_c4_diagonal(self, c4):
        assert enumerate_shortest_paths(c4, 0, 2) == [[0, 1, 2], [0, 3, 2]]

    def test_enumerate_orders_lexicographically(self):
        # two middle layers: 0 - {1,2} - 3
        g = Graph([("s", "u"), ("s", "v"), ("u", "t"), ("v", "t")])
        paths = enumerate_shortest_paths(g, 0, g.id_of["t"])
        assert paths == sorted(paths)
        assert len(paths) == 2

    def test_enumerate_same_endpoint(self, p3):
        assert enumerate_shortest_paths(p3, 1, 1) == [[1]]

    def test_enumerate_cap(self, c4):
        with pytest.raises(CapExceededError) as err:
            enumerate_shortest_paths(c4, 0, 2, cap=1)
        assert err.value.count == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
def test_parse_serialize_round_trip(n, rng):
    g = gen_random(n, rng.random(), seed=rng.randrange(10_000))
    again = parse_graph(to_instance_json(g))
    assert sorted(again.labels) == sorted(g.labels)
    before = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edge_list}
    after = {frozenset((again.labels[u], again.labels[v])) for u, v in again.edge_list}
    assert after == before


def test_cost_array_accepts_int_labels():
    g = Graph([(0, 1), (1, 2)])
    arr = cost_array(g, {1: 4})
    assert arr.tolist() == [1.0, 4.0, 1.0]


class TestCostArray:
    def test_values_and_defaults(self, p3):
        arr = cost_array(p3, {"c": 2.5, "a": 0, "b": np.float32(1.5)})
        assert arr.dtype == np.float64 and arr.tolist() == [0.0, 1.5, 2.5]
        assert cost_array(p3, {}).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "mapping,error",
        [
            ({"zz": 1.0}, UnknownLabelError),
            ({"a": -1.0}, FormatError),
            ({"a": float("nan")}, FormatError),
            ({"a": float("inf")}, FormatError),
            ({"a": 10**400}, FormatError),
            ({"a": "3"}, FormatError),
            ({"a": None}, FormatError),
            # the first bad entry in mapping order decides
            ({"b": 1.0, "zz": 1.0, "a": -1.0}, UnknownLabelError),
            ({"b": 1.0, "a": -1.0, "zz": 1.0}, FormatError),
            ({"a": "x", "zz": 1.0}, FormatError),
        ],
    )
    def test_first_bad_entry_raises(self, p3, mapping, error):
        bad = next(lab for lab, val in mapping.items() if lab == "zz" or val != 1.0)
        with pytest.raises(error, match=re.escape(repr(bad))):
            cost_array(p3, mapping)


def _assert_same_graph(g, ref):
    assert (g.n, g.m) == (ref.n, ref.m)
    assert g.labels == ref.labels
    assert g.id_of == ref.id_of and list(g.id_of) == list(ref.id_of)
    assert g.adj == ref.adj
    assert all(type(w) is int for nbrs in g.adj for w in nbrs)
    assert g.edge_list == ref.edge_list
    assert all(type(u) is int and type(v) is int for u, v in g.edge_list)
    A = g.csr()
    assert A.shape == (ref.n, ref.n) and A.has_sorted_indices
    assert A.indptr.dtype == A.indices.dtype == np.int32
    assert A.indptr.tolist() == ref.indptr
    assert A.indices.tolist() == ref.indices
    assert A.data.dtype == np.float64 and (A.data == 1.0).all()


def _assert_same_error(edges):
    with pytest.raises(Exception) as want:
        LoopGraph(edges)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        Graph(edges)


def _random_edges(seed):
    """A shuffled connected graph with mixed orientations and int, str
    and int-as-str labels."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    names = [rng.choice([i, str(i), f"v{i}"]) for i in range(n)]
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in pairs:
        a, b = names[u], names[v]
        if rng.random() < 0.5:  # the same node by its int label or its decimal string
            a = str(a) if isinstance(a, int) else (int(a) if a.isdigit() else a)
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    return edges


def _generated_graphs():
    base = gen_random(6, 0.4, seed=2)
    return {
        "gen_random": gen_random(60, 0.1, seed=5),
        "gen_random_tree": gen_random_tree(50, seed=3),
        "gen_tight(2)": gen_tight(2)[0],
        "gen_apx": gen_apx(base, 2, l=2)[0],
    }


class TestArrayBuildMatchesLoop:
    """The array build against the loop constructor it replaced."""

    @pytest.mark.parametrize("seed", range(120))
    def test_random_edge_lists(self, seed):
        edges = _random_edges(seed)
        ref = LoopGraph(edges)
        _assert_same_graph(Graph(edges), ref)
        _assert_same_graph(Graph(iter(edges)), ref)
        _assert_same_graph(parse_graph(json.dumps({"edges": [list(e) for e in edges]})), ref)
        text = "".join(f"{a} {b}\n" for a, b in edges)
        _assert_same_graph(parse_graph(text), ref)

    @pytest.mark.parametrize("name", sorted(_generated_graphs()))
    def test_generated_graphs(self, name):
        g = _generated_graphs()[name]
        edges = [(g.labels[u], g.labels[v]) for u, v in g.edge_list]
        random.Random(name).shuffle(edges)
        _assert_same_graph(Graph(edges), LoopGraph(edges))

    def test_str_subclass_labels_read_as_str(self):
        # numpy strings equal, and hash as, the str of the same text
        edges = [("a", "b"), (np.str_("b"), np.str_("c")), (np.str_("d"), "a")]
        g = Graph(edges)
        _assert_same_graph(g, LoopGraph(edges))
        assert all(type(lab) is str for lab in g.labels)

    @pytest.mark.parametrize("seed", range(40))
    def test_first_offending_edge_wins(self, seed):
        # a self-loop and a repeated edge (either orientation) at random
        # places: the earlier one in input order is reported
        rng = random.Random(seed)
        edges = _random_edges(seed + 1000)
        a, b = rng.choice(edges)
        repeat = (a, b) if rng.random() < 0.5 else (b, a)
        loop = (rng.choice([a, b]),) * 2
        for bad in ([repeat], [loop], [repeat, loop], [loop, repeat], [loop, loop]):
            mixed = list(edges)
            for item in bad:
                mixed.insert(rng.randint(0, len(mixed)), item)
            _assert_same_error(mixed)

    @pytest.mark.parametrize(
        "edges",
        [
            [("a", "b"), ("b", "b"), ("b", "a")],
            [("a", "b"), ("b", "a"), ("b", "b")],
            [("a", "a"), ("a", "a")],
            [(1, "1")],
            [("1", 2), (2, 1)],
            [],
            [("a", "b"), ("c", "d")],
            [("a", "b"), ("c", "d"), ("b", "c"), ("e", "f"), ("f", "g")],
            [("a", "b"), ("c", "c"), ("d", "e")],
            [("a", "b"), (np.str_("b"), "a")],
            [("a", "b"), ("a", "b", "c")],
            [("a", "b"), 5],
        ],
    )
    def test_errors_match(self, edges):
        _assert_same_error(edges)
