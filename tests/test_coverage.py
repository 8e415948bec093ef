import itertools
import json
import random

import numpy as np
import pytest

from mbckit import (
    CapExceededError,
    CostedInstance,
    Graph,
    apsp,
    coverage_greedy,
    coverage_weight,
    dump_coverage,
    gbc_direct,
    greedy_ratio,
    greedy_unit,
    reduce_to_coverage,
)
from mbckit.generators import gen_random, gen_random_costs, gen_random_tree

from conftest import make_instance


class TestReduction:
    def test_c4_elements(self, c4):
        ci = reduce_to_coverage(make_instance(c4, budget=2))
        assert ci.n_elements == 8
        assert sorted(ci.weights.tolist()) == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        assert ci.weights.sum() == 12.0  # n(n-1)
        # elements arrive pair-by-pair in lexicographic order
        assert ci.pairs == ((0, 1), (0, 2), (0, 2), (0, 3), (1, 2), (1, 3), (1, 3), (2, 3))

    def test_c4_sets_hold_path_memberships(self, c4):
        ci = reduce_to_coverage(make_instance(c4, budget=2))
        # node 0: all paths containing 0: (0,1), both (0,2) paths via 1 and 3
        # only one each, (0,3), and one of the two (1,3) paths
        assert list(ci.sets[0]) == [0, 1, 2, 3, 5]

    def test_total_weight_is_ordered_pair_count(self):
        for seed in range(6):
            g = gen_random(7, 0.4, seed=seed)
            ci = reduce_to_coverage(make_instance(g, budget=1))
            assert ci.weights.sum() == pytest.approx(g.n * (g.n - 1), abs=1e-9)

    def test_weight_identity_exhaustive(self, c4, p3, p4, k4, star4):
        for g in (c4, p3, p4, k4, star4):
            inst = make_instance(g, budget=2)
            pc = apsp(g)
            ci = reduce_to_coverage(inst)
            tol = 1e-9 * g.n * g.n
            for size in range(g.n + 1):
                for group in itertools.combinations(range(g.n), size):
                    assert abs(coverage_weight(ci, group) - gbc_direct(pc, group)) <= tol

    def test_cap(self, c4):
        with pytest.raises(CapExceededError) as err:
            reduce_to_coverage(make_instance(c4, budget=1), cap=7)
        assert err.value.count == 8


class TestGreedyEquivalence:
    def test_c4_unit_sequence(self, c4):
        inst = make_instance(c4, budget=2)
        ci = reduce_to_coverage(inst)
        cov = coverage_greedy(ci, k=2)
        node = greedy_unit(inst, 2)
        assert cov.order == node.order == (0, 2)
        assert cov.weight == node.gbc == 12.0

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_sequences_match(self, seed):
        g = gen_random(random.Random(seed).randint(4, 9), 0.4, seed=seed)
        inst = make_instance(g, budget=3)
        ci = reduce_to_coverage(inst)
        for k in (1, 2, 3):
            assert coverage_greedy(ci, k=k).order == greedy_unit(inst, k).order

    @pytest.mark.parametrize("seed", range(10))
    def test_budgeted_sequences_match(self, seed):
        rng = random.Random(seed + 300)
        g = gen_random(rng.randint(4, 9), 0.45, seed=seed + 9)
        costs = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        budget = float(rng.randint(1, max(1, int(costs.sum()))))
        inst = CostedInstance(g, costs, budget)
        cov = coverage_greedy(reduce_to_coverage(inst))
        node = greedy_ratio(inst)
        assert cov.order == node.order
        assert cov.weight == pytest.approx(node.gbc, abs=1e-9 * g.n * g.n)
        assert cov.cost == node.cost

    @pytest.mark.parametrize("name", ["path40", "grid2x20", "tree48"])
    def test_high_diameter_sequences_match(self, name):
        # high-diameter graphs too large for criterion 3, which enumerates
        # every group, but where each scan step prices the whole pool
        g = _high_diameter_graph(name)
        unit = make_instance(g, budget=5)
        assert coverage_greedy(reduce_to_coverage(unit), k=5).order == greedy_unit(unit, 5).order
        costs = gen_random_costs(g, (0, 5), seed=1)
        inst = CostedInstance(g, np.array([costs[x] for x in g.labels]), 8.0)
        assert coverage_greedy(reduce_to_coverage(inst)).order == greedy_ratio(inst).order

    PATH5 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]

    @pytest.mark.parametrize(
        "edges, costs, budget, nodes, value",
        [
            # the scan: the centre costs 1 + 5e-10, inside the slack
            (PATH5, [1, 1, 1 + 5e-10, 1, 1], 1, (2,), 16.0),
            # a second node fits after it, 2 + 5e-10 against budget 2
            (PATH5, [1, 1, 1 + 5e-10, 1, 1], 2, (0, 2), 18.0),
            # the single-node fallback: the hub costs 4 + 4e-10
            ([("h", x) for x in "abcde"], [4 + 4e-10, 1, 1, 1, 1, 1], 4, (0,), 30.0),
        ],
    )
    def test_budget_slack_matches(self, edges, costs, budget, nodes, value):
        # a node fits within the audit's slack on both sides
        inst = CostedInstance(Graph(edges), np.array(costs, dtype=float), float(budget))
        cov = coverage_greedy(reduce_to_coverage(inst))
        node = greedy_ratio(inst)
        assert cov.nodes == node.nodes == nodes
        assert cov.weight == node.gbc == value


def _high_diameter_graph(name):
    if name == "path40":
        return Graph([(str(i), str(i + 1)) for i in range(39)])
    if name == "grid2x20":
        rungs = [((0, c), (1, c)) for c in range(20)]
        return Graph(rungs + [((r, c), (r, c + 1)) for r in range(2) for c in range(19)])
    return gen_random_tree(48, 3)


class TestDump:
    def test_structure(self, c4):
        inst = make_instance(c4, costs=[1, 2, 3, 4], budget=5)
        ci = reduce_to_coverage(inst)
        doc = json.loads(dump_coverage(ci))
        assert set(doc) == {"elements", "sets", "costs", "budget"}
        assert doc["budget"] == 5.0
        assert len(doc["elements"]) == 8
        assert doc["elements"][0] == {"pair": ["0", "1"], "weight": 2.0}
        assert doc["costs"] == {"0": 1.0, "1": 2.0, "2": 3.0, "3": 4.0}
        covered = sorted(doc["sets"]["0"])
        assert covered == list(ci.sets[0])
        for indices in doc["sets"].values():
            assert all(0 <= i < len(doc["elements"]) for i in indices)
