import itertools
import json
import random

import numpy as np
import pytest

from mbckit import (
    CapExceededError,
    ContractViolationError,
    CostedInstance,
    apsp,
    coverage_greedy,
    coverage_weight,
    dump_coverage,
    gbc_direct,
    greedy_ratio,
    greedy_unit,
    reduce_to_coverage,
)
from mbckit.generators import gen_random

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
            ci = reduce_to_coverage(inst, pc=pc)
            tol = 1e-9 * g.n * g.n
            for size in range(g.n + 1):
                for group in itertools.combinations(range(g.n), size):
                    assert abs(coverage_weight(ci, group) - gbc_direct(pc, group)) <= tol

    def test_foreign_path_counts_rejected(self, c4, p4):
        with pytest.raises(ContractViolationError):
            reduce_to_coverage(make_instance(c4, budget=1), pc=apsp(p4))

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
