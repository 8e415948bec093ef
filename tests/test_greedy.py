import math
import random

import numpy as np
import pytest

from mbckit import (
    ContractViolationError,
    CostedInstance,
    apsp,
    gbc_direct,
    greedy_modified,
    greedy_ratio,
    greedy_unit,
)
from mbckit.generators import gen_random

from conftest import make_instance
from oracle_utils import opt_brute

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e
ONE_MINUS_INV_SQRT_E = 1.0 - 1.0 / math.sqrt(math.e)


class TestGreedyUnit:
    def test_c4_two_picks(self, c4):
        sol = greedy_unit(make_instance(c4, budget=2), 2)
        assert sol.nodes == (0, 2)
        assert sol.order == (0, 2)
        assert sol.gbc == 12.0
        assert sol.cost == 2.0
        assert sol.algorithm == "unit"

    def test_zero_gain_nodes_still_added(self, p3):
        # after b the value is saturated; a and c are padded in id order
        sol = greedy_unit(make_instance(p3, budget=3), 3)
        assert sol.order == (1, 0, 2)
        assert sol.gbc == 6.0

    def test_k_capped_at_n(self, p3):
        sol = greedy_unit(make_instance(p3, budget=9), 9)
        assert sol.nodes == (0, 1, 2)

    def test_k_zero(self, p3):
        sol = greedy_unit(make_instance(p3, budget=0), 0)
        assert sol.nodes == () and sol.gbc == 0.0

    def test_rejects_costed_instance(self, p3):
        inst = make_instance(p3, costs=[1, 2, 1], budget=2)
        with pytest.raises(ContractViolationError):
            greedy_unit(inst, 1)

    def test_rejects_negative_k(self, p3):
        with pytest.raises(ContractViolationError):
            greedy_unit(make_instance(p3, budget=1), -1)

    def test_mismatched_path_counts_rejected(self, p3, c4):
        with pytest.raises(ContractViolationError):
            greedy_unit(make_instance(p3, budget=1), 1, pc=apsp(c4))

    @pytest.mark.parametrize("seed", range(15))
    def test_guarantee_against_brute_force(self, seed):
        rng = random.Random(seed)
        g = gen_random(rng.randint(3, 8), 0.4, seed=seed)
        k = rng.randint(1, 3)
        sol = greedy_unit(make_instance(g, budget=k), k)
        opt, _ = opt_brute(g.n, list(g.edge_list), [1.0] * g.n, k, max_size=k)
        assert sol.gbc >= ONE_MINUS_INV_E * float(opt) - 1e-9


class TestGreedyRatio:
    def test_expensive_middle_node_skipped(self, p3):
        inst = make_instance(p3, costs=[1, 10, 1], budget=2)
        sol = greedy_ratio(inst)
        assert sol.nodes == (0, 2)
        assert sol.gbc == 6.0
        assert sol.cost == 2.0

    def test_zero_cost_nodes_added_at_zero_budget(self, p3):
        inst = make_instance(p3, costs=[1, 0, 1], budget=0)
        sol = greedy_ratio(inst)
        assert sol.nodes == (1,)
        assert sol.gbc == 6.0
        assert sol.cost == 0.0

    def test_singleton_fallback_beats_ratio_trap(self):
        # hub h dominates but its ratio loses to the cheap leaf pair
        from mbckit import Graph

        star = Graph([("h", "a"), ("h", "b"), ("h", "c"), ("h", "d")])
        costs = np.array([4.0, 1.0, 1.0, 1.0, 1.0])
        inst = CostedInstance(star, costs, 4.0)
        sol = greedy_ratio(inst)
        pc = apsp(star)
        assert sol.gbc >= gbc_direct(pc, [0])

    def test_unaffordable_everything(self, p3):
        inst = make_instance(p3, costs=[5, 5, 5], budget=1)
        sol = greedy_ratio(inst)
        assert sol.nodes == () and sol.gbc == 0.0

    @pytest.mark.parametrize("seed", range(15))
    def test_guarantee_against_brute_force(self, seed):
        rng = random.Random(seed + 1000)
        g = gen_random(rng.randint(3, 8), 0.45, seed=seed)
        costs = [float(rng.randint(0, 5)) for _ in range(g.n)]
        budget = rng.uniform(1, max(1.0, sum(costs)))
        inst = CostedInstance(g, np.array(costs), budget)
        sol = greedy_ratio(inst)
        opt, _ = opt_brute(g.n, list(g.edge_list), costs, budget)
        assert sol.gbc >= ONE_MINUS_INV_SQRT_E * float(opt) - 1e-9


class TestGreedyModified:
    def test_never_worse_than_ratio(self, c4):
        inst = make_instance(c4, costs=[1, 1, 2, 3], budget=3)
        assert greedy_modified(inst).gbc >= greedy_ratio(inst).gbc

    def test_small_instances_solved_exactly(self, c4):
        # any optimum of size <= 3 appears among the initializations
        inst = make_instance(c4, budget=2)
        sol = greedy_modified(inst)
        assert sol.gbc == 12.0

    def test_candidates_whitelist(self, c4):
        inst = make_instance(c4, budget=2)
        sol = greedy_modified(inst, candidates=[1, 3])
        assert sol.nodes == (1, 3)
        with pytest.raises(ContractViolationError):
            greedy_modified(inst, candidates=[7])
        with pytest.raises(ContractViolationError):
            greedy_modified(inst, candidates=[1.5, 3])

    def test_threads_match_sequential(self, seed=3):
        g = gen_random(9, 0.35, seed=seed)
        rng = random.Random(seed)
        costs = np.array([float(rng.randint(0, 4)) for _ in range(g.n)])
        inst = CostedInstance(g, costs, 6.0)
        a = greedy_modified(inst)
        b = greedy_modified(inst, threads=3)
        assert (a.nodes, a.gbc, a.init_seed, a.order) == (b.nodes, b.gbc, b.init_seed, b.order)

    def test_reports_seed_and_order(self, p4):
        inst = make_instance(p4, budget=2)
        sol = greedy_modified(inst)
        assert sol.init_seed is not None
        assert set(sol.init_seed) <= set(sol.order)
        assert tuple(sorted(sol.order)) == sol.nodes
        assert sol.algorithm == "modified"

    @pytest.mark.parametrize("seed", range(12))
    def test_guarantee_against_brute_force(self, seed):
        rng = random.Random(seed + 2000)
        g = gen_random(rng.randint(3, 8), 0.45, seed=seed + 17)
        costs = [float(rng.randint(0, 5)) for _ in range(g.n)]
        budget = rng.uniform(1, max(1.0, sum(costs)))
        inst = CostedInstance(g, np.array(costs), budget)
        sol = greedy_modified(inst)
        opt, _ = opt_brute(g.n, list(g.edge_list), costs, budget)
        assert sol.gbc >= ONE_MINUS_INV_E * float(opt) - 1e-9


def test_solutions_are_frozen(p3):
    sol = greedy_unit(make_instance(p3, budget=1), 1)
    with pytest.raises(AttributeError):
        sol.gbc = 0.0
