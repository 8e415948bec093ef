import itertools
import math
import random

import numpy as np
import pytest

from mbckit import (
    ContractViolationError,
    CostedInstance,
    GbcOracle,
    apsp,
    gbc_direct,
    greedy_modified,
    greedy_ratio,
    greedy_unit,
)
from mbckit.generators import gen_random, gen_tight
from mbckit.graph import parse_instance, to_instance_json
from mbckit.greedy import _candidate_pool, _fits, _ratio_augment, _tie_tol

from conftest import make_instance, walk_case
from oracle_utils import opt_brute
from walk_reference import greedy_modified_unbounded

ONE_MINUS_INV_E = 1.0 - 1.0 / math.e
ONE_MINUS_INV_SQRT_E = 1.0 - 1.0 / math.sqrt(math.e)


def modified_reference(inst, candidates=None):
    """greedy_modified by per-seed replay, as before the depth-first walk.

    Every affordable combination of at most 3 candidates is added node
    by node to a fresh copy of the empty all-node oracle and augmented.
    The best value wins; values within _tie_tol of it go to the smallest
    seed, then the lexicographically first.
    Returns (nodes, gbc, init_seed, order).
    """
    cand = _candidate_pool(inst.graph, candidates)
    base = GbcOracle(apsp(inst.graph))
    seeds = [
        combo
        for size in range(0, 4)
        for combo in itertools.combinations(cand, size)
        if _fits(0.0, inst.cost_of(combo), inst.budget)
    ]
    runs = []
    for seed in seeds:
        oracle = base.copy()
        for v in seed:
            oracle.add(v)
        added = _ratio_augment(oracle, inst, [u for u in cand if u not in seed])
        runs.append((float(oracle.base_value), seed, tuple(seed) + tuple(added)))
    top = max(r[0] for r in runs) - _tie_tol(inst.graph.n)
    value, seed, order = min((r for r in runs if r[0] >= top), key=lambda r: (len(r[1]), r[1]))
    return tuple(sorted(order)), value, seed, order


def count_adds(monkeypatch) -> list:
    adds = []
    real = GbcOracle.add
    monkeypatch.setattr(GbcOracle, "add", lambda o, v: adds.append(v) or real(o, v))
    return adds


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
        # bool is no count: True would otherwise run with k = 1
        with pytest.raises(ContractViolationError):
            greedy_unit(make_instance(p3, budget=1), True)

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

    def test_unaffordable_everything_prices_nothing(self, p3, monkeypatch):
        calls = []
        real = GbcOracle.gains
        monkeypatch.setattr(GbcOracle, "gains", lambda o, c: calls.append(c) or real(o, c))
        greedy_ratio(make_instance(p3, costs=[5, 5, 5], budget=1))
        assert calls == []
        greedy_ratio(make_instance(p3, costs=[5, 1, 5], budget=1))
        assert calls and list(calls[0]) == [1]  # only the affordable node

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
        with pytest.raises(ContractViolationError):
            greedy_modified(inst, candidates=[True, False])

    @pytest.mark.parametrize("seed", range(40))
    def test_walk_matches_per_seed_replay(self, seed):
        inst, cand = walk_case(seed)
        nodes, gbc, init_seed, order = modified_reference(inst, cand)
        sol = greedy_modified(inst, candidates=cand)
        assert (sol.nodes, sol.init_seed, sol.order) == (nodes, init_seed, order)
        assert abs(sol.gbc - gbc) <= 1e-9 * inst.graph.n ** 2

    def test_value_ties_go_to_the_smallest_seed(self):
        # the empty seed and the seed (a3,) reach the same set, their
        # float values 1 ulp apart; the empty seed must win the tie
        g, meta = gen_tight(3)
        doc = to_instance_json(g, cost=np.ones(g.n), budget=3.0)
        inst = parse_instance(doc)
        g = inst.graph
        sol = greedy_modified(inst, candidates=g.ids(meta.whitelist))
        assert sol.init_seed == ()
        assert [g.labels[v] for v in sol.order] == ["a1", "a2", "a3"]

    def test_walk_adds_each_seed_prefix_once(self, monkeypatch):
        # the unbounded reference walk's count, then the bounded walk's
        g, meta = gen_tight(2)
        inst = CostedInstance.unit(g, 2.0)
        adds = count_adds(monkeypatch)
        greedy_modified_unbounded(inst, candidates=g.ids(meta.whitelist))
        assert len(adds) == 37  # per-seed replay made 58
        adds.clear()
        greedy_modified(inst, candidates=g.ids(meta.whitelist))
        assert len(adds) == 7  # seeds walked: {0}, {0, 4} and {4}

    def test_full_coverage_ends_the_walk(self, star4, monkeypatch):
        # the center alone covers every pair, so no seed extends it
        adds = count_adds(monkeypatch)
        sol = greedy_modified_unbounded(make_instance(star4, budget=3))
        assert len(adds) == 15  # per-seed replay made 35
        assert (sol.nodes, sol.gbc, sol.init_seed) == ((0,), 12.0, ())
        adds.clear()
        sol = greedy_modified(make_instance(star4, budget=3))
        # every knapsack holds the center's gain, so the bound skips
        # nothing; the empty seed's restart moved to the front
        assert len(adds) == 15
        assert (sol.nodes, sol.gbc, sol.init_seed) == ((0,), 12.0, ())

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
