"""The bounded subset walk against the unbounded reference walk.

solve_exact and greedy_modified skip the subtrees that the submodular
knapsack bound rules out.  They must return what the unbounded walk of
walk_reference returns: the same sets, seeds and orders, and bit-equal
values.  The counter pins say how much of the walk the bound skips.
"""

import itertools

import numpy as np
import pytest

import mbckit.greedy as greedy_module
from mbckit import CostedInstance, GbcOracle, apsp, gbc_direct, greedy_modified, solve_exact
from mbckit.generators import gen_apx, gen_random, gen_tight
from mbckit.greedy import _bound, _rank, _tie_tol

from conftest import make_instance, walk_case
from walk_reference import exact_unbounded, greedy_modified_unbounded


def tight_case(k):
    g, meta = gen_tight(k)
    return CostedInstance.unit(g, float(k)), g.ids(meta.whitelist)


def apx_case():
    big, _ = gen_apx(gen_random(5, 0.5, seed=3), k=2, l=2)
    return CostedInstance.unit(big, 3.0), None


def assert_same(inst, cand):
    got, ref = greedy_modified(inst, cand), greedy_modified_unbounded(inst, cand)
    assert (got.nodes, got.init_seed, got.order) == (ref.nodes, ref.init_seed, ref.order)
    assert got.gbc == ref.gbc
    got, ref = solve_exact(inst, cand), exact_unbounded(inst, cand)
    assert (got.nodes, got.gbc) == (ref.nodes, ref.gbc)


class TestBoundedWalkMatchesUnbounded:
    @pytest.mark.parametrize("seed", range(200))
    def test_walk_cases(self, seed):
        assert_same(*walk_case(seed))

    @pytest.mark.parametrize("k", [2, 3])
    def test_tight_whitelist(self, k):
        assert_same(*tight_case(k))

    def test_apx_blow_up(self):
        inst, cand = apx_case()
        assert inst.graph.n == 19
        assert_same(inst, cand)


class TestMargin:
    # The skip test leaves 2 _tie_tol of room for float noise in the
    # bound.  A bound that reads 1.5 _tie_tol low must still keep every
    # outcome within _tie_tol of the best.

    @staticmethod
    def low_bound(monkeypatch, n):
        low = 1.5 * _tie_tol(n)
        monkeypatch.setattr(greedy_module, "_bound", lambda *args: _bound(*args) - low)

    def test_tight_bound_keeps_the_tie(self, monkeypatch, p3):
        # {a, c} is walked first and covers every pair; {b} ties it with
        # one node.  b costs the budget plus all of its slack, so the
        # knapsack has no room and b's bound is its own value
        inst = make_instance(p3, costs=[1, 2 + 2e-9, 1], budget=2)
        self.low_bound(monkeypatch, p3.n)
        assert solve_exact(inst).nodes == (1,)

    @pytest.mark.parametrize("seed", range(0, 200, 7))
    def test_walk_cases(self, monkeypatch, seed):
        inst, cand = walk_case(seed)
        self.low_bound(monkeypatch, inst.graph.n)
        assert_same(inst, cand)


def walk_counts(monkeypatch, solve, inst, cand):
    """(adds, copies, bounds) made by one solve."""
    counts = {"add": 0, "copy": 0, "bound": 0}
    add, copy = GbcOracle.add, GbcOracle.copy

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(GbcOracle, "add", counting("add", add))
    monkeypatch.setattr(GbcOracle, "copy", counting("copy", copy))
    monkeypatch.setattr(greedy_module, "_bound", counting("bound", _bound))
    solve(inst, cand)
    return counts["add"], counts["copy"], counts["bound"]


class TestWalkCounts:
    # Each affordable child gets one _bound call; a child walked costs one
    # copy.  greedy_modified also copies the root once, for the empty
    # seed's restart.  So the bound skipped (bounds - children walked).
    # The unbounded walk adds 28 (k = 2) and 129 (k = 3) subsets.

    @pytest.mark.parametrize(
        "k, adds, copies, bounds, skipped", [(2, 3, 3, 13, 10), (3, 5, 5, 30, 25)]
    )
    def test_exact(self, monkeypatch, k, adds, copies, bounds, skipped):
        inst, cand = tight_case(k)
        got = walk_counts(monkeypatch, solve_exact, inst, cand)
        assert got == (adds, copies, bounds)
        assert bounds - copies == skipped

    @pytest.mark.parametrize(
        "k, adds, copies, bounds, skipped", [(2, 7, 4, 17, 14), (3, 19, 8, 44, 37)]
    )
    def test_modified(self, monkeypatch, k, adds, copies, bounds, skipped):
        inst, cand = tight_case(k)
        got = walk_counts(monkeypatch, greedy_modified, inst, cand)
        assert got == (adds, copies, bounds)
        assert bounds - (copies - 1) == skipped

    def test_unbounded_reference(self, monkeypatch):
        inst, cand = tight_case(3)
        assert walk_counts(monkeypatch, exact_unbounded, inst, cand) == (129, 129, 0)
        assert walk_counts(monkeypatch, greedy_modified_unbounded, inst, cand) == (186, 129, 0)


class TestBound:
    @staticmethod
    def items(gains, costs):
        return sorted(zip(gains, costs, range(len(gains))), key=_rank)

    def test_ranks_free_items_first_then_by_ratio(self):
        items = self.items([1.0, 5.0, 4.0, 0.5], [1.0, 2.0, 1.0, 0.0])
        assert [at for _, _, at in items] == [3, 2, 1, 0]

    def test_fractional_knapsack(self):
        items = self.items([1.0, 5.0, 4.0, 0.5], [1.0, 2.0, 1.0, 0.0])
        # free 0.5 whole, 4 (cost 1) whole, then half of 5 (cost 2)
        assert _bound(10.0, items, 2.0, 5, 5) == 10.0 + 0.5 + 4.0 + 2.5
        assert _bound(10.0, items, 100.0, 5, 5) == 20.5
        # free items are taken whole in no room at all
        assert _bound(10.0, items, 0.0, 5, 5) == 10.5

    def test_skipped_positions_leave_the_knapsack(self):
        items = self.items([1.0, 5.0, 4.0, 0.5], [1.0, 2.0, 1.0, 0.0])
        # positions 2..3 out: 5 (cost 2) whole, then 1 (cost 1) whole
        assert _bound(0.0, items, 3.0, 2, 3) == 6.0
        assert _bound(0.0, items, 2.5, 2, 3) == 5.5
        assert _bound(0.0, items, 2.0, 0, 3) == 0.0

    def test_bounds_every_superset(self):
        # the bound at S over the non-members dominates every affordable
        # superset's value, here for every S on a small random graph
        g = gen_random(7, 0.4, seed=5)
        rng = np.random.default_rng(5)
        costs = rng.choice([0.0, 1.0, 2.0, 0.5], size=g.n)
        budget = 3.0
        pc = apsp(g)
        for size in range(3):
            for seed in itertools.combinations(range(g.n), size):
                spent = float(costs[list(seed)].sum())
                if spent > budget:
                    continue
                oracle = GbcOracle(pc)
                for v in seed:
                    oracle.add(v)
                gains = oracle.gains(range(g.n)).tolist()
                items = sorted(
                    ((x, float(costs[u]), u) for u, x in enumerate(gains) if x > 0.0), key=_rank
                )
                bound = _bound(oracle.base_value, items, budget - spent, -1, -1)
                rest = [u for u in range(g.n) if u not in seed]
                for extra in range(len(rest) + 1):
                    for more in itertools.combinations(rest, extra):
                        if spent + float(costs[list(more)].sum()) <= budget:
                            value = gbc_direct(pc, seed + more)
                            assert value <= bound + 1e-9 * g.n**2
