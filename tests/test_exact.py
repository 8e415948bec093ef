import random

import numpy as np
import pytest

from mbckit import (
    CapExceededError,
    ContractViolationError,
    CostedInstance,
    GbcOracle,
    apsp,
    solve_exact,
)
from mbckit.exact import MAX_CANDIDATES
from mbckit.generators import gen_random
from mbckit.greedy import _candidate_pool, _fits, _tie_tol

from conftest import make_instance, walk_case
from oracle_utils import opt_brute


def exact_reference(inst, candidates=None):
    """solve_exact's own recursion over the all-node oracle, as before
    the shared subset walk.

    The best value wins; values within _tie_tol of it go to the smallest
    set, then the lexicographically first.  Returns (nodes, gbc).
    """
    cand = _candidate_pool(inst.graph, candidates)
    costs, budget = inst.cost, inst.budget
    n = inst.graph.n
    tol = _tie_tol(n)
    full = float(n * (n - 1))
    suffix_min = np.empty(len(cand) + 1)
    suffix_min[-1] = np.inf
    for i in range(len(cand) - 1, -1, -1):
        suffix_min[i] = min(costs[cand[i]], suffix_min[i + 1])
    seen = [(0.0, ())]

    def descend(i, oracle, spent, chosen):
        for j in range(i, len(cand)):
            if not _fits(spent, suffix_min[j], budget):
                break
            v = cand[j]
            c = float(costs[v])
            if not _fits(spent, c, budget):
                continue
            branch = oracle.copy()
            branch.add(v)
            chosen.append(v)
            seen.append((branch.base_value, tuple(chosen)))
            if branch.base_value < full - tol:
                descend(j + 1, branch, spent + c, chosen)
            chosen.pop()

    descend(0, GbcOracle(apsp(inst.graph)), 0.0, [])
    top = max(value for value, _ in seen) - tol
    value, nodes = min((r for r in seen if r[0] >= top), key=lambda r: (len(r[1]), r[1]))
    return nodes, float(value)


class TestFrozenCases:
    def test_c4_budget_one_breaks_tie_to_smallest_id(self, c4):
        sol = solve_exact(make_instance(c4, budget=1))
        assert sol.nodes == (0,)
        assert sol.gbc == 7.0
        assert sol.algorithm == "exact"

    def test_p3_prefers_smaller_set_on_value_tie(self, p3):
        # {b} and {a, c} both reach full coverage 6
        sol = solve_exact(make_instance(p3, budget=3))
        assert sol.nodes == (1,)
        assert sol.gbc == 6.0

    def test_costed_p3(self, p3):
        inst = make_instance(p3, costs=[1, 10, 1], budget=2)
        sol = solve_exact(inst)
        assert sol.nodes == (0, 2)
        assert sol.gbc == 6.0

    def test_zero_budget(self, c4):
        sol = solve_exact(make_instance(c4, budget=0))
        assert sol.nodes == () and sol.gbc == 0.0

    def test_candidates_restriction(self, c4):
        sol = solve_exact(make_instance(c4, budget=1), candidates=[2, 3])
        assert sol.nodes == (2,)


class TestInputChecks:
    def test_bad_candidates_rejected(self, c4):
        inst = make_instance(c4, budget=1)
        for bad in ([7], [-1], [1.5, 2]):
            with pytest.raises(ContractViolationError):
                solve_exact(inst, candidates=bad)
        with pytest.raises(ContractViolationError):
            solve_exact(inst, candidates=[True, False])


class TestWalkMatchesRecursion:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_set_and_value(self, seed):
        inst, cand = walk_case(seed)
        sol = solve_exact(inst, candidates=cand)
        nodes, gbc = exact_reference(inst, cand)
        assert sol.nodes == nodes
        assert abs(sol.gbc - gbc) <= 1e-9 * inst.graph.n ** 2


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_value_and_witness_match(self, seed):
        rng = random.Random(seed)
        g = gen_random(rng.randint(3, 8), 0.45, seed=seed + 31)
        costs = [float(rng.randint(0, 5)) for _ in range(g.n)]
        budget = float(rng.randint(0, max(1, int(sum(costs)))))
        inst = CostedInstance(g, np.array(costs), budget)
        sol = solve_exact(inst)
        opt, witness = opt_brute(g.n, list(g.edge_list), costs, budget)
        assert sol.gbc == pytest.approx(float(opt), abs=1e-9 * g.n * g.n)
        assert sol.nodes == witness

    @pytest.mark.parametrize("seed", range(8))
    def test_candidate_subsets(self, seed):
        rng = random.Random(seed + 500)
        g = gen_random(7, 0.4, seed=seed + 77)
        cand = sorted(rng.sample(range(g.n), 4))
        budget = 2.0
        inst = make_instance(g, budget=budget)
        sol = solve_exact(inst, candidates=cand)
        opt, witness = opt_brute(g.n, list(g.edge_list), [1.0] * g.n, budget, candidates=cand)
        assert sol.gbc == pytest.approx(float(opt), abs=1e-9 * g.n * g.n)
        assert sol.nodes == witness
        assert set(sol.nodes) <= set(cand)


def test_candidate_cap_enforced():
    g = gen_random(MAX_CANDIDATES + 1, 0.2, seed=1)
    with pytest.raises(CapExceededError) as err:
        solve_exact(make_instance(g, budget=2))
    assert err.value.count == MAX_CANDIDATES + 1


def test_cap_ignores_unlisted_nodes():
    g = gen_random(MAX_CANDIDATES + 5, 0.2, seed=2)
    sol = solve_exact(make_instance(g, budget=1), candidates=[0, 1, 2])
    assert len(sol.nodes) <= 1
