import random

import numpy as np
import pytest

from mbckit import (
    CapExceededError,
    ContractViolationError,
    CostedInstance,
    Graph,
    apsp,
    solve_exact,
)
from mbckit.exact import MAX_CANDIDATES
from mbckit.generators import gen_random

from conftest import make_instance
from oracle_utils import opt_brute


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
    def test_foreign_path_counts_rejected(self, c4):
        p5 = Graph([(str(i), str(i + 1)) for i in range(4)])
        with pytest.raises(ContractViolationError):
            solve_exact(make_instance(c4, budget=2), pc=apsp(p5))

    def test_bad_candidates_rejected(self, c4):
        inst = make_instance(c4, budget=1)
        for bad in ([7], [-1], [1.5, 2]):
            with pytest.raises(ContractViolationError):
                solve_exact(inst, candidates=bad)


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
