import itertools
import random

import numpy as np
import pytest

from mbckit import (
    ContractViolationError,
    GbcOracle,
    apsp,
    brandes_bc,
    gbc_direct,
    gbc_modified,
)
from mbckit.generators import gen_random

from oracle_utils import gbc_brute, gbc_modified_brute


class TestGbcDirect:
    def test_p3_middle(self, p3):
        assert gbc_direct(apsp(p3), [1]) == 6.0

    def test_c4_values(self, c4):
        pc = apsp(c4)
        assert gbc_direct(pc, [1]) == 7.0
        assert gbc_direct(pc, [1, 3]) == 12.0

    def test_star_center_and_leaf(self, star4):
        pc = apsp(star4)
        assert gbc_direct(pc, [star4.id_of["c"]]) == 12.0
        assert gbc_direct(pc, [star4.id_of["x"]]) == 6.0

    def test_empty_and_full_group(self, k4):
        pc = apsp(k4)
        assert gbc_direct(pc, []) == 0.0
        assert gbc_direct(pc, range(4)) == 12.0  # n(n-1)

    def test_rejects_bad_ids(self, p3):
        with pytest.raises(ContractViolationError):
            gbc_direct(apsp(p3), [5])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_path_enumeration_exhaustively(self, seed):
        g = gen_random(6, 0.4, seed=seed)
        pc = apsp(g)
        edges = list(g.edge_list)
        tol = 1e-9 * g.n * g.n
        for size in range(g.n + 1):
            for group in itertools.combinations(range(g.n), size):
                want = float(gbc_brute(g.n, edges, group))
                assert abs(gbc_direct(pc, group) - want) <= tol


class TestBrandes:
    def test_frozen_values(self, c4, p3, k4):
        assert brandes_bc(c4).tolist() == [1.0, 1.0, 1.0, 1.0]
        assert brandes_bc(p3).tolist() == [0.0, 2.0, 0.0]
        assert brandes_bc(k4).tolist() == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_single_node_identity(self, seed):
        g = gen_random(9, 0.35, seed=seed)
        pc = apsp(g)
        bc = brandes_bc(g)
        tol = 1e-9 * g.n * g.n
        for v in range(g.n):
            assert abs(gbc_direct(pc, [v]) - (bc[v] + 2 * (g.n - 1))) <= tol


class TestOracle:
    def test_gain_frozen_case(self, c4):
        oracle = GbcOracle(apsp(c4))
        oracle.add(1)
        assert oracle.value == 7.0
        assert oracle.gain(3) == 5.0

    def test_add_returns_gain_and_tracks_value(self, c4):
        pc = apsp(c4)
        oracle = GbcOracle(pc)
        total = 0.0
        chosen = []
        for v in (2, 0):
            gain = oracle.add(v)
            chosen.append(v)
            total += gain
            assert oracle.base_value == pytest.approx(total, abs=1e-12)
            assert oracle.base_value == pytest.approx(gbc_direct(pc, chosen), abs=1e-12)

    def test_readding_member_raises_and_preserves_state(self, c4):
        oracle = GbcOracle(apsp(c4))
        oracle.add(1)
        before_value = oracle.value
        before_gain = oracle.gain(2)
        with pytest.raises(ContractViolationError):
            oracle.add(1)
        assert oracle.value == before_value
        assert oracle.gain(2) == before_gain
        assert oracle.members == (1,)

    def test_gains_matches_single_gain(self, c4):
        oracle = GbcOracle(apsp(c4))
        oracle.add(0)
        batch = oracle.gains([1, 2, 3])
        assert batch.tolist() == [oracle.gain(1), oracle.gain(2), oracle.gain(3)]
        # larger graphs, members left in the pool, after several adds: the
        # batch, the single gain and the gain add() returns share one product
        for seed in range(4):
            g = gen_random(12 + 5 * seed, 0.3, seed=seed + 40)
            oracle = GbcOracle(apsp(g))
            for v in random.Random(seed).sample(range(g.n), 3):
                oracle.add(v)
            pool = list(range(g.n))
            batch = oracle.gains(pool)
            for i, v in enumerate(pool):
                assert batch[i] == oracle.gain(v)
                if v not in oracle.members:
                    got = oracle.copy().add(v)
                    assert abs(got - batch[i]) <= 1e-12 * g.n * g.n

    def test_gains_rejects_non_integer_ids(self, c4):
        oracle = GbcOracle(apsp(c4))
        with pytest.raises(ContractViolationError):
            oracle.gains([1.7, 2])
        with pytest.raises(ContractViolationError):
            oracle.gains([2, 4])

    def test_copy_is_independent(self, c4):
        base = GbcOracle(apsp(c4))
        base.add(0)
        fork = base.copy()
        fork.add(2)
        assert base.members == (0,)
        assert fork.members == (0, 2)
        assert base.value == 7.0
        assert fork.value == 12.0

    def test_member_gain_is_zero(self, c4):
        oracle = GbcOracle(apsp(c4))
        oracle.add(1)
        assert oracle.gain(1) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_trajectories_match_direct(self, seed):
        rng = random.Random(seed)
        g = gen_random(rng.randint(4, 9), 0.4, seed=seed + 100)
        pc = apsp(g)
        tol = 1e-9 * g.n * g.n
        oracle = GbcOracle(pc)
        chosen = []
        for v in rng.sample(range(g.n), g.n):
            want_gain = gbc_direct(pc, chosen + [v]) - gbc_direct(pc, chosen)
            assert abs(oracle.gain(v) - want_gain) <= tol
            got = oracle.add(v)
            chosen.append(v)
            assert abs(got - want_gain) <= tol
            assert abs(oracle.base_value - gbc_direct(pc, chosen)) <= tol


class TestGbcModified:
    def test_empty_cases(self, c4):
        pc = apsp(c4)
        assert gbc_modified(pc, [], [0]) == 0.0
        assert gbc_modified(pc, [(0, 2)], []) == 0.0

    def test_c4_single_pair(self, c4):
        pc = apsp(c4)
        # both 0-2 paths pass through 1 or 3 respectively
        assert gbc_modified(pc, [(0, 2)], [1]) == 0.5
        assert gbc_modified(pc, [(0, 2)], [1, 3]) == 1.0
        assert gbc_modified(pc, [(0, 2)], [0]) == 1.0  # endpoint counts

    def test_validation(self, c4):
        pc = apsp(c4)
        with pytest.raises(ContractViolationError):
            gbc_modified(pc, [(2, 2)], [0])
        with pytest.raises(ContractViolationError):
            gbc_modified(pc, [(0, 9)], [0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration(self, seed):
        rng = random.Random(seed)
        g = gen_random(7, 0.4, seed=seed + 50)
        pc = apsp(g)
        edges = list(g.edge_list)
        all_pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        tol = 1e-9 * g.n * g.n
        for _ in range(10):
            pairs = rng.sample(all_pairs, rng.randint(1, len(all_pairs)))
            group = rng.sample(range(g.n), rng.randint(0, g.n))
            want = float(gbc_modified_brute(g.n, edges, pairs, group))
            assert abs(gbc_modified(pc, pairs, group) - want) <= tol


def test_gbc_direct_accepts_numpy_group(c4):
    pc = apsp(c4)
    assert gbc_direct(pc, np.array([1, 3])) == 12.0
