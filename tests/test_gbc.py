import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mbckit.gbc as gbc_mod
from mbckit import (
    ContractViolationError,
    CostedInstance,
    GbcOracle,
    Graph,
    apsp,
    brandes_bc,
    gbc_direct,
    gbc_modified,
    greedy_modified,
    greedy_ratio,
    greedy_unit,
    solve_exact,
)
from mbckit.generators import gen_apx, gen_random, gen_random_costs, gen_random_tree, gen_tight

from oracle_utils import gbc_brute, gbc_modified_brute
from test_twins import grid, path


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
        # a bool id would mask every node instead of picking node 1
        with pytest.raises(ContractViolationError):
            gbc_direct(apsp(p3), [True])

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
        with pytest.raises(ContractViolationError):
            oracle.gains([True])

    @pytest.mark.parametrize("pool", [None, range(4)], ids=["all-node", "pool"])
    def test_ids_are_checked_in_array_passes(self, c4, pool):
        # the checks run on the whole list at once, yet the error names
        # the first bad id, as checking one id at a time did
        oracle = GbcOracle(apsp(c4), pool)
        oracle.add(0)
        for bad in (True, -1, 4, 2.0):
            with pytest.raises(ContractViolationError, match=f"node id {bad!r} out of range"):
                oracle.gains([1, bad, 2])
            with pytest.raises(ContractViolationError, match=f"node id {bad!r} out of range"):
                oracle.gain(bad)
        with pytest.raises(ContractViolationError, match="node id 4 out of range"):
            oracle.gains([1, 4, -1, True])
        want = oracle.gains([1, 2, 3])
        got = oracle.gains([np.int64(1), np.int32(2), np.uint8(3)])
        assert got.tolist() == want.tolist() == [3.0, 5.0, 3.0]
        assert oracle.gain(np.int64(2)) == want[1]
        assert oracle.gains(np.array([3, 0])).tolist() == [3.0, 0.0]
        assert oracle.gains([]).tolist() == []

    @pytest.mark.parametrize("case", range(6))
    def test_sweep_agrees_with_direct(self, case, monkeypatch):
        # every node's pool is large enough to take the two reverse sweeps
        calls = pb_kernel_calls(monkeypatch)
        g = _kernel_graphs()[case]
        pc = apsp(g)
        oracle = GbcOracle(pc)
        assert calls == ["_pb_sweep"]
        chosen = random.Random(case).sample(range(g.n), 3)
        for v in chosen:
            oracle.add(v)
        pool = list(range(g.n))  # members stay in the pool
        every = oracle.gains(pool)
        base = gbc_direct(pc, chosen)
        want = [0.0 if v in chosen else gbc_direct(pc, chosen + [v]) - base for v in pool]
        scale = g.n * g.n
        assert np.abs(every - want).max() <= 1e-9 * scale
        # pools of one to three candidates read the same gains
        lo = 0
        while lo < g.n:
            part = pool[lo : lo + 1 + lo % 3]
            got = oracle.gains(part)
            assert got.tolist() == every[part].tolist()
            assert np.abs(got - np.take(want, part)).max() <= 1e-9 * scale
            lo += len(part)

    @pytest.mark.parametrize("case", range(6))
    def test_uncached_gain_is_the_add_product(self, case):
        g = _kernel_graphs()[case]
        oracle = GbcOracle(apsp(g))
        chosen = random.Random(case + 20).sample(range(g.n), 3)
        for v in chosen:
            oracle.add(v)
        every = oracle.gains(range(g.n))
        for v in range(g.n):
            got = oracle.gain(v)
            if v in chosen:
                assert got == 0.0
                continue
            assert got == oracle.copy().add(v) == every[v]

    def test_add_drops_cached_gains(self):
        g = gen_random(30, 0.2, seed=71)
        pc = apsp(g)
        pool = list(range(g.n))
        oracle = GbcOracle(pc)
        replay = []
        for v in random.Random(5).sample(pool, 4):
            oracle.gains(pool)
            oracle.add(v)
            replay.append(v)
            fresh = GbcOracle(pc)
            for u in replay:
                fresh.add(u)
            assert oracle.gains(pool).tolist() == fresh.gains(pool).tolist()

    def test_add_on_copy_keeps_parent_cache(self):
        g = gen_random(30, 0.2, seed=72)
        oracle = GbcOracle(apsp(g))
        oracle.add(0)
        pool = list(range(g.n))
        gains = oracle.gains(pool)
        singles = [oracle.gain(v) for v in pool]
        fork = oracle.copy()
        fork.add(1)
        assert oracle.gains(pool).tolist() == gains.tolist()
        assert [oracle.gain(v) for v in pool] == singles
        assert fork.gain(1) == 0.0
        assert fork.gains(pool).tolist() != gains.tolist()

    def test_concurrent_readers_agree(self):
        g = gen_random(30, 0.2, seed=73)
        pc = apsp(g)
        pool = list(range(g.n))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as ex:
                for rnd in range(4):
                    oracle = GbcOracle(pc)
                    oracle.add(rnd)
                    want = oracle.copy().gains(pool)
                    calls = [pool if i % 2 else [i] for i in range(24)]
                    futures = [ex.submit(oracle.gains, c) for c in calls]
                    for c, fut in zip(calls, futures):
                        assert fut.result(timeout=60).tolist() == want[c].tolist()
                    assert oracle.gains(pool).tolist() == want.tolist()
        finally:
            sys.setswitchinterval(switch)

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


class TestPoolOracle:
    """GbcOracle(pc, pool): the c x c candidate-space representation."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_oracle_and_direct(self, seed):
        rng = random.Random(seed + 300)
        n = rng.randint(4, 8) if seed % 3 == 0 else rng.randint(9, 30)
        g = gen_random(n, rng.choice([0.15, 0.3, 0.5]), seed=seed + 310)
        pc = apsp(g)
        tol = 1e-9 * g.n * g.n
        pool = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        oracle = GbcOracle(pc, pool)
        full = GbcOracle(pc)
        chosen = []
        for v in rng.sample(pool, rng.randint(1, len(pool))):
            base = gbc_direct(pc, chosen)
            got = oracle.gains(pool)  # members stay in the pool and score 0
            assert np.abs(got - full.gains(pool)).max() <= tol
            for u, gain in zip(pool, got):
                want = 0.0 if u in chosen else gbc_direct(pc, chosen + [u]) - base
                assert abs(gain - want) <= tol
            assert abs(oracle.add(v) - full.add(v)) <= tol
            chosen.append(v)
            assert abs(oracle.value - full.value) <= tol
            assert abs(oracle.value - gbc_direct(pc, chosen)) <= tol
            if g.n <= 8:
                exact = gbc_brute(g.n, list(g.edge_list), chosen)
                assert abs(oracle.value - float(exact)) <= tol
        assert oracle.members == tuple(sorted(chosen))

    def test_nodes_outside_the_pool_are_refused(self, c4):
        oracle = GbcOracle(apsp(c4), [1, 3])
        for bad in ([0], [1, 2]):
            with pytest.raises(ContractViolationError):
                oracle.gains(bad)
        with pytest.raises(ContractViolationError):
            oracle.add(0)
        with pytest.raises(ContractViolationError):
            GbcOracle(apsp(c4), [1, 4])
        assert oracle.members == () and oracle.value == 0.0
        assert oracle.gains([3, 1]).tolist() == [7.0, 7.0]

    def test_readding_member_raises_and_preserves_state(self, c4):
        oracle = GbcOracle(apsp(c4), range(4))
        oracle.add(1)
        before = (oracle.value, oracle.gains(range(4)).tolist())
        counts, pb = oracle.sigma_tilde.copy(), oracle._pb.copy()
        with pytest.raises(ContractViolationError):
            oracle.add(1)
        assert (oracle.value, oracle.gains(range(4)).tolist()) == before
        assert (oracle.sigma_tilde == counts).all() and (oracle._pb == pb).all()
        assert oracle.members == (1,)

    def test_copy_is_independent(self):
        g = gen_random(14, 0.3, seed=321)
        pc = apsp(g)
        pool = list(range(0, g.n, 2))
        parent = GbcOracle(pc, pool)
        parent.add(pool[0])
        gains = parent.gains(pool).tolist()
        fork = parent.copy()
        fork.add(pool[1])
        assert parent.members == (pool[0],)
        assert parent.gains(pool).tolist() == gains
        assert parent.value == pytest.approx(gbc_direct(pc, [pool[0]]), abs=1e-9 * g.n**2)
        assert fork.members == (pool[0], pool[1])
        assert fork.value == pytest.approx(gbc_direct(pc, pool[:2]), abs=1e-9 * g.n**2)
        parent.add(pool[2])
        assert fork.members == (pool[0], pool[1])


@pytest.fixture(params=["slab", "sweep"])
def pb_kernel(request, monkeypatch):
    """Force one path-betweenness kernel on every pool."""
    sweeps = request.param == "sweep"
    monkeypatch.setattr(gbc_mod, "_pb_sweeps", lambda pc, c: sweeps)
    return request.param


def pb_kernel_calls(monkeypatch):
    """Record the name of each path-betweenness kernel as it runs."""
    calls = []
    for name in ("_pb_slab", "_pb_sweep"):
        real = getattr(gbc_mod, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(gbc_mod, name, counting)
    return calls


@pytest.mark.usefixtures("pb_kernel")
class TestPoolOraclePerKernel(TestPoolOracle):
    """TestPoolOracle again, once under each forced kernel."""


def _pb_graphs():
    return [
        ("path-40", lambda: path(40)),
        ("grid-6x7", lambda: grid(6, 7)),
        ("tree-48", lambda: gen_random_tree(48, 3)),
        ("random-40", lambda: gen_random(40, 0.15, seed=8)),
        ("tight-2", lambda: gen_tight(2)[0]),
        ("tight-3", lambda: gen_tight(3)[0]),
        ("apx", lambda: gen_apx(gen_random(6, 0.5, seed=4), k=2, l=3)[0]),
    ]


class TestPbKernels:
    @pytest.mark.parametrize("name,make", _pb_graphs(), ids=[c[0] for c in _pb_graphs()])
    def test_slab_and_sweep_agree(self, name, make):
        g = make()
        pc = apsp(g)
        scale = g.n * g.n
        rng = np.random.default_rng(len(name))
        for c in sorted({1, 3, 9, g.n // 4, g.n}):
            ids = np.sort(rng.choice(g.n, c, replace=False))
            slab, sweep = gbc_mod._pb_slab(pc, ids), gbc_mod._pb_sweep(pc, ids)
            assert np.abs(slab - sweep).max() <= 1e-12 * scale
        # with every node pooled, the diagonal minus 1 is each node's value
        want = [gbc_direct(pc, [v]) for v in range(g.n)]
        for pb in (slab, sweep):
            assert np.abs(np.diagonal(pb) - 1.0 - want).max() <= 1e-9 * scale

    def test_every_node_pool_shares_apsp_arrays(self):
        pc = apsp(gen_random(30, 0.2, seed=74))
        pool = GbcOracle(pc)._pool
        assert pool.dist is pc.dist and pool.sigma is pc.sigma
        part = GbcOracle(pc, range(1, pc.n))._pool
        assert (part.sigma == pc.sigma[1:, 1:]).all() and (part.dist == pc.dist[1:, 1:]).all()

    def test_blocked_add_is_bit_identical(self, monkeypatch):
        # a pool past _ADD_ENTRIES updates in row blocks; each block must
        # read row and column m as they were before the add
        g = gen_random(40, 0.15, seed=9)
        pc = apsp(g)
        whole, blocked = GbcOracle(pc), GbcOracle(pc)
        for v in (17, 0, 39, 5, 22):
            want = whole.add(v)
            monkeypatch.setattr(gbc_mod, "_ADD_ENTRIES", 7 * g.n)  # blocks of 7 rows
            assert blocked.add(v) == want
            monkeypatch.undo()
            assert (blocked.sigma_tilde == whole.sigma_tilde).all()
            assert (blocked._pb == whole._pb).all()

    def test_bench_pools_choose_their_kernel(self, monkeypatch):
        calls = pb_kernel_calls(monkeypatch)
        # the restart walk's whitelists of 7 and 9 nodes take the slab
        for k in (2, 3):
            g, meta = gen_tight(k)
            inst = CostedInstance.unit(g, float(k))
            greedy_modified(inst, g.ids(meta.whitelist))
            solve_exact(inst, g.ids(meta.whitelist))
        assert calls == ["_pb_slab"] * 4
        # every node of a 120-node random graph of mean degree 14 takes the sweeps
        calls.clear()
        for seed in range(3):
            g = gen_random(120, 14 / 119, seed=seed)
            greedy_unit(CostedInstance.unit(g, 10.0), 10)
            costs = gen_random_costs(g, (1, 5), seed=seed)
            greedy_ratio(CostedInstance(g, np.array([costs[lab] for lab in g.labels]), 10.0))
        assert calls == ["_pb_sweep"] * 6


def _kernel_graphs():
    """Four seeded random graphs, a 9-node path and a 4x4 grid."""
    graphs = [gen_random(20 + 4 * s, 0.25, seed=s + 60) for s in range(4)]
    graphs.append(Graph([(str(i), str(i + 1)) for i in range(8)]))
    grid = [((r, c), (r + dr, c + dc)) for r in range(4) for c in range(4)
            for dr, dc in ((0, 1), (1, 0)) if r + dr < 4 and c + dc < 4]
    graphs.append(Graph(grid))
    return graphs


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
        # non-integer endpoints used to be truncated to another pair
        for bad in ([(0.7, 2)], [(True, 3)], [(0, 2.9)]):
            with pytest.raises(ContractViolationError):
                gbc_modified(pc, bad, [1])

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
