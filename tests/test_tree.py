import itertools
import random
from collections import deque

import numpy as np
import pytest

import mbckit.tree as tree_mod
from mbckit import (
    CapExceededError,
    ContractViolationError,
    CostedInstance,
    Graph,
    NotATreeError,
    binarize,
    root_tree,
    solve_exact,
    tree_solve,
    tree_solve_full,
)
from mbckit.generators import gen_random_tree
from mbckit.tree import DpTable

from conftest import make_instance


def tree_path(adj, x, y):
    """Node sequence of the unique x-y path."""
    parent = {x: None}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if u == y:
            break
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                queue.append(w)
    path = [y]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def adjacency(g):
    return {v: list(g.adj[v]) for v in range(g.n)}


def path_graph(n):
    return Graph([(f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def hub_tree(n, rng):
    """A random tree whose hub has four children, so chain gates appear."""
    edges = [("h", f"u{i}") for i in range(4)]
    for i in range(4, n - 1):
        edges.append((f"u{rng.randrange(i)}", f"u{i}"))
    return Graph(edges)


class TestFrozenCases:
    def test_p4_budget_one(self, p4):
        sol = tree_solve(make_instance(p4, budget=1))
        assert sol.nodes == (1,)
        assert sol.gbc == 10.0
        assert sol.algorithm == "tree"

    def test_star_center(self, star4):
        sol = tree_solve(make_instance(star4, budget=1))
        assert sol.nodes == (star4.id_of["c"],)
        assert sol.gbc == 12.0

    def test_costed_p3(self, p3):
        inst = make_instance(p3, costs=[1, 10, 1], budget=2)
        sol = tree_solve(inst)
        assert sol.nodes == (0, 2)
        assert sol.gbc == 6.0

    def test_zero_budget_zero_cost(self, p3):
        inst = make_instance(p3, costs=[1, 0, 1], budget=0)
        sol = tree_solve(inst)
        assert sol.nodes == (1,)
        assert sol.gbc == 6.0

    def test_rejects_cycles(self, c4):
        with pytest.raises(NotATreeError):
            tree_solve(make_instance(c4, budget=1))


class TestRooting:
    def test_children_sorted_and_sizes(self, p4):
        rt = root_tree(p4, np.ones(4))
        assert rt.nodes[0].children == [1]
        assert rt.nodes[1].children == [2]
        assert rt.nodes[rt.root].subtree_size == 4
        assert rt.nodes[3].subtree_size == 1

    def test_binarize_keeps_binary_trees(self, p4):
        rt = root_tree(p4, np.ones(4))
        bt = binarize(rt)
        assert len(bt.nodes) == len(rt.nodes)
        assert bt.chain_groups() == {}

    def test_binarize_expands_high_degree(self):
        from mbckit import Graph

        star = Graph([("c", "a"), ("c", "b"), ("c", "d"), ("c", "e")])
        cost = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
        rt = root_tree(star, cost)
        bt = binarize(rt)
        groups = bt.chain_groups()
        assert list(groups) == [0]
        gates = groups[0]
        assert len(gates) == 3  # 4 children -> 3 gates
        tail = bt.nodes[gates[-1]]
        assert tail.chain_tail and tail.cost == 2.0
        for gidx in gates[:-1]:
            assert bt.nodes[gidx].cost == 0.0
        # gate i spans the owner plus children i..end
        assert [bt.nodes[i].subtree_size for i in gates] == [5, 4, 3]


class TestTableInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_cost_monotone(self, seed):
        rng = random.Random(seed)
        g = gen_random_tree(rng.randint(2, 9), seed=seed)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        _, bt, table = tree_solve_full(CostedInstance(g, cost, 0.0))
        root = bt.root
        cap = table.tables[root].cap
        assert table.cost(root, 0, 0) == 0.0
        prev = -1.0
        for s in range(cap + 1):
            cur = table.cost(root, s, 0)
            assert cur >= prev
            prev = cur
        for s in range(cap + 1):
            col = [table.cost(root, s, m) for m in range(g.n + 1)]
            assert all(b >= a for a, b in zip(col, col[1:]))

    def test_infeasible_requests_are_infinite(self, p3):
        _, bt, table = tree_solve_full(make_instance(p3, budget=1))
        root = bt.root
        assert table.cost(root, table.tables[root].cap + 1, 0) == float("inf")
        assert table.cost(root, 0, 99) == float("inf")

    @pytest.mark.parametrize("sigma", [-1, 1.5, "2", True])
    def test_cost_rejects_bad_sigma(self, p4, sigma):
        # sigma = -1 would otherwise wrap around to the cost of covering every pair
        _, bt, table = tree_solve_full(make_instance(p4, costs=[1, 2, 3, 4], budget=1))
        with pytest.raises(ContractViolationError, match="sigma"):
            table.cost(bt.root, sigma, 0)

    def test_cost_answers_for_root_only(self, p4):
        _, bt, table = tree_solve_full(make_instance(p4, costs=[1, 2, 3, 4], budget=1))
        assert table.cost(bt.root, 0, 0) == 0.0
        child = bt.nodes[bt.root].children[0]
        with pytest.raises(ContractViolationError, match="root only"):
            table.cost(child, 0, 0)


class TestAgainstExhaustive:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = gen_random_tree(n, seed=seed)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(n)])
        budget = float(rng.randint(0, max(1, int(cost.sum()))))
        inst = CostedInstance(g, cost, budget)
        a = tree_solve(inst)
        b = solve_exact(inst)
        assert a.gbc == b.gbc
        assert inst.cost_of(a.nodes) <= budget

    def test_high_degree_star(self):
        from mbckit import Graph

        leaves = [chr(ord("a") + i) for i in range(8)]
        star = Graph([("hub", leaf) for leaf in leaves])
        rng = random.Random(5)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(star.n)])
        budget = 4.0
        inst = CostedInstance(star, cost, budget)
        assert tree_solve(inst).gbc == solve_exact(inst).gbc


class TestReconstructionTrace:
    @staticmethod
    def _replay(g, bt, table, chosen):
        """Recompute each trace entry from the chosen set and raw paths."""
        adj = adjacency(g)

        def owner(idx):
            node = bt.nodes[idx]
            return node.graph_node if node.graph_node is not None else node.chain_group

        node_sets = {}
        order = []
        stack = [bt.root]
        while stack:
            idx = stack.pop()
            order.append(idx)
            stack.extend(bt.nodes[idx].children)
        for idx in reversed(order):
            members = {owner(idx)}
            for c in bt.nodes[idx].children:
                members |= node_sets[c]
            node_sets[idx] = members

        for idx in order:
            top = owner(idx)
            members = sorted(node_sets[idx])
            m = sum(
                1
                for u in members
                if not any(w in chosen for w in tree_path(adj, u, top))
            )
            covered = sum(
                1
                for x, y in itertools.combinations(members, 2)
                if any(w in chosen for w in tree_path(adj, x, y))
            )
            yield idx, m, covered

    @pytest.mark.parametrize("seed", range(25))
    def test_trace_matches_brute_replay(self, seed):
        rng = random.Random(seed + 800)
        n = rng.randint(2, 10)
        g = gen_random_tree(n, seed=seed + 123)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(n)])
        budget = float(rng.randint(0, max(1, int(cost.sum()))))
        sol, bt, table = tree_solve_full(CostedInstance(g, cost, budget))
        chosen = set(sol.nodes)
        assert set(table.trace) == set(range(len(bt.nodes)))
        for idx, m, covered in self._replay(g, bt, table, chosen):
            assert table.trace[idx] == (m, covered), f"node {idx}"
        root_m, root_cov = table.trace[bt.root]
        assert sol.gbc == 2.0 * root_cov

    @pytest.mark.parametrize("seed", range(15))
    def test_chain_groups_choose_atomically(self, seed):
        # force high-degree nodes so gates actually appear
        rng = random.Random(seed)
        n = rng.randint(6, 11)
        edges = [("h", f"u{i}") for i in range(4)]
        for i in range(4, n - 1):
            edges.append((f"u{rng.randrange(i)}", f"u{i}"))
        from mbckit import Graph

        g = Graph(edges)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        budget = float(rng.randint(0, max(1, int(cost.sum()))))
        sol, bt, table = tree_solve_full(CostedInstance(g, cost, budget))
        groups = bt.chain_groups()
        assert groups, "expected at least one expanded node"
        for owner_node, gates in groups.items():
            flags = {table.trace[gidx][0] == 0 for gidx in gates}
            assert len(flags) == 1  # all gates agree
            assert flags.pop() == (owner_node in sol.nodes)
        assert sol.gbc == solve_exact(CostedInstance(g, cost, budget)).gbc

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_matches_brute_replay_larger(self, seed):
        rng = random.Random(seed + 900)
        n = rng.randint(15, 25)
        g = gen_random_tree(n, seed=seed + 321) if seed % 2 == 0 else hub_tree(n, rng)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        budget = float(rng.randint(0, max(1, int(cost.sum()) // 2)))
        sol, bt, table = tree_solve_full(CostedInstance(g, cost, budget))
        assert set(table.trace) == set(range(len(bt.nodes)))
        for idx, m, covered in self._replay(g, bt, table, sol.nodes):
            assert table.trace[idx] == (m, covered), f"node {idx}"


def _loop_combine(dest, dm1, ds1, row_a, row_b, off, m1):
    """Reference join: every finite column of row_a against all of row_b."""
    lb = len(row_b)
    for s1 in np.flatnonzero(np.isfinite(row_a)):
        cand = row_a[s1] + row_b
        lo = int(s1) + off
        cur = dest[lo : lo + lb]
        better = cand < cur
        if better.any():
            cur[better] = cand[better]
            dm1[lo : lo + lb][better] = m1
            ds1[lo : lo + lb][better] = s1


def _accumulate_close_rows(vals):
    """Reference closing: suffix minima, sources tracked on the reversed rows."""
    L = vals.shape[1]
    rev = vals[:, ::-1]
    acc = np.minimum.accumulate(rev, axis=1)
    prev = np.concatenate([np.full((vals.shape[0], 1), np.inf), acc[:, :-1]], axis=1)
    is_new = rev < prev
    src_rev = np.where(is_new, np.arange(L)[None, :], -1)
    src_rev = np.maximum.accumulate(src_rev, axis=1)
    closed = acc[:, ::-1].copy()
    closedsrc = (L - 1 - src_rev)[:, ::-1].copy()
    return closed, closedsrc.astype(np.int32)


class TestKernelMatchesReference:
    """The step-end join and in-place closing reproduce the full loops bit for bit."""

    @staticmethod
    def _instance(seed):
        rng = random.Random(seed + 4000)
        n = rng.randint(20, 45)
        shape = seed % 3
        if shape == 0:
            g = gen_random_tree(n, seed=seed + 77)
        elif shape == 1:
            g = path_graph(n)
        else:
            g = hub_tree(n, rng)
        if seed % 2 == 0:
            cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        else:
            cost = np.array([rng.choice([0.0, rng.uniform(0.0, 5.0)]) for _ in range(g.n)])
        return CostedInstance(g, cost, rng.uniform(0.0, float(cost.sum()) / 2))

    def test_steps_keep_the_last_column_of_each_cost(self):
        inf = np.inf
        ends, vals = tree_mod._steps(np.array([0.0, 0.0, 1.0, 1.0, 1.0, 3.0, inf, inf]))
        assert ends.tolist() == [1, 4, 5] and vals.tolist() == [0.0, 1.0, 3.0]
        assert tree_mod._steps(np.array([2.0, 2.0]))[0].tolist() == [1]
        assert tree_mod._steps(np.array([inf, inf]))[0].size == 0

    @pytest.mark.parametrize("seed", range(24))
    def test_bit_identical_to_loop_reference(self, seed, monkeypatch):
        inst = self._instance(seed)
        sol, bt, table = tree_solve_full(inst)
        with monkeypatch.context() as mp:
            # identity steps hand _combine whole rows, as the reference expects
            mp.setattr(tree_mod, "_steps", lambda row: row)
            mp.setattr(tree_mod, "_combine", _loop_combine)
            mp.setattr(tree_mod, "_close_rows", _accumulate_close_rows)
            ref_sol, ref_bt, ref_table = tree_solve_full(inst)
        if seed % 3 == 2:
            assert bt.chain_groups()
        assert sol.nodes == ref_sol.nodes
        assert table.trace == ref_table.trace
        root, ref_root = table.tables[bt.root], ref_table.tables[ref_bt.root]
        for name in ("closed", "closedsrc", "M", "Marg"):
            a, b = getattr(root, name), getattr(ref_root, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestRetention:
    @pytest.mark.parametrize("shape", ["path", "gated"])
    def test_only_traceback_state_is_kept(self, shape):
        g = path_graph(12) if shape == "path" else hub_tree(14, random.Random(3))
        cost = np.array([float(1 + v % 4) for v in range(g.n)])
        _, bt, table = tree_solve_full(CostedInstance(g, cost, 5.0))
        kinds = {nt.kind for nt in table.tables}
        assert kinds >= ({"leaf", "unary"} if shape == "path" else {"leaf", "chain", "binary"})
        for idx, nt in enumerate(table.tables):
            assert nt.closedsrc.dtype == np.int32
            if idx != bt.root:
                assert nt.closed is None and nt.M is None
            if nt.kind in ("leaf", "unary"):
                assert nt.chm1 is None and nt.chs1 is None
        root = table.tables[bt.root]
        assert root.closed is not None and root.M is not None
        held = sum(
            a.nbytes
            for nt in table.tables
            for a in (nt.closed, nt.closedsrc, nt.chm1, nt.chs1, nt.M, nt.Marg)
            if a is not None
        )
        assert held <= tree_mod._table_bytes(bt)


class TestMemoryCap:
    def test_long_path_refused_before_any_table(self, monkeypatch):
        g = path_graph(400)
        bt = binarize(root_tree(g, np.ones(g.n)))

        def no_fill(self, idx):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(DpTable, "_fill", no_fill)
        with pytest.raises(CapExceededError, match="cap") as exc:
            DpTable(bt)
        assert exc.value.count > tree_mod._TABLE_BYTES_CAP
        with pytest.raises(CapExceededError):
            tree_solve(CostedInstance.unit(g, 3.0))

    def test_benchmark_sized_path_is_far_below_the_cap(self):
        bt = binarize(root_tree(path_graph(90), np.ones(90)))
        assert tree_mod._table_bytes(bt) < tree_mod._TABLE_BYTES_CAP / 16
