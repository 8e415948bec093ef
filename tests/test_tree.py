import gc
import itertools
import random
import sys
import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

import mbckit.tree as tree_mod
from mbckit import (
    CapExceededError,
    ContractViolationError,
    CostedInstance,
    Graph,
    NotATreeError,
    apsp,
    binarize,
    root_tree,
    solve_exact,
    tree_solve,
    tree_solve_full,
)
from mbckit.generators import gen_random_tree
from mbckit.tree import DpTable

from binarize_reference import binarize_recursive
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

    @pytest.mark.parametrize(
        "make", [lambda: path_graph(20_000), lambda: gen_random_tree(2000, 1)], ids=["path", "random"]
    )
    def test_binarize_matches_recursion_without_the_limit(self, make, monkeypatch):
        g = make()
        rt = root_tree(g, np.arange(g.n, dtype=np.float64))
        want = binarize_recursive(rt)

        def refuse(limit):
            raise AssertionError("binarize changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        got = binarize(rt)
        assert got.root == want.root and len(got.nodes) == len(want.nodes)
        for a, b in zip(got.nodes, want.nodes):
            assert a == b  # parent, children, cost, chain gate and subtree size


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

    @pytest.mark.parametrize("m", [-1, 1.5, "2", True, None])
    def test_cost_rejects_bad_m(self, p4, m):
        # m = True would otherwise read as one top node
        _, bt, table = tree_solve_full(make_instance(p4, costs=[1, 2, 3, 4], budget=1))
        with pytest.raises(ContractViolationError, match="m must be"):
            table.cost(bt.root, 1, m)

    def test_cost_takes_numpy_integers(self, p4):
        _, bt, table = tree_solve_full(make_instance(p4, costs=[1, 2, 3, 4], budget=1))
        assert table.cost(bt.root, np.int64(3), np.int32(1)) == table.cost(bt.root, 3, 1)

    @pytest.mark.parametrize("budget", [-1.0, -1e-300, float("nan")])
    def test_reconstruct_rejects_bad_budget(self, p4, budget):
        _, _, table = tree_solve_full(make_instance(p4, costs=[1, 2, 3, 4], budget=1))
        with pytest.raises(ContractViolationError, match="budget"):
            table.reconstruct(budget)

    def test_reconstruct_takes_zero_and_infinite_budgets(self, p4):
        _, _, table = tree_solve_full(make_instance(p4, costs=[1, 2, 3, 4], budget=1))
        assert table.reconstruct(0.0) == (set(), 0)
        assert table.reconstruct(float("inf"))[1] == 6  # every pair of the 4-path

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


class DenseDp:
    """Reference fill: every node's dense (R+1)×(cap+1) float64 rows.

    closed[m, s] is the cheapest cost of covering at least s in-subtree
    pairs with exactly m top nodes, closedsrc[m, s] the column that
    realizes it, and chm1/chs1 the left child's (m1, s1) behind each
    cell of a binary or chain node.  Joins read whole rows.
    """

    def __init__(self, bt):
        self.bt = bt
        self.tables = [None] * len(bt.nodes)
        order, stack = [], [bt.root]
        while stack:
            idx = stack.pop()
            order.append(idx)
            stack.extend(bt.nodes[idx].children)
        for idx in reversed(order):
            self._fill(idx)

    def _fill(self, idx):
        node = self.bt.nodes[idx]
        kind = tree_mod._kind(node)
        R = node.subtree_size
        cap = R * (R - 1) // 2
        nt = SimpleNamespace(R=R, cap=cap, kind=kind, chm1=None, chs1=None)
        vals = np.full((R + 1, cap + 1), np.inf)
        if kind == "leaf":
            vals[1, 0] = 0.0
            vals[0, 0] = node.cost
        elif kind == "unary":
            ct = self.tables[node.children[0]]
            Rc = ct.R
            for m in range(1, R + 1):
                credit = Rc - (m - 1)
                vals[m, credit : credit + ct.cap + 1] = ct.closed[m - 1]
            vals[0, Rc : Rc + ct.cap + 1] = node.cost + ct.M
        else:
            t1, t2 = (self.tables[c] for c in node.children)
            R1, R2 = t1.R, t2.R
            nt.chm1 = np.full((R + 1, cap + 1), -1, dtype=np.int32)
            nt.chs1 = np.full((R + 1, cap + 1), -1, dtype=np.int32)
            e = int(kind == "binary")
            sbar = R1 * R2 + e * (R1 + R2)
            for m1 in range(R1 + 1):
                for m2 in range(1 - e, R2 + 1):
                    off = sbar - (m1 * m2 + e * (m1 + m2))
                    m = m1 + m2 + e
                    _loop_combine(vals[m], nt.chm1[m], nt.chs1[m], t1.closed[m1], t2.closed[m2], off, m1)
            base = np.full(cap + 1, np.inf)
            right = t2.M if e else t2.closed[0]
            _loop_combine(base, nt.chm1[0], nt.chs1[0], t1.M, right, sbar, -2)
            vals[0] = node.cost + base
        nt.closed, nt.closedsrc = _accumulate_close_rows(vals)
        nt.M = nt.closed.min(axis=0)
        nt.Marg = nt.closed.argmin(axis=0).astype(np.int32)
        self.tables[idx] = nt

    def reconstruct(self, budget):
        """Chosen graph nodes, sigma*, and the (m, exact sigma) trace."""
        bt, tables = self.bt, self.tables
        root_t = tables[bt.root]
        sigma_star = int(np.flatnonzero(root_t.M <= budget).max())
        chosen, trace, work = set(), {}, []

        def push(idx, m, sigma_closed):
            s_exact = int(tables[idx].closedsrc[m, sigma_closed])
            trace[idx] = (m, s_exact)
            work.append((idx, m, s_exact))

        push(bt.root, int(root_t.Marg[sigma_star]), sigma_star)
        while work:
            idx, m, se = work.pop()
            node, nt = bt.nodes[idx], tables[idx]
            if nt.kind == "leaf":
                if m == 0:
                    chosen.add(node.graph_node)
                continue
            if nt.kind == "unary":
                ct = tables[node.children[0]]
                if m >= 1:
                    push(node.children[0], m - 1, se - (ct.R - m + 1))
                else:
                    chosen.add(node.graph_node)
                    push(node.children[0], int(ct.Marg[se - ct.R]), se - ct.R)
                continue
            c1, c2 = node.children
            t1, t2 = tables[c1], tables[c2]
            e = int(nt.kind == "binary")
            sbar = t1.R * t2.R + e * (t1.R + t2.R)
            s1 = int(nt.chs1[m, se])
            if m >= 1:
                m1 = int(nt.chm1[m, se])
                m2 = m - e - m1
                push(c1, m1, s1)
                push(c2, m2, se - (sbar - (m1 * m2 + e * (m1 + m2))) - s1)
            else:
                if e:
                    chosen.add(node.graph_node if node.graph_node is not None else node.chain_group)
                s2 = se - sbar - s1
                push(c1, int(t1.Marg[s1]), s1)
                push(c2, int(t2.Marg[s2]) if e else 0, s2)
        return chosen, sigma_star, trace


def expand_root(nt):
    """The root's dense closed, closedsrc, M and Marg, from its step points."""
    L = nt.cap + 1
    cols = np.arange(L)

    def dense(ends, vals):
        pos = np.searchsorted(ends, cols)
        has = pos < len(ends)
        src = np.full(L, L, dtype=np.int32)
        cost = np.full(L, np.inf)
        src[has] = ends[pos[has]]
        cost[has] = vals[pos[has]]
        return cost, src

    rows = [dense(nt.ends[lo:hi], nt.vals[lo:hi]) for lo, hi in zip(nt.start[:-1], nt.start[1:])]
    closed = np.array([cost for cost, _ in rows])
    closedsrc = np.array([src for _, src in rows])
    M, _ = dense(nt.Mends, nt.M)
    Marg = closed.argmin(axis=0).astype(np.int32)
    return {"closed": closed, "closedsrc": closedsrc, "M": M, "Marg": Marg}


def dense_step_ends(rows):
    """Step ends of closed rows, as (row, column) arrays."""
    is_end = np.concatenate([rows[:, :-1] < rows[:, 1:], np.isfinite(rows[:, -1:])], axis=1)
    return np.nonzero(is_end)


def assert_matches_dense(bt, budgets):
    """The step-point table and the dense reference agree bit for bit:
    the root's dense arrays, and every node's step points, traceback
    state, M step ends and Marg."""
    table = DpTable(bt)
    ref = DenseDp(bt)
    got = expand_root(table.tables[bt.root])
    want = ref.tables[bt.root]
    for name, a in got.items():
        b = getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for idx, (nt, dt) in enumerate(zip(table.tables, ref.tables)):
        rows, cols = dense_step_ends(dt.closed)
        assert nt.ends.tolist() == cols.tolist(), idx
        assert np.diff(nt.start).tolist() == np.bincount(rows, minlength=nt.R + 1).tolist(), idx
        if dt.chm1 is not None:
            assert nt.chm1.tolist() == dt.chm1[rows, cols].tolist(), idx
            assert nt.chs1.tolist() == dt.chs1[rows, cols].tolist(), idx
        mends = dense_step_ends(dt.M[None, :])[1]
        assert nt.Mends.tolist() == mends.tolist(), idx
        assert nt.Marg.tolist() == dt.Marg[mends].tolist(), idx
    for budget in budgets:
        chosen, sigma_star = table.reconstruct(budget)
        ref_chosen, ref_sigma, ref_trace = ref.reconstruct(budget)
        assert (chosen, sigma_star) == (ref_chosen, ref_sigma), budget
        assert table.trace == ref_trace, budget
    return ref


def _sweep_tree(shape, seed):
    rng = random.Random(seed + 6000)
    n = rng.randint(2, 40)
    if shape == "random":
        return gen_random_tree(n, seed=seed + 55), rng
    if shape == "path":
        return path_graph(n), rng
    return hub_tree(max(n, 5), rng), rng


class TestKernelMatchesReference:
    """The step-point fill reproduces the dense fill with full loops bit for bit."""

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

    def test_front_keeps_the_last_column_of_each_cost(self):
        # one row's finite cells, then two rows at once: row 1 is the same
        # costs one column to the right, plus a dearer point at its step end 2
        row = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 3.0])
        col = np.arange(len(row))
        keep = tree_mod._front(col, row)
        assert col[keep].tolist() == [1, 4, 5] and row[keep].tolist() == [0.0, 1.0, 3.0]
        col2 = np.concatenate((col, col + 1, [2]))
        val2 = np.concatenate((row, row, [0.5]))
        group = np.repeat([0, 1, 1], [6, 6, 1])
        keep = tree_mod._front(col2, val2, group, 9)
        assert group[keep].tolist() == [0, 0, 0, 1, 1, 1]
        assert col2[keep].tolist() == [1, 4, 5, 2, 5, 6]
        assert val2[keep].tolist() == [0.0, 1.0, 3.0, 0.0, 1.0, 3.0]
        # equal points: the first listed wins
        assert tree_mod._front(np.array([3, 3, 1]), np.array([2.0, 2.0, 2.0])).tolist() == [0]
        assert tree_mod._front(np.zeros(0, dtype=np.int64), np.zeros(0)).size == 0

    @pytest.mark.parametrize("seed", range(24))
    def test_bit_identical_to_loop_reference(self, seed):
        inst = self._instance(seed)
        sol, bt, table = tree_solve_full(inst)
        if seed % 3 == 2:
            assert bt.chain_groups()
        ref = assert_matches_dense(bt, (inst.budget,))
        ref_chosen, _, ref_trace = ref.reconstruct(inst.budget)
        assert sol.nodes == tuple(sorted(ref_chosen))
        assert table.trace == ref_trace

    @pytest.mark.parametrize("fractional", [False, True], ids=["int", "frac"])
    @pytest.mark.parametrize("shape", ["random", "path", "hub"])
    @pytest.mark.parametrize("seed", range(50))
    def test_property_sweep(self, seed, shape, fractional):
        # 50 seeds x 3 shapes x 2 cost kinds x 3 budgets = 900 cases
        g, rng = _sweep_tree(shape, seed)
        if fractional:
            cost = [rng.choice([0.0, rng.uniform(0.0, 5.0)]) for _ in range(g.n)]
        else:
            cost = [float(rng.randint(0, 5)) for _ in range(g.n)]
        total = float(sum(cost))
        bt = binarize(root_tree(g, np.array(cost)))
        if shape == "hub":
            assert bt.chain_groups()
        assert_matches_dense(bt, (0.0, total / 2, total))

    @pytest.mark.parametrize("doc", [f"tree{i}" for i in range(8)] + ["path90"])
    def test_benchmark_shapes(self, doc):
        # the tree-dp workload's shapes: eight 32-node random trees and a 90-node path
        g = path_graph(90) if doc == "path90" else gen_random_tree(32, int(doc[4:]))
        rng = random.Random(doc)
        cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        total = float(cost.sum())
        assert_matches_dense(binarize(root_tree(g, cost)), (0.0, total // 4, total))

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("chunk", [None, 5], ids=["whole", "chunked"])
    def test_symmetric_trees_break_ties_alike(self, depth, chunk, monkeypatch):
        # mirror-image children tie at equal cost and column for (m1, m2)
        # and (m2, m1); the smallest m1 must win, in one pass or in chunks
        g = Graph([(f"n{(i - 1) // 2}", f"n{i}") for i in range(1, 2 ** (depth + 1) - 1)])
        for cost in (np.ones(g.n), np.array([float(len(lab) % 2) for lab in g.labels])):
            if chunk:
                monkeypatch.setattr(tree_mod, "_CHUNK", chunk)
            bt = binarize(root_tree(g, cost))
            assert_matches_dense(bt, (0.0, float(cost.sum()) / 2))

    @pytest.mark.parametrize("seed", range(12))
    def test_cost_rounding_collapses_steps(self, seed):
        # costs of mixed magnitude make cost + a == cost + b for a < b, so
        # a chosen node's row can merge steps of its children's M
        rng = random.Random(seed + 7000)
        n = rng.randint(3, 25)
        g = gen_random_tree(n, seed=seed + 99) if seed % 2 else hub_tree(max(n, 5), rng)
        cost = np.array([rng.choice([0.0, 1e-17, 3e-17, 1.0, 2.0]) for _ in range(g.n)])
        assert_matches_dense(binarize(root_tree(g, cost)), (0.0, 1.0, float(cost.sum())))

    def test_cost_rounding_on_a_path_and_a_join(self):
        # 1.0 + 0.0 == 1.0 + 1e-17: the chosen root's row 0 keeps one step
        for edges, cost in (
            ([("x", "b"), ("b", "a")], [1.0, 0.5, 1e-17]),
            ([("x", "b"), ("b", "a"), ("x", "d")], [1.0, 0.5, 1e-17, 5.0]),
        ):
            bt = binarize(root_tree(Graph(edges), np.array(cost)))
            assert_matches_dense(bt, (0.0, 1.0, 2.0))

    def test_chunked_join_matches(self, monkeypatch):
        # a join whose candidates span many chunks takes the front of the chunks' fronts
        g = hub_tree(30, random.Random(8))
        rng = random.Random(9)
        cost = np.array([rng.choice([0.0, 1.0, rng.uniform(0.0, 5.0)]) for _ in range(g.n)])
        bt = binarize(root_tree(g, cost))
        monkeypatch.setattr(tree_mod, "_CHUNK", 7)
        assert_matches_dense(bt, (0.0, float(cost.sum()) / 3))


class TestRetention:
    @pytest.mark.parametrize("shape", ["path", "gated"])
    def test_only_traceback_state_is_kept(self, shape):
        g = path_graph(12) if shape == "path" else hub_tree(14, random.Random(3))
        cost = np.array([float(1 + v % 4) for v in range(g.n)])
        _, bt, table = tree_solve_full(CostedInstance(g, cost, 5.0))
        kinds = {nt.kind for nt in table.tables}
        assert kinds >= ({"leaf", "unary"} if shape == "path" else {"leaf", "chain", "binary"})
        for idx, nt in enumerate(table.tables):
            kept = {name: getattr(nt, name) for name in type(nt).__slots__}
            arrays = {k: a for k, a in kept.items() if isinstance(a, np.ndarray)}
            if idx == bt.root:
                assert {k for k, a in arrays.items() if a.dtype == np.float64} == {"vals", "M"}
            else:
                assert nt.vals is None and nt.M is None
            assert all(a.dtype == np.int32 for k, a in arrays.items() if k not in ("vals", "M"))
            if nt.kind in ("leaf", "unary"):
                assert nt.chm1 is None and nt.chs1 is None
            else:
                assert len(nt.chm1) == len(nt.chs1) == len(nt.ends)
        assert held_bytes(table) <= tree_mod._table_bytes(bt)

    def test_benchmark_path_holds_under_a_mebibyte(self):
        g = path_graph(90)
        bt = binarize(root_tree(g, np.array([float(v % 6) for v in range(g.n)])))
        table = DpTable(bt)
        assert 0 < held_bytes(table) < 2**20
        assert held_bytes(table) <= tree_mod._table_bytes(bt)

    @pytest.mark.parametrize("shape", ["path", "gated"])
    def test_path_counts_die_with_the_solve(self, shape):
        # no reference cycle may hold the graph, and its n x n path
        # counts, until the cyclic collector runs
        g = path_graph(12) if shape == "path" else hub_tree(14, random.Random(3))
        inst = CostedInstance(g, np.ones(g.n), 3.0)
        ref = weakref.ref(apsp(g).sigma)
        gc.disable()
        try:
            tree_solve(inst)
            del g, inst
            assert ref() is None
        finally:
            gc.enable()


def held_bytes(table):
    return sum(
        getattr(nt, name).nbytes
        for nt in table.tables
        for name in type(nt).__slots__
        if isinstance(getattr(nt, name), np.ndarray)
    )


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
