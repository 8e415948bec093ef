"""Exact budgeted group betweenness on trees.

Every shortest path in a tree is unique, so the objective in unordered
units is simply the number of node pairs {s, t} whose connecting path
meets the chosen set; the reported value doubles it back to ordered
units.

The solver runs a bottom-up table over a binarized rooted tree.  For a
subtree root x the table row (m, sigma) holds the cheapest cost of a
choice inside the subtree that covers at least sigma in-subtree pairs
while leaving exactly m "top" nodes: subtree nodes whose path to x
meets no chosen node.  The subtree root itself is a top node unless it
is chosen, so m = 0 exactly when it is chosen.  Tracking m exactly is
what makes combining siblings sound: the uncovered pairs across a join
are precisely the top-by-top products.

Nodes with three or more children are expanded into a chain of binary
gates that stand in for the original node atomically; the last gate
carries the original's cost and identity.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, NotATreeError
from .gbc import gbc_direct
from .graph import CostedInstance, Graph, apsp
from .greedy import Solution

__all__ = ["TreeNode", "RootedTree", "root_tree", "binarize", "DpTable", "tree_solve", "tree_solve_full"]


@dataclass
class TreeNode:
    """One node of a rooted (possibly binarized) tree.

    graph_node is None for chain gates.  subtree_size counts real graph
    nodes only; for a gate it includes the expanded original node and
    the subtrees hanging from the gates below it.
    """

    idx: int
    graph_node: int | None
    parent: int | None
    children: list[int] = field(default_factory=list)
    cost: float = 0.0
    subtree_size: int = 1
    chain_group: int | None = None
    chain_tail: bool = False


@dataclass
class RootedTree:
    nodes: list[TreeNode]
    root: int
    graph: Graph

    def chain_groups(self) -> dict[int, list[int]]:
        """Map each expanded original node to its gate indices, top down."""
        groups: dict[int, list[int]] = {}
        for node in self.nodes:
            if node.chain_group is not None:
                groups.setdefault(node.chain_group, []).append(node.idx)
        return groups


def root_tree(g: Graph, cost, root: int = 0) -> RootedTree:
    """Orient a tree graph away from the root; children sorted by id."""
    if g.m != g.n - 1:
        raise NotATreeError(f"graph has {g.m} edges; a tree on {g.n} nodes needs {g.n - 1}")
    cost = np.asarray(cost, dtype=np.float64)
    nodes = [
        TreeNode(idx=v, graph_node=v, parent=None, cost=float(cost[v]))
        for v in range(g.n)
    ]
    seen = [False] * g.n
    seen[root] = True
    stack = [root]
    dfs_order = []
    while stack:
        u = stack.pop()
        dfs_order.append(u)
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = True
                nodes[w].parent = u
                nodes[u].children.append(w)
                stack.append(w)
    for node in nodes:
        node.children.sort()
    for u in reversed(dfs_order):
        nodes[u].subtree_size = 1 + sum(nodes[c].subtree_size for c in nodes[u].children)
    return RootedTree(nodes=nodes, root=root, graph=g)


def binarize(rt: RootedTree) -> RootedTree:
    """Expand every node with k >= 3 children into a chain of k-1 gates.

    Gate i adopts the i-th child on the left and the next gate on the
    right; the last gate adopts the final two children, carries the
    original node's cost, and is the point where choosing the chain
    means choosing the original node.  Trees that are already binary
    come back structurally unchanged.
    """
    out: list[TreeNode] = []

    def clone(src: TreeNode, parent: int | None) -> int:
        node = TreeNode(
            idx=len(out),
            graph_node=src.graph_node,
            parent=parent,
            cost=src.cost,
            subtree_size=src.subtree_size,
        )
        out.append(node)
        return node.idx

    def build(src_idx: int, parent: int | None) -> int:
        src = rt.nodes[src_idx]
        kids = src.children
        if len(kids) <= 2:
            me = clone(src, parent)
            for c in kids:
                out[me].children.append(build(c, me))
            return me
        sizes = [rt.nodes[c].subtree_size for c in kids]
        gates: list[int] = []
        for i in range(len(kids) - 1):
            tail = i == len(kids) - 2
            gate = TreeNode(
                idx=len(out),
                graph_node=None,
                parent=parent if i == 0 else gates[-1],
                cost=src.cost if tail else 0.0,
                subtree_size=1 + sum(sizes[i:]),
                chain_group=src.graph_node,
                chain_tail=tail,
            )
            out.append(gate)
            gates.append(gate.idx)
        for i, gidx in enumerate(gates):
            out[gidx].children.append(build(kids[i], gidx))
            if i < len(gates) - 1:
                out[gidx].children.append(gates[i + 1])
            else:
                out[gidx].children.append(build(kids[-1], gidx))
        return gates[0]

    limit = max(sys.getrecursionlimit(), 4 * len(rt.nodes) + 100)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        new_root = build(rt.root, None)
    finally:
        sys.setrecursionlimit(old)
    return RootedTree(nodes=out, root=new_root, graph=rt.graph)


def _kind(node: TreeNode) -> str:
    if not node.children:
        return "leaf"
    if len(node.children) == 1:
        return "unary"
    if node.chain_group is not None and not node.chain_tail:
        return "chain"
    return "binary"


class _NodeTable:
    __slots__ = ("closed", "closedsrc", "chm1", "chs1", "M", "Marg", "cap", "R", "kind")

    def __init__(self, R: int, kind: str):
        self.R = R
        self.cap = R * (R - 1) // 2
        self.kind = kind
        self.closed = None
        self.closedsrc = None
        self.chm1 = None
        self.chs1 = None
        self.M = None
        self.Marg = None


def _close_rows(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Suffix-minimize each row over sigma ("cover at least sigma"),
    remembering which exact column realizes each closed entry."""
    L = vals.shape[1]
    rev = vals[:, ::-1]
    acc = np.minimum.accumulate(rev, axis=1)
    prev = np.concatenate([np.full((vals.shape[0], 1), np.inf), acc[:, :-1]], axis=1)
    is_new = rev < prev
    src_rev = np.where(is_new, np.arange(L)[None, :], -1)
    src_rev = np.maximum.accumulate(src_rev, axis=1)
    closed = acc[:, ::-1].copy()
    closedsrc = (L - 1 - src_rev)[:, ::-1].copy()
    return closed, closedsrc


def _combine(dest, dm1, ds1, row_a, row_b, off, m1):
    """dest[s1 + s2 + off] = min over s1, s2 of row_a[s1] + row_b[s2],
    recording the winning (m1, s1) for reconstruction."""
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


class DpTable:
    """Per-node cost tables over (top-node count, covered-pair demand)."""

    def __init__(self, tree: RootedTree):
        self.tree = tree
        self.tables: list[_NodeTable] = [None] * len(tree.nodes)
        self.trace: dict[int, tuple[int, int]] = {}
        self._fill_all()

    def _fill_all(self) -> None:
        order: list[int] = []
        stack = [self.tree.root]
        while stack:
            idx = stack.pop()
            order.append(idx)
            stack.extend(self.tree.nodes[idx].children)
        for idx in reversed(order):
            self._fill(idx)

    def _fill(self, idx: int) -> None:
        node = self.tree.nodes[idx]
        kind = _kind(node)
        R = node.subtree_size
        nt = _NodeTable(R, kind)
        cap = nt.cap
        vals = np.full((R + 1, cap + 1), np.inf)
        chm1 = np.full((R + 1, cap + 1), -1, dtype=np.int32)
        chs1 = np.full((R + 1, cap + 1), -1, dtype=np.int32)

        if kind == "leaf":
            vals[1, 0] = 0.0
            vals[0, 0] = node.cost
        elif kind == "unary":
            ct = self.tables[node.children[0]]
            Rc = ct.R
            for m in range(1, R + 1):
                m1 = m - 1
                credit = Rc - m1
                vals[m, credit : credit + ct.cap + 1] = ct.closed[m1]
            vals[0, Rc : Rc + ct.cap + 1] = node.cost + ct.M
        elif kind == "binary":
            t1 = self.tables[node.children[0]]
            t2 = self.tables[node.children[1]]
            R1, R2 = t1.R, t2.R
            sbar = (R1 + 1) * (R2 + 1) - 1
            for m1 in range(R1 + 1):
                for m2 in range(R2 + 1):
                    off = sbar - ((m1 + 1) * (m2 + 1) - 1)
                    m = m1 + m2 + 1
                    _combine(vals[m], chm1[m], chs1[m], t1.closed[m1], t2.closed[m2], off, m1)
            base = np.full(cap + 1, np.inf)
            _combine(base, chm1[0], chs1[0], t1.M, t2.M, sbar, -2)
            vals[0] = node.cost + base
        else:  # chain gate
            t1 = self.tables[node.children[0]]
            t2 = self.tables[node.children[1]]
            R1, R2 = t1.R, t2.R
            sbar = R1 * R2
            for m1 in range(R1 + 1):
                for m2 in range(1, R2 + 1):
                    off = sbar - m1 * m2
                    m = m1 + m2
                    _combine(vals[m], chm1[m], chs1[m], t1.closed[m1], t2.closed[m2], off, m1)
            _combine(vals[0], chm1[0], chs1[0], t1.M, t2.closed[0], sbar, -2)

        nt.closed, nt.closedsrc = _close_rows(vals)
        nt.chm1, nt.chs1 = chm1, chs1
        nt.M = nt.closed.min(axis=0)
        nt.Marg = nt.closed.argmin(axis=0).astype(np.int32)
        self.tables[idx] = nt

    def cost(self, idx: int, sigma: int, m: int) -> float:
        """Cheapest cost covering at least sigma pairs with at least m tops."""
        nt = self.tables[idx]
        if sigma > nt.cap or m > nt.R:
            return float("inf")
        if m <= 0:
            return float(nt.M[sigma])
        return float(nt.closed[m:, sigma].min())

    def reconstruct(self, budget: float) -> tuple[set[int], int]:
        """Chosen graph nodes and the best coverage within the budget."""
        tree = self.tree
        root_t = self.tables[tree.root]
        feasible = np.flatnonzero(root_t.M <= budget)
        sigma_star = int(feasible.max())
        chosen: set[int] = set()
        self.trace = {}
        work: list[tuple[int, int, int]] = []

        def push(idx: int, m: int, sigma_closed: int) -> None:
            nt = self.tables[idx]
            s_exact = int(nt.closedsrc[m, sigma_closed])
            self.trace[idx] = (m, s_exact)
            work.append((idx, m, s_exact))

        push(tree.root, int(root_t.Marg[sigma_star]), sigma_star)
        while work:
            idx, m, se = work.pop()
            node = tree.nodes[idx]
            nt = self.tables[idx]
            kind = nt.kind
            if kind == "leaf":
                if m == 0:
                    chosen.add(node.graph_node)
                continue
            if kind == "unary":
                ct = self.tables[node.children[0]]
                if m >= 1:
                    m1 = m - 1
                    push(node.children[0], m1, se - (ct.R - m1))
                else:
                    chosen.add(node.graph_node)
                    s1 = se - ct.R
                    push(node.children[0], int(ct.Marg[s1]), s1)
                continue
            c1, c2 = node.children
            t1, t2 = self.tables[c1], self.tables[c2]
            if kind == "binary":
                sbar = (t1.R + 1) * (t2.R + 1) - 1
                if m >= 1:
                    m1 = int(nt.chm1[m, se])
                    s1 = int(nt.chs1[m, se])
                    m2 = m - 1 - m1
                    off = sbar - ((m1 + 1) * (m2 + 1) - 1)
                    push(c1, m1, s1)
                    push(c2, m2, se - off - s1)
                else:
                    owner = node.graph_node if node.graph_node is not None else node.chain_group
                    chosen.add(owner)
                    s1 = int(nt.chs1[0, se])
                    s2 = se - sbar - s1
                    push(c1, int(t1.Marg[s1]), s1)
                    push(c2, int(t2.Marg[s2]), s2)
            else:  # chain gate
                sbar = t1.R * t2.R
                if m >= 1:
                    m1 = int(nt.chm1[m, se])
                    s1 = int(nt.chs1[m, se])
                    m2 = m - m1
                    off = sbar - m1 * m2
                    push(c1, m1, s1)
                    push(c2, m2, se - off - s1)
                else:
                    s1 = int(nt.chs1[0, se])
                    s2 = se - sbar - s1
                    push(c1, int(t1.Marg[s1]), s1)
                    push(c2, 0, s2)
        return chosen, sigma_star


def tree_solve_full(inst: CostedInstance):
    """Solve and also return the binarized tree and its table."""
    g = inst.graph
    rt = root_tree(g, inst.cost, root=0)
    bt = binarize(rt)
    table = DpTable(bt)
    chosen, sigma_star = table.reconstruct(inst.budget)
    nodes = tuple(sorted(chosen))
    cost = inst.cost_of(nodes)
    if cost > inst.budget:
        raise ConsistencyError("reconstructed set exceeds the budget")
    gbc = 2.0 * sigma_star
    audit = gbc_direct(apsp(g), nodes)
    if abs(audit - gbc) > 1e-9 * g.n * g.n:
        raise ConsistencyError(
            f"table value {gbc} disagrees with direct evaluation {audit}"
        )
    sol = Solution(
        nodes=nodes, cost=cost, gbc=gbc, algorithm="tree", order=nodes
    )
    return sol, bt, table


def tree_solve(inst: CostedInstance) -> Solution:
    """Optimal node set on a tree within the budget; value in ordered units."""
    sol, _, _ = tree_solve_full(inst)
    return sol
