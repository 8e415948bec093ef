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

A join reads closed rows only ("cover at least sigma").  A closed row
is nondecreasing, so it is fixed by its step ends: the finite columns
whose successor costs strictly more.  They are the Pareto frontier of
(pairs covered, cost), the undominated points of the dominance-list
knapsack DP (Nemhauser and Ullmann, 1969).  Every node keeps its closed
rows only as step points, a small fraction of the dense
(R+1)×(R(R−1)/2+1) cells, plus the step ends of M (the cheapest cost
over all top counts) and Marg, the smallest top count reaching each.

A unary node shifts its child's rows by the pairs they gain.  A binary
or chain node lists every pair of its children's step points as a
candidate in flat arrays, then keeps each row's frontier with one
lexsort and one running maximum (_front).  A candidate (s1, s2) whose s1
is not a step end would be matched at the same cost by the step end
after s1, at a larger column, so only step ends need pairing.  Ties go
to the smallest (m1, s1), as a dense join scanning in that order would
record them; tests/test_tree.py keeps such a join as the reference.

Per node the fill retains int32 arrays only: step ends, row starts, M's
step ends and Marg, plus chm1/chs1 per step point on binary and chain
nodes.  A child's float64 costs are released once its parent is
filled; the root keeps them.  The fill refuses up front, with
CapExceededError, a tree whose dense tables would need more than
_TABLE_BYTES_CAP bytes (_table_bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ContractViolationError, NotATreeError
from .graph import _BYTES_CAP as _TABLE_BYTES_CAP  # one cap for apsp and the DP
from .graph import CostedInstance, Graph, _is_int
from .greedy import Solution, audit_solution

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
    # (source node, parent in out, slot in the parent's children), popped
    # in depth-first order, so each subtree is numbered as it is entered
    stack: list[tuple[int, int | None, int]] = [(rt.root, None, 0)]
    while stack:
        src_idx, parent, slot = stack.pop()
        src = rt.nodes[src_idx]
        kids = src.children
        if len(kids) <= 2:
            top = len(out)
            out.append(
                TreeNode(
                    idx=top,
                    graph_node=src.graph_node,
                    parent=parent,
                    children=[-1] * len(kids),
                    cost=src.cost,
                    subtree_size=src.subtree_size,
                )
            )
            below = [(c, top, i) for i, c in enumerate(kids)]
        else:
            # gate i adopts kids[i] and gate i + 1; the last gate the last two kids
            top, last = len(out), len(out) + len(kids) - 2
            sizes = [rt.nodes[c].subtree_size for c in kids]
            for i, gidx in enumerate(range(top, last + 1)):
                out.append(
                    TreeNode(
                        idx=gidx,
                        graph_node=None,
                        parent=parent if i == 0 else gidx - 1,
                        children=[-1, -1 if gidx == last else gidx + 1],
                        cost=src.cost if gidx == last else 0.0,
                        subtree_size=1 + sum(sizes[i:]),
                        chain_group=src.graph_node,
                        chain_tail=gidx == last,
                    )
                )
            below = [(c, top + i, 0) for i, c in enumerate(kids[:-1])] + [(kids[-1], last, 1)]
        if parent is not None:
            out[parent].children[slot] = top
        stack.extend(reversed(below))
    return RootedTree(nodes=out, root=0, graph=rt.graph)


def _kind(node: TreeNode) -> str:
    if not node.children:
        return "leaf"
    if len(node.children) == 1:
        return "unary"
    if node.chain_group is not None and not node.chain_tail:
        return "chain"
    return "binary"


def _table_bytes(tree: RootedTree) -> int:
    """Bytes a dense fill would need, from the binarized subtree sizes
    alone: the refusal rule, kept as a dense upper bound.

    It counts an int32 closedsrc cell per (m, sigma) at every node, int32
    chm1 and chs1 on binary and chain nodes, and the float64 rows alive
    while the largest node fills.  The step-point fill keeps a subset of
    those cells, plus a few int32 per row, so it holds far less.
    """
    retained = largest = 0
    for node in tree.nodes:
        R = node.subtree_size
        cells = (R + 1) * (R * (R - 1) // 2 + 1)
        retained += cells * (4 if _kind(node) in ("leaf", "unary") else 12)
        largest = max(largest, cells)
    return retained + 16 * largest


# Join candidates per frontier pass.  It bounds the join's temporaries,
# a dozen int64 and float64 arrays over the candidates, whatever the
# children's step-point counts.  On random trees of 120 and 300 nodes,
# 2**14 to 2**16 ran faster than 2**20 and held less memory.
_CHUNK = 1 << 16


class _NodeTable:
    """One node's closed rows as step points.

    Row m's step ends are ends[start[m]:start[m + 1]], increasing, with
    strictly increasing costs vals at the same positions; closed[m, s]
    is the cost at row m's first step end at or after s.  Mends, M and
    Marg are the step ends of M, the closure of all rows together, its
    costs, and the smallest row attaining each.  chm1 and chs1 give, per
    step point of a binary or chain node, the left child's row and
    column that produced it.  vals and M are float64 and are released
    once the parent is filled; every other array is int32.
    """

    __slots__ = ("R", "cap", "kind", "start", "ends", "vals", "chm1", "chs1", "Mends", "M", "Marg")

    def __init__(self, R: int, kind: str):
        self.R = R
        self.cap = R * (R - 1) // 2
        self.kind = kind
        self.chm1 = self.chs1 = None

    def first_end(self, m: int, sigma: int) -> tuple[int, int]:
        """Position of row m's first step end at or after sigma, and the
        row's end position (returned as the first when there is none)."""
        lo, hi = int(self.start[m]), int(self.start[m + 1])
        return lo + int(np.searchsorted(self.ends[lo:hi], sigma)), hi

    def marg(self, sigma: int) -> int:
        """Marg at sigma, one of M's step ends."""
        return int(self.Marg[np.searchsorted(self.Mends, sigma)])


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The concatenation of arange(lo[k], lo[k] + n[k]) over k."""
    return np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _front(col: np.ndarray, val: np.ndarray, group: np.ndarray | None = None, width: int = 0):
    """Positions of each group's Pareto points (a closed row's step
    ends), in (group, col) order.

    A point is kept when it is the cheapest at its column, the earliest
    position among equals, and strictly cheaper than every point at a
    larger column of its group.  Sorted stably by (group, val, -col), a
    point qualifies exactly when its column exceeds every column before
    it in its group.  Offsetting each group by width (more than any
    column) lets one running maximum serve all groups.
    """
    if group is None:
        order = np.lexsort((-col, val))
        key = col[order]
    else:
        order = np.lexsort((-col, val, group))
        key = col[order] + group[order] * width
    keep = np.ones(len(order), dtype=bool)
    np.greater(key[1:], np.maximum.accumulate(key[:-1]), out=keep[1:])
    return order[keep]


def _last_of_equal_runs(vals: np.ndarray) -> np.ndarray:
    """Mask keeping the last of each run of equal costs in a nondecreasing row."""
    keep = np.ones(len(vals), dtype=bool)
    np.less(vals[:-1], vals[1:], out=keep[:-1])
    return keep


class DpTable:
    """Per-node cost tables over (top-node count, covered-pair demand).

    Each node keeps its closed rows as step points (see the module
    docstring and _NodeTable); the float64 costs survive at the root
    alone, so cost() answers for the root only.
    """

    def __init__(self, tree: RootedTree):
        self.tree = tree
        self.tables: list[_NodeTable] = [None] * len(tree.nodes)
        self.trace: dict[int, tuple[int, int]] = {}
        need = _table_bytes(tree)
        if need > _TABLE_BYTES_CAP:
            raise CapExceededError(
                f"tree DP tables need about {need / 2**20:.0f} MiB, "
                f"above the {_TABLE_BYTES_CAP / 2**20:.0f} MiB cap",
                need,
            )
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

        if kind == "leaf":
            counts = np.ones(2, dtype=np.int64)
            ends = np.zeros(2, dtype=np.int64)
            vals = np.array([node.cost, 0.0])
        elif kind == "unary":
            # row m >= 1 is the child's row m - 1, which gains a credit of
            # Rc - (m - 1) pairs; row 0 chooses this node over the child's M
            ct = self.tables[node.children[0]]
            Rc = ct.R
            vals0 = node.cost + ct.M
            keep = _last_of_equal_runs(vals0)
            n = np.diff(ct.start)
            credit = np.repeat(Rc - np.arange(Rc + 1), n)
            ends = np.concatenate((ct.Mends[keep] + Rc, ct.ends + credit))
            vals = np.concatenate((vals0[keep], ct.vals))
            counts = np.concatenate(([np.count_nonzero(keep)], n))
        else:
            counts, ends, vals, nt.chm1, nt.chs1 = self._join(node, kind, nt.cap)

        nt.start = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        nt.ends = ends.astype(np.int32)
        nt.vals = vals
        rows = np.repeat(np.arange(R + 1, dtype=np.int32), counts)
        top = _front(ends, vals)  # ties go to the first, smallest row
        nt.Mends, nt.M, nt.Marg = nt.ends[top], vals[top], rows[top]
        self.tables[idx] = nt
        for c in node.children:
            self.tables[c].vals = self.tables[c].M = None

    def _join(self, node: TreeNode, kind: str, cap: int):
        """Closed rows of a binary or chain node from its children's step points.

        Every pair of step points of a left row m1 and a right row m2 is
        a candidate for row m = m1 + m2 + e at column s1 + s2 + off;
        row 0 (this node chosen) pairs the left M with the right M, or a
        gate with the next gate's row 0.  Candidates are listed block by
        block in (m, m1) order, s1 then s2 within a block, so the first
        of equal candidates has the smallest (m1, s1), as the dense join
        recorded it.
        """
        t1, t2 = (self.tables[c] for c in node.children)
        R1, R2 = t1.R, t2.R
        # a binary node owns one more top node; a chain gate owns none
        e = int(kind == "binary")
        sbar = R1 * R2 + e * (R1 + R2)
        m1, m2 = (g.ravel() for g in np.meshgrid(np.arange(R1 + 1), np.arange(1 - e, R2 + 1), indexing="ij"))
        by_row = np.lexsort((m1, m1 + m2))
        m1, m2 = m1[by_row], m2[by_row]
        n1, n2 = np.diff(t1.start), np.diff(t2.start)
        # blocks index the left points t1.ends + t1.Mends and the right t2.ends + t2.Mends
        a_lo = np.concatenate(([len(t1.ends)], t1.start[m1]))
        a_n = np.concatenate(([len(t1.Mends)], n1[m1]))
        b_lo = np.concatenate(([len(t2.ends) if e else 0], t2.start[m2]))
        b_n = np.concatenate(([len(t2.Mends) if e else n2[0]], n2[m2]))
        off = np.concatenate(([sbar], sbar - (m1 * m2 + e * (m1 + m2))))
        row = np.concatenate(([0], m1 + m2 + e))
        tag = np.concatenate(([-2], m1))  # row 0 records no left row
        lends = np.concatenate((t1.ends, t1.Mends)).astype(np.int64)
        lvals = np.concatenate((t1.vals, t1.M))
        rends = np.concatenate((t2.ends, t2.Mends)).astype(np.int64)
        rvals = np.concatenate((t2.vals, t2.M))

        # one line per (block, left point); a line holds b_n[block] candidates
        line_blk = np.repeat(np.arange(len(a_n)), a_n)
        line_a = _ranges(a_lo, a_n)
        line_n = b_n[line_blk]
        total = np.cumsum(line_n)
        cuts = np.searchsorted(total, np.arange(_CHUNK, total[-1], _CHUNK), side="right")
        bounds = np.concatenate(([0], cuts, [len(line_n)]))

        def candidates(lo: int, hi: int):
            n = line_n[lo:hi]
            blk = np.repeat(line_blk[lo:hi], n)
            ia = np.repeat(line_a[lo:hi], n)
            ib = _ranges(b_lo[line_blk[lo:hi]], n)
            return row[blk], lends[ia] + rends[ib] + off[blk], lvals[ia] + rvals[ib], tag[blk], lends[ia]

        width = cap + 2
        if len(bounds) == 2:
            cand = candidates(0, len(line_n))
        else:  # the front of the chunks' fronts; a chunk's front has no ties within
            parts = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                c = candidates(lo, hi)
                keep = _front(c[1], c[2], c[0], width)
                parts.append([a[keep] for a in c])
            cand = [np.concatenate(a) for a in zip(*parts)]
        keep = _front(cand[1], cand[2], cand[0], width)
        m, ends, vals, chm1, chs1 = (a[keep] for a in cand)
        # non-tail gates cost 0.0, which leaves the sums' bits unchanged
        k0 = int(np.searchsorted(m, 1))
        vals[:k0] += node.cost
        keep = np.ones(len(m), dtype=bool)
        keep[:k0] = _last_of_equal_runs(vals[:k0])
        counts = np.bincount(m[keep], minlength=node.subtree_size + 1)
        return counts, ends[keep], vals[keep], chm1[keep].astype(np.int32), chs1[keep].astype(np.int32)

    def cost(self, idx: int, sigma: int, m: int) -> float:
        """Cheapest cost covering at least sigma pairs with at least m tops.

        Answers for the root only: every other node's costs are released
        once its parent is filled.
        """
        if not (_is_int(sigma) and sigma >= 0):
            raise ContractViolationError(f"sigma must be a nonnegative integer, got {sigma!r}")
        if not (_is_int(m) and m >= 0):
            raise ContractViolationError(f"m must be a nonnegative integer, got {m!r}")
        nt = self.tables[idx]
        if nt.vals is None:
            raise ContractViolationError(
                f"node {idx}'s cost rows were released once its parent was filled; "
                "cost() answers for the root only"
            )
        if sigma > nt.cap or m > nt.R:
            return float("inf")
        if m == 0:
            k = int(np.searchsorted(nt.Mends, sigma))
            return float(nt.M[k]) if k < len(nt.M) else float("inf")
        best = float("inf")
        for r in range(m, nt.R + 1):
            p, hi = nt.first_end(r, sigma)
            if p < hi:
                best = min(best, float(nt.vals[p]))
        return best

    def reconstruct(self, budget: float) -> tuple[set[int], int]:
        """Chosen graph nodes and the best coverage within the budget."""
        if not budget >= 0:  # also refuses NaN
            raise ContractViolationError(f"budget must be nonnegative, got {budget!r}")
        tree = self.tree
        root_t = self.tables[tree.root]
        # M starts at 0.0 (nothing chosen), so some step end fits the budget
        k = int(np.searchsorted(root_t.M, budget, side="right")) - 1
        sigma_star = int(root_t.Mends[k])
        chosen: set[int] = set()
        self.trace = {}
        work: list[tuple[int, int, int, int]] = []

        def push(idx: int, m: int, sigma_closed: int) -> None:
            nt = self.tables[idx]
            p, hi = nt.first_end(m, sigma_closed)
            s_exact = int(nt.ends[p]) if p < hi else nt.cap + 1
            self.trace[idx] = (m, s_exact)
            work.append((idx, m, s_exact, p))

        push(tree.root, int(root_t.Marg[k]), sigma_star)
        while work:
            idx, m, se, p = work.pop()
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
                    push(node.children[0], ct.marg(s1), s1)
                continue
            c1, c2 = node.children
            t1, t2 = self.tables[c1], self.tables[c2]
            e = int(kind == "binary")
            sbar = t1.R * t2.R + e * (t1.R + t2.R)
            s1 = int(nt.chs1[p])
            if m >= 1:
                m1 = int(nt.chm1[p])
                m2 = m - e - m1
                off = sbar - (m1 * m2 + e * (m1 + m2))
                push(c1, m1, s1)
                push(c2, m2, se - off - s1)
            else:
                if e:
                    owner = node.graph_node if node.graph_node is not None else node.chain_group
                    chosen.add(owner)
                s2 = se - sbar - s1
                push(c1, t1.marg(s1), s1)
                push(c2, t2.marg(s2) if e else 0, s2)
        return chosen, sigma_star


def tree_solve_full(inst: CostedInstance):
    """Solve, audit_solution the answer, and return it with the binarized
    tree and its table."""
    rt = root_tree(inst.graph, inst.cost, root=0)
    bt = binarize(rt)
    table = DpTable(bt)
    chosen, sigma_star = table.reconstruct(inst.budget)
    nodes = tuple(sorted(chosen))
    sol = Solution(
        nodes=nodes, cost=inst.cost_of(nodes), gbc=2.0 * sigma_star, algorithm="tree", order=nodes
    )
    audit_solution(inst, sol)
    return sol, bt, table


def tree_solve(inst: CostedInstance) -> Solution:
    """Optimal node set on a tree within the budget; value in ordered units."""
    sol, _, _ = tree_solve_full(inst)
    return sol
