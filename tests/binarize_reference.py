"""The recursive binarize, kept as the reference for the explicit-stack
walk in mbckit.tree.binarize, which must number, link and annotate
every node as this one does.

It raises the interpreter's recursion limit for the walk's depth and
restores it when it returns.
"""

from __future__ import annotations

import sys

from mbckit.tree import RootedTree, TreeNode


def binarize_recursive(rt: RootedTree) -> RootedTree:
    out: list[TreeNode] = []
    limit = max(sys.getrecursionlimit(), 4 * len(rt.nodes) + 100)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        new_root = _binarize_subtree(rt, out, rt.root, None)
    finally:
        sys.setrecursionlimit(old)
    return RootedTree(nodes=out, root=new_root, graph=rt.graph)


def _clone(out: list[TreeNode], src: TreeNode, parent: int | None) -> int:
    node = TreeNode(
        idx=len(out),
        graph_node=src.graph_node,
        parent=parent,
        cost=src.cost,
        subtree_size=src.subtree_size,
    )
    out.append(node)
    return node.idx


def _binarize_subtree(
    rt: RootedTree, out: list[TreeNode], src_idx: int, parent: int | None
) -> int:
    src = rt.nodes[src_idx]
    kids = src.children
    if len(kids) <= 2:
        me = _clone(out, src, parent)
        for c in kids:
            out[me].children.append(_binarize_subtree(rt, out, c, me))
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
        out[gidx].children.append(_binarize_subtree(rt, out, kids[i], gidx))
        if i < len(gates) - 1:
            out[gidx].children.append(gates[i + 1])
        else:
            out[gidx].children.append(_binarize_subtree(rt, out, kids[-1], gidx))
    return gates[0]
