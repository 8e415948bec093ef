"""Reference implementations used only by the tests.

Everything here is deliberately naive and shares no code with the
package: BFS in pure python, exact rational arithmetic, bitmask subset
enumeration.  Package results are compared against these, never the
other way round.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import lcm


def build_adj(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_dist(adj, s):
    dist = [None] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(n, edges):
    if n == 1:
        return True
    if not edges:
        return False
    dist = bfs_dist(build_adj(n, edges), 0)
    return all(d is not None for d in dist)


def dist_sigma_int(n, edges):
    """Per-source BFS distances and exact integer shortest-path counts."""
    adj = build_adj(n, edges)
    dists, sigmas = [], []
    for s in range(n):
        dist = [None] * n
        sig = [0] * n
        dist[s] = 0
        sig[s] = 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sig[w] += sig[u]
        dists.append(dist)
        sigmas.append(sig)
    return dists, sigmas


def pair_masks(n, edges):
    """For each ordered pair (s, t), the node bitmask of every shortest
    s-t path, endpoints included."""
    adj = build_adj(n, edges)
    alldist = [bfs_dist(adj, s) for s in range(n)]
    out = {}
    for s in range(n):
        ds = alldist[s]
        for t in range(n):
            if t == s or ds[t] is None:
                continue
            dt = alldist[t]
            goal = ds[t]
            paths = []

            def walk(u, mask):
                if u == t:
                    paths.append(mask)
                    return
                for w in adj[u]:
                    if ds[w] == ds[u] + 1 and ds[w] + dt[w] == goal:
                        walk(w, mask | (1 << w))

            walk(s, 1 << s)
            out[(s, t)] = paths
    return out


def gbc_value(masks, group) -> Fraction:
    gmask = 0
    for v in group:
        gmask |= 1 << v
    total = Fraction(0)
    for paths in masks.values():
        hit = sum(1 for m in paths if m & gmask)
        total += Fraction(hit, len(paths))
    return total


def gbc_brute(n, edges, group) -> Fraction:
    """Group betweenness by full path enumeration, exact."""
    return gbc_value(pair_masks(n, edges), group)


def gbc_modified_brute(n, edges, pairs, group) -> Fraction:
    masks = pair_masks(n, edges)
    gmask = 0
    for v in group:
        gmask |= 1 << v
    total = Fraction(0)
    for s, t in pairs:
        paths = masks[(s, t)]
        hit = sum(1 for m in paths if m & gmask)
        total += Fraction(hit, len(paths))
    return total


def opt_brute(n, edges, costs, budget, candidates=None, max_size=None):
    """Best feasible group by subset enumeration.

    Returns (value as Fraction, witness tuple).  Among optima the
    witness is the smallest set, lexicographically first, matching the
    package's stated tie-breaking.
    """
    masks = pair_masks(n, edges)
    scale = 1
    for paths in masks.values():
        scale = lcm(scale, len(paths))
    items = [(paths, scale // len(paths)) for paths in masks.values()]
    cand = sorted(candidates) if candidates is not None else list(range(n))
    if max_size is None:
        max_size = len(cand)
    best_scaled = -1
    best = ()
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(cand, size):
            if sum(costs[v] for v in combo) > budget:
                continue
            gmask = 0
            for v in combo:
                gmask |= 1 << v
            scaled = 0
            for paths, w in items:
                hit = 0
                for m in paths:
                    if m & gmask:
                        hit += 1
                scaled += hit * w
            if scaled > best_scaled:
                best_scaled = scaled
                best = combo
    return Fraction(best_scaled, scale), best


def covered_edges(edges, group) -> int:
    gset = set(group)
    return sum(1 for u, v in edges if u in gset or v in gset)


def connected_labeled_graphs(n):
    """Every connected graph on the labeled vertex set range(n)."""
    slots = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
        if len(edges) >= n - 1 and is_connected(n, edges):
            yield tuple(edges)


class LoopGraph:
    """The per-edge loop constructor that the array-built Graph replaced,
    kept as its reference.

    It reads labels as str(label), gives ids by first appearance, and
    raises mbckit's error types with the same messages, for the first
    offending edge in input order.  indptr and indices are the CSR the
    neighbour lists give, as plain lists.
    """

    def __init__(self, edges):
        from mbckit.errors import (
            DisconnectedGraphError,
            DuplicateEdgeError,
            FormatError,
            SelfLoopError,
        )

        id_of = {}
        pairs = []
        seen = set()
        for a, b in edges:
            a, b = str(a), str(b)
            if a == b:
                raise SelfLoopError(f"self-loop at node {a!r}")
            for lab in (a, b):
                if lab not in id_of:
                    id_of[lab] = len(id_of)
            u, v = id_of[a], id_of[b]
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(f"duplicate edge {a!r} {b!r}")
            seen.add(key)
            pairs.append(key)
        if not pairs:
            raise FormatError("graph has no edges")
        n = len(id_of)
        adj = build_adj(n, pairs)
        for nbrs in adj:
            nbrs.sort()
        reached = sum(d is not None for d in bfs_dist(adj, 0))
        if reached != n:
            raise DisconnectedGraphError(
                f"graph is disconnected ({reached} of {n} nodes reachable)"
            )
        self.n = n
        self.m = len(pairs)
        self.labels = tuple(sorted(id_of, key=id_of.get))
        self.id_of = id_of
        self.adj = adj
        self.edge_list = tuple(sorted(pairs))
        self.indptr = [0]
        for nbrs in adj:
            self.indptr.append(self.indptr[-1] + len(nbrs))
        self.indices = [w for nbrs in adj for w in nbrs]
