"""Instance generators.

Two adversarial families plus seeded random graphs, trees, and costs.

The tight family realizes a bipartite row/column coverage matrix as a
graph: picking column node a_j covers alpha[i][j] of the shortest
source-sink paths through every row i, picking row node b_i covers all
paths of row i.  Multiplicities come from chains of parallel-branch
gadgets whose branch counts multiply, with identical chain length for
every cell so all the paths tie.  Replicated source and sink cliques
(l_s > l_t) drown the side pairs asymmetrically, which steers tie
breaks the adversarial way.

The vertex-cover family blows each node of a base graph into a clique
of copies and wires an intermediate hub between the copy sets of every
non-adjacent pair, so that over the essential pairs (copies of distinct
originals) the group value collapses to an exact multiple of the number
of covered base edges.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ContractViolationError
from .graph import Graph, _is_int

__all__ = [
    "TightInstanceMeta",
    "ApxInstanceMeta",
    "gen_tight",
    "gen_apx",
    "gen_random",
    "gen_random_tree",
    "gen_random_costs",
]

MAX_NODES = 100_000


@dataclass(frozen=True)
class TightInstanceMeta:
    k: int
    l_s: int
    l_t: int
    alpha: np.ndarray  # (k+3) x (k+1) path multiplicities
    col_labels: tuple[str, ...]
    split_labels: tuple[str, ...]
    row_labels: tuple[str, ...]
    source_labels: tuple[str, ...]
    sink_labels: tuple[str, ...]
    opt_rows: tuple[str, ...]
    whitelist: tuple[str, ...]
    st_sigma: int  # shortest-path count between any source and any sink

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "l_s": self.l_s,
                "l_t": self.l_t,
                "alpha": self.alpha.tolist(),
                "col_labels": list(self.col_labels),
                "split_labels": list(self.split_labels),
                "row_labels": list(self.row_labels),
                "source_labels": list(self.source_labels),
                "sink_labels": list(self.sink_labels),
                "opt_rows": list(self.opt_rows),
                "whitelist": list(self.whitelist),
                "st_sigma": self.st_sigma,
            }
        )


def _branch_counts(k: int, j: int) -> list[int]:
    """Branch counts of the k-1 serial gadgets for matrix column j."""
    if j <= k:
        return [k] * (k - j) + [k - 1] * (j - 1)
    return [(k - 1) * (k - 1)] + [k - 1] * (k - 2)


def gen_tight(k: int, l_s: int | None = None, l_t: int | None = None):
    """Adversarial instance with k column nodes against k+3 row nodes.

    Defaults l_s = 40k and l_t = 20k.  Returns (graph, meta); meta
    carries the multiplicity matrix, the node roles, and the candidate
    whitelist (columns and rows).
    """
    if not (_is_int(k) and k >= 2):
        raise ContractViolationError("k must be an integer >= 2")
    k = int(k)
    l_s = 40 * k if l_s is None else int(l_s)
    l_t = 20 * k if l_t is None else int(l_t)
    if not l_s > l_t >= 1:
        raise ContractViolationError("need l_s > l_t >= 1")

    rows = k + 3
    alpha = np.empty((rows, k + 1), dtype=np.int64)
    for j in range(1, k + 2):
        alpha[:, j - 1] = int(np.prod(_branch_counts(k, j), dtype=np.int64))

    gadget_nodes = rows * sum(
        sum(_branch_counts(k, j)) + (k - 2) for j in range(1, k + 2)
    )
    n_est = l_s + l_t + rows + k + rows + gadget_nodes
    if n_est > MAX_NODES:
        raise CapExceededError(f"generated graph would have {n_est} nodes", n_est)

    col_labels = tuple(f"a{j}" for j in range(1, k + 1))
    split_labels = tuple(f"a{k + 1}_{i}" for i in range(1, rows + 1))
    row_labels = tuple(f"b{i}" for i in range(1, rows + 1))
    source_labels = tuple(f"s{i}" for i in range(1, l_s + 1))
    sink_labels = tuple(f"t{i}" for i in range(1, l_t + 1))

    edges: list[tuple[str, str]] = []
    for i in range(1, rows + 1):
        for j in range(1, k + 2):
            start = col_labels[j - 1] if j <= k else split_labels[i - 1]
            end = row_labels[i - 1]
            counts = _branch_counts(k, j)
            junctions = [f"j_{i}_{j}_{x}" for x in range(1, len(counts))]
            stops = [start] + junctions + [end]
            for gi, beta in enumerate(counts):
                left, right = stops[gi], stops[gi + 1]
                for b in range(1, beta + 1):
                    mid = f"x_{i}_{j}_{gi + 1}_{b}"
                    edges.append((left, mid))
                    edges.append((mid, right))
    for a in range(l_s):
        for b in range(a + 1, l_s):
            edges.append((source_labels[a], source_labels[b]))
    for s in source_labels:
        for lab in col_labels + split_labels:
            edges.append((s, lab))
    for a in range(l_t):
        for b in range(a + 1, l_t):
            edges.append((sink_labels[a], sink_labels[b]))
    for t in sink_labels:
        for lab in row_labels:
            edges.append((t, lab))

    g = Graph(edges)
    meta = TightInstanceMeta(
        k=k,
        l_s=l_s,
        l_t=l_t,
        alpha=alpha,
        col_labels=col_labels,
        split_labels=split_labels,
        row_labels=row_labels,
        source_labels=source_labels,
        sink_labels=sink_labels,
        opt_rows=row_labels,
        whitelist=col_labels + row_labels,
        st_sigma=rows * k**k,
    )
    return g, meta


@dataclass(frozen=True)
class ApxInstanceMeta:
    base: Graph
    k: int
    l: int
    copies: dict  # base label -> tuple of copy labels
    hubs: dict  # (label u, label v) with u, v non-adjacent -> hub label
    essential_pairs: tuple[tuple[int, int], ...]  # ordered id pairs in the big graph

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "l": self.l,
                "copies": {lab: list(v) for lab, v in self.copies.items()},
                "hubs": {f"{u}|{v}": h for (u, v), h in self.hubs.items()},
                "essential_pairs": [list(p) for p in self.essential_pairs],
            }
        )


def gen_apx(g: Graph, k: int, l: int | None = None):
    """Blow-up graph whose restricted centrality counts covered base edges.

    Each base node v gains l copies cliqued with it; every non-adjacent
    base pair gains a hub adjacent to all copies on both sides.  The
    essential pairs are all ordered pairs of copies of distinct base
    nodes.  Omitting `l` raises ContractViolationError, as l < 1 does.
    """
    if not (_is_int(l) and l >= 1):
        raise ContractViolationError("l must be an integer >= 1")
    l = int(l)

    non_adj = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    n_est = g.n * (1 + l) + len(non_adj)
    if n_est > MAX_NODES:
        raise CapExceededError(f"generated graph would have {n_est} nodes", n_est)

    copies = {g.labels[v]: tuple(f"{g.labels[v]}__{i}" for i in range(1, l + 1)) for v in range(g.n)}
    edges: list[tuple[str, str]] = [
        (g.labels[u], g.labels[v]) for u, v in g.edge_list
    ]
    for v in range(g.n):
        group = [g.labels[v], *copies[g.labels[v]]]
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                edges.append((group[a], group[b]))
    hubs = {}
    for u, v in non_adj:
        lu, lv = g.labels[u], g.labels[v]
        hub = f"z__{lu}__{lv}"
        hubs[(lu, lv)] = hub
        for c in copies[lu] + copies[lv]:
            edges.append((hub, c))

    big = Graph(edges)
    pairs: list[tuple[int, int]] = []
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            for cu in copies[g.labels[u]]:
                for cv in copies[g.labels[v]]:
                    pairs.append((big.id_of[cu], big.id_of[cv]))
    meta = ApxInstanceMeta(
        base=g,
        k=int(k),
        l=l,
        copies=copies,
        hubs=hubs,
        essential_pairs=tuple(pairs),
    )
    return big, meta


def gen_random(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph, augmented to connectivity.

    Components left by the coin flips are chained together through
    their smallest labels, so the output is a pure function of the
    arguments.
    """
    if n < 2:
        raise ContractViolationError("need n >= 2")
    if not 0.0 <= edge_prob <= 1.0:
        raise ContractViolationError("edge_prob must lie in [0, 1]")
    if n > MAX_NODES:
        raise CapExceededError(f"generated graph would have {n} nodes", n)
    rng = random.Random(seed)
    edges = [
        (str(u), str(v))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(int(a))] = find(int(b))
    reps = sorted({find(v) for v in range(n)})
    for prev, cur in zip(reps, reps[1:]):
        edges.append((str(prev), str(cur)))
    # chaining the component representatives pulls in isolated nodes too,
    # so every label 0..n-1 appears
    edges.sort(key=lambda e: (int(e[0]), int(e[1])))
    return Graph(edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Random attachment tree: node v joins a uniformly chosen earlier node."""
    if n < 2:
        raise ContractViolationError("need n >= 2")
    rng = random.Random(seed)
    edges = [(str(rng.randrange(v)), str(v)) for v in range(1, n)]
    return Graph(edges)


def gen_random_costs(g: Graph, cost_range: tuple[int, int] = (0, 5), seed: int = 0) -> dict:
    """Uniform integer costs over the labels of g, as a label -> cost map."""
    lo, hi = int(cost_range[0]), int(cost_range[1])
    if lo < 0 or hi < lo:
        raise ContractViolationError("cost range must satisfy 0 <= lo <= hi")
    rng = random.Random(seed)
    return {g.labels[v]: float(rng.randint(lo, hi)) for v in range(g.n)}
