"""Graph core: parsing, validation, and shortest-path counting.

Graphs are undirected, unweighted, simple, and connected.  Node ids are
dense integers assigned by first appearance in the edge list; the
original labels are kept for reporting.

A graph is built in a few array passes over its flat label list, with
no Python object per edge: ids come from one dict of the distinct
labels and one np.fromiter, and one sort of the keys u * n + v of both
orientations gives the CSR's entries in row order.  Two equal keys mean
a self-loop or a duplicate edge; only then is the input searched for
the first offending edge.  Connectivity is one breadth-first order on
the CSR.  The CSR is the one stored adjacency: the neighbour lists adj
and the sorted edge tuple edge_list are derived from it on first use.

All-pairs hop distances and shortest-path counts are computed once per
graph by `apsp`, kept on the graph, and shared read-only by every
solver.  Like Brandes' breadth-first pass, one forward sweep finds both
where the sparse product runs: an entry's level is the first product
that reaches it.  The level-indexed gather, which must order every
entry by distance before it runs, takes its distances from a
bit-parallel breadth-first search first, _bit_bfs, which runs from
every class at once, 64 sources to a machine word (Akiba, Iwata and
Yoshida, "Fast exact shortest-path distance queries on large networks
by pruned landmark labeling", 2013).  On thin graphs such as paths and
cycles its per-level overhead loses to scipy's Dijkstra, which runs
there instead; _BIT_BFS_COST holds the rule and its measurement.

Counting runs on the twin quotient, the structural-equivalence
reduction of Puzis, Zilberman, Elovici, Dolev and Brandes ("Heuristics
for speeding up betweenness centrality computation", 2012).  Twins are
nodes with the same closed neighbourhood (true twins) or the same open
one (false twins).  A shortest path meets at most one node of a twin
class, so the level sweep runs over classes, each interior class
weighted by its size, and the n x n results are read out of the class
space.  The classes are found on the first `apsp` of a graph, not when
it is built.  A graph whose twins would remove fewer than _MIN_TWINS
nodes is its own quotient, one class per node.

The forward sweep has two kernels over the q classes.  _level_sweep
runs one sparse product over all q columns per level, O(levels * (nnz
* q + q^2)), which suits few levels.  _level_gather fills each entry
once, at its own level, from its neighbours' entries one level closer,
O(q^2 * max degree), through a level index built once per quotient:
the q x q entries ordered by distance, and a padded neighbour table.
That suits high-diameter graphs such as grids and paths.
_Quotient.sweep picks one by the cost rule of _GATHER_COST, whose
comment holds its measurement.  The rule is applied before any
distance is known, so it reads the eccentricity e0 of class 0, from one
breadth-first order, in place of the largest class distance top.  As
e0 <= top <= 2 * e0, that can only move a graph from the gather to the
sparse sweep.  Both kernels sum integers below 2**53, so they agree bit
for bit.  apsp refuses, with CapExceededError, class-space arrays over
_BYTES_CAP bytes, the transients of the gather's distance step
included, before it builds any, then counts that overflow, and n x n
arrays over _BYTES_CAP bytes.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import (
    CapExceededError,
    ContractViolationError,
    DisconnectedGraphError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    UnknownLabelError,
)

__all__ = [
    "Graph",
    "CostedInstance",
    "PathCounts",
    "parse_graph",
    "parse_costs",
    "parse_instance",
    "cost_array",
    "apsp",
    "on_shortest_path",
    "enumerate_shortest_paths",
    "to_instance_json",
]


class Graph:
    """Immutable undirected connected simple graph with dense node ids.

    labels[v] is the label of node v and id_of its inverse; ids follow
    the labels' first appearance in the edge list.  The CSR of csr() is
    the one stored adjacency: int32 (int64 past 2**31 entries) indices,
    each row sorted, float64 ones as data.  adj (sorted neighbour lists)
    and edge_list (the (u, v) pairs with u < v, sorted) hold plain
    Python ints and are derived from it on first use; callers must not
    mutate them.  Labels that are not str are stored as str(label).
    """

    __slots__ = (
        "n", "m", "labels", "id_of", "_csr", "_adj", "_edge_list", "_quotient", "_counts"
    )

    def __init__(self, edges: Iterable[tuple[str, str]]):
        if type(edges) is not list:
            edges = list(edges)
        try:
            pairs = set(map(len, edges)) <= {2}
        except TypeError:
            pairs = False
        if not pairs:
            edges = [(a, b) for a, b in edges]  # raises on the first record that is not a pair
        self._build(list(chain.from_iterable(edges)))

    @classmethod
    def _from_labels(cls, flat: list, labels: dict | None = None) -> "Graph":
        """The graph of the edges (flat[0], flat[1]), (flat[2], flat[3]), ...

        labels, if given, is dict.fromkeys(flat) and every label a str.
        """
        g = cls.__new__(cls)
        g._build(flat, labels)
        return g

    def _build(self, flat: list, labels: dict | None = None) -> None:
        if labels is None:
            labels = _distinct_str(flat)
            if labels is None:
                flat = list(map(str, flat))
                labels = dict.fromkeys(flat)
        if not flat:
            raise FormatError("graph has no edges")
        labels = tuple(labels)
        n = len(labels)
        id_of = dict(zip(labels, range(n)))
        ids = np.fromiter(map(id_of.__getitem__, flat), dtype=np.int64, count=len(flat))
        u, v = ids[0::2], ids[1::2]
        # each edge in both orientations, sorted: the CSR's entries in row order;
        # a self-loop or a duplicate edge shows as two equal keys
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            _reject(flat, u, v, n)
        idx = np.int32 if len(keys) < 2**31 else np.int64
        indices = (keys % n).astype(idx)
        indptr = keys.searchsorted(np.arange(0, n * n + 1, n)).astype(idx)
        A = sparse.csr_matrix((np.ones(len(keys)), indices, indptr), shape=(n, n))
        A.has_sorted_indices = True
        reached = len(csgraph.breadth_first_order(A, 0, directed=True, return_predecessors=False))
        if reached != n:
            raise DisconnectedGraphError(
                f"graph is disconnected ({reached} of {n} nodes reachable)"
            )
        self.n = n
        self.m = len(u)
        self.labels = labels
        self.id_of = id_of
        self._csr = A
        self._adj = self._edge_list = self._quotient = self._counts = None

    @property
    def adj(self) -> list[list[int]]:
        """Sorted neighbour lists, one per node, derived from the CSR on first use."""
        if self._adj is None:
            ptr = self._csr.indptr.tolist()
            nbrs = self._csr.indices.tolist()
            self._adj = [nbrs[a:b] for a, b in zip(ptr, ptr[1:])]
        return self._adj

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """The edges as (u, v) with u < v, sorted, derived from the CSR on first use."""
        if self._edge_list is None:
            A = self._csr
            rows = np.repeat(np.arange(self.n), np.diff(A.indptr))
            upper = A.indices > rows
            self._edge_list = tuple(zip(rows[upper].tolist(), A.indices[upper].tolist()))
        return self._edge_list

    def degree(self, v: int) -> int:
        _check_node(self, v)
        return int(self._csr.indptr[v + 1] - self._csr.indptr[v])

    def neighbors(self, v: int) -> Sequence[int]:
        """Sorted neighbor ids of v. Callers must not mutate the list."""
        _check_node(self, v)
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        _check_node(self, u)
        _check_node(self, v)
        a = self.adj[u]
        i = bisect.bisect_left(a, v)
        return i < len(a) and a[i] == v

    def label(self, v: int) -> str:
        _check_node(self, v)
        return self.labels[v]

    def ids(self, labels: Iterable[str]) -> list[int]:
        out = []
        for lab in labels:
            lab = str(lab)
            if lab not in self.id_of:
                raise UnknownLabelError(f"unknown node label {lab!r}")
            out.append(self.id_of[lab])
        return out

    def csr(self) -> sparse.csr_matrix:
        return self._csr

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _distinct_str(flat: list) -> dict | None:
    """dict.fromkeys(flat) if every label is a str, else None.

    Only the distinct labels are type-checked: a label of another type
    never equals a str, so it would be distinct too, unless it is a str
    subclass's, which names the same node as str(label) would.
    """
    try:
        labels = dict.fromkeys(flat)
    except TypeError:  # an unhashable label
        return None
    return None if set(map(type, labels)) - {str} else labels


def _reject(flat: list, u: np.ndarray, v: np.ndarray, n: int) -> None:
    """Raise for the first edge, in input order, that is a self-loop or
    repeats an earlier edge in either orientation."""
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")  # equal keys stay in input order
    flags = u == v
    flags[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    first = int(np.flatnonzero(flags)[0])
    a, b = str(flat[2 * first]), str(flat[2 * first + 1])
    if a == b:
        raise SelfLoopError(f"self-loop at node {a!r}")
    raise DuplicateEdgeError(f"duplicate edge {a!r} {b!r}")


def _is_int(x) -> bool:
    # bool is an int, but it masks as an index and reads as 0 or 1 as a count
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_node(g: Graph, v: int) -> None:
    if not (_is_int(v) and 0 <= v < g.n):
        raise ContractViolationError(f"node id {v!r} out of range 0..{g.n - 1}")


@dataclass(frozen=True)
class CostedInstance:
    """A graph with nonnegative node costs and a spending budget."""

    graph: Graph
    cost: np.ndarray
    budget: float

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=np.float64)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "budget", float(self.budget))
        if c.shape != (self.graph.n,):
            raise ContractViolationError(
                f"cost vector has shape {c.shape}, expected ({self.graph.n},)"
            )
        if not np.all(np.isfinite(c)) or bool((c < 0).any()):
            raise ContractViolationError("node costs must be finite and nonnegative")
        if not (np.isfinite(self.budget) and self.budget >= 0):
            raise ContractViolationError("budget must be finite and nonnegative")

    @staticmethod
    def unit(g: Graph, budget: float) -> "CostedInstance":
        return CostedInstance(g, np.ones(g.n), budget)

    @property
    def unit_costs(self) -> bool:
        return bool(np.all(self.cost == 1.0))

    def cost_of(self, nodes: Iterable[int]) -> float:
        idx = list(nodes)
        if not idx:
            return 0.0
        return float(self.cost[idx].sum())


@dataclass(frozen=True)
class PathCounts:
    """All-pairs hop distances and shortest-path counts of one graph.

    dist[v, v] = 0 and sigma[v, v] = 1 (the empty path).  sigma is kept
    in doubles: counts can grow exponentially, and every consumer only
    ever forms ratios against it.  apsp(g) wraps the n x n arrays it
    keeps on g, which it reads out of the twin quotient.
    """

    graph: Graph
    dist: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n


# Refuse to build arrays that would need more than this many bytes:
# the q x q arrays of a graph's twin quotient, the n x n arrays apsp
# keeps on it, and the tree DP's tables.
_BYTES_CAP = 1 << 30


# A graph runs on its twin quotient when that removes at least this many
# nodes; with fewer, the fixed costs of the quotient (its CSR, the
# read-out to n x n) outweigh the smaller sweep.  Quotient over plain
# sweep time, for apsp and then gbc_direct, as medians of 15 alternating
# runs on one core of a 2-core x86-64 machine: stars 1.13 / 1.03 at 23
# removed nodes, 1.03 / 0.99 at 31 and 0.92 / 0.94 at 39; gen_apx
# blow-ups 1.04 / 1.09 at 24 and 0.87 / 0.83 at 36; random trees
# 0.95 / 0.97 at n = 128 (17 removed) and 0.80 / 0.77 at n = 256 (29);
# a random graph with 3 twins 1.08 / 1.10.
_MIN_TWINS = 32

# _Quotient.sweep runs the level-indexed kernel, _level_gather, when
# _GATHER_COST * q * max degree < levels * (nnz + q), and the sparse
# product sweep, _level_sweep, otherwise; nnz is the class adjacency's
# and levels the eccentricity e0 of class 0.  The largest class
# distance top is the truer input, but only the sparse sweep finds it,
# as it runs.  As e0 <= top <= 2 * e0, reading e0 can only keep a graph
# on the sparse sweep, which finds its own distances, while the gather
# takes them from a distance step first (see _BIT_BFS_COST).  Divided
# by q, the sides are the neighbour slots one gather pass reads and the
# multiply-adds and masked passes of the sparse products.  Gather time, plus half its index build (an
# apsp and a gbc_direct share it), over sparse sweep time, best of 5
# on a 2-core x86-64 machine, at x = top * (nnz + q) / (q * max
# degree): gen_random(120, 14/119) 1.96 at x = 1.9 and gen_random(300,
# 8/299) 0.91 at 2.6; random trees of 32 nodes 1.04 to 2.39 at 2.9 to
# 4.6, of 256 nodes 0.56 and 0.58 at 4.9 and 6.3; grids 5x5 1.19 at
# 8.4, 8x8 0.71 at 15.8 and 20x20 0.15 at 46; paths of 60 and 300
# nodes 0.48 at 88 and 0.05 at 448.  Per-level overhead makes small
# graphs break even later than large ones (x near 3), so the constant
# keeps every 32-node tree (x up to 7.3) on the sparse sweep.
_GATHER_COST = 10

# Where the gather runs, its distances come from _bit_bfs when
# _BIT_BFS_COST * e0 * (q * words * degree + 3000) < q * (q + nnz) *
# log2(q), and from scipy's Dijkstra otherwise (_Quotient.bitwise);
# words = ceil(q / 64) and e0 stands in for the number of levels.  The
# left side is the bit search's word passes, degree gathers per
# frontier row per level, plus a level's fixed numpy overhead in word
# passes; the right is Dijkstra's heap work.  Bit search over Dijkstra
# time, medians of 21 alternating runs (11 for q > 500) with one BLAS
# thread on a 2-core x86-64 machine, at x = q * (q + nnz) * log2(q) /
# (e0 * (q * words * degree + 3000)): grids 6x6 0.90 at 0.92, 8x8 0.56
# at 2.4, 15x15 0.17 at 10, 20x20 0.17 at 12, 30x30 0.18 at 12, 3x60
# 0.92 at 3.3, 3x100 0.84 at 3.5, 2x150 1.15 at 2.6; paths of 90, 200
# and 600 nodes 2.2 at 0.52, 2.0 at 1.0 and 2.3 at 1.1; cycles of 150
# and 300 nodes 1.34 at 1.7 and 1.20 at 2.5; ladders of 250 rungs 1.29
# at 2.4; caterpillars of 250 spine nodes 1.38 at 1.8.  Every graph
# past x = 3 gained, and every one that lost lay below it.
_BIT_BFS_COST = 3


class _Quotient:
    """The twin quotient of one graph, read-only and built once per graph.

    cls[v] is the class of node v, classes numbered by their smallest
    member, and size[c] the number of nodes in class c (as floats, for
    weighting).  within[c] is the distance between two members of c: 1
    for true twins, which are pairwise adjacent, 2 for false twins, which
    share every neighbour, and 0 for a single node.  adj joins two
    classes when their members are adjacent, and dist holds the quotient
    hop distances, which are the distances between members of distinct
    classes.  shared lists (false-twin class, neighbour class) pairs, to
    count the paths between two false twins without a sparse product.
    e0 is the eccentricity of class 0 and degree the largest class
    degree, the inputs of gathers() with q and adj.nnz.  Where the
    gather runs, dist and top, the largest class distance, are found
    when the quotient is built, by _bit_bfs or, where bitwise() says
    not, by scipy's Dijkstra; elsewhere dist holds -1 off its diagonal
    until the first sweep finds the levels, and top is None till then.
    _index is the level index of level_index(), None until the gather
    first runs.  A graph with too few twins (see _MIN_TWINS) is its own
    quotient (identity): cls is the identity, adj is g.csr() and dist
    is the graph's own distance array.
    """

    __slots__ = (
        "q", "cls", "size", "within", "adj", "dist", "shared", "identity", "top", "degree",
        "e0", "_index",
    )

    def __init__(self, g: Graph):
        cls, reps, within = _twin_classes(g)
        if g.n - len(reps) < _MIN_TWINS:
            cls = reps = np.arange(g.n)
            within = np.zeros(g.n, dtype=np.int64)
        q = len(reps)
        A = g.csr()
        self.q = q
        self.identity = q == g.n
        self.cls = cls
        self.size = np.bincount(cls, minlength=q).astype(np.float64)
        self.within = within
        if self.identity:
            self.adj, self.shared = A, None
        else:
            # the edges between representatives, in CSR order, so rows stay sorted
            rows = np.repeat(np.arange(g.n), np.diff(A.indptr))
            rep = np.zeros(g.n, dtype=bool)
            rep[reps] = True
            keep = rep[rows] & rep[A.indices]
            rows, cols = cls[rows[keep]], cls[A.indices[keep]]
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=q))))
            self.adj = sparse.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(q, q))
            false = within[rows] == 2
            self.shared = (rows[false], cols[false])
        self.degree = int(np.diff(self.adj.indptr).max())
        # e0 is the depth of the last class in class 0's breadth-first order
        order, pred = csgraph.breadth_first_order(self.adj, 0, directed=True)
        v, self.e0 = int(order[-1]), 0
        while v:
            v, self.e0 = int(pred[v]), self.e0 + 1
        self._index = None
        # refuse before the first q x q array: int64 dist and float64
        # counts, and where the gather runs its index's order and nbrs and
        # the transients of its distance step
        gathers = self.gathers()
        bitwise = gathers and self.bitwise()
        need = 16 * q * q
        if gathers:
            need += (8 * q + 8 * self.degree) * q
            need += _bit_bfs_bytes(q, self.degree, 2 * self.e0) if bitwise else 8 * q * q
        _check_bytes(need, f"path counts over {q} twin classes of {g.n} nodes")
        if gathers:
            if bitwise:
                self.dist, self.top = _bit_bfs(self.adj, q, self.degree)
            else:  # float64 distances, cast once
                dist = csgraph.shortest_path(self.adj, method="D", unweighted=True, directed=True)
                self.dist = dist.astype(np.int64)
                self.top = int(self.dist.max())
            self.dist.setflags(write=False)
        else:  # the first sweep finds the levels
            self.dist = np.full((q, q), -1, dtype=np.int64)
            np.fill_diagonal(self.dist, 0)
            self.top = None
        for a in (cls, self.size, within):
            a.setflags(write=False)

    def gathers(self) -> bool:
        """Whether sweep() runs the level-indexed kernel (see _GATHER_COST).

        It reads e0, class 0's eccentricity, for the largest class
        distance top, which the sparse sweep finds only as it runs;
        e0 <= top <= 2 * e0.
        """
        return _GATHER_COST * self.q * self.degree < self.e0 * (self.adj.nnz + self.q)

    def bitwise(self) -> bool:
        """Whether the gather's distances come from _bit_bfs, not scipy's
        Dijkstra (see _BIT_BFS_COST)."""
        q = self.q
        words = -(-q // 64)
        bfs = self.e0 * (q * words * self.degree + 3000)
        return _BIT_BFS_COST * bfs < q * (q + self.adj.nnz) * math.log2(q)

    def level_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, bounds, nbrs) for _level_gather, built on first use.

        order lists the flat positions t * q + s of the class-space
        entries by distance, ascending, and order[bounds[d]:bounds[d +
        1]] are those at distance d.  Row j of nbrs holds, for each
        class, the flat offset q * w of its j-th neighbour w's row, or
        q * q, the zero padding row, where it has fewer neighbours.
        """
        if self._index is None:
            q = self.q
            level = self.dist.astype(np.min_scalar_type(self.top)).ravel()
            order = np.argsort(level, kind="stable")
            bounds = np.searchsorted(level[order], np.arange(self.top + 2))
            nbrs = _padded_neighbours(self.adj, q, self.degree)
            nbrs *= q
            self._index = (order, bounds, nbrs)
        return self._index

    def sweep(self, blocked: np.ndarray | None = None) -> np.ndarray:
        """Class-space counts of the shortest paths that meet no node of
        the mask `blocked` (None blocks nothing).

        Entry (S, T) counts the paths from an unblocked node of S to an
        unblocked node of T.  Each interior class counts its unblocked
        members, so a class with none blocks.  With twins, the diagonal
        holds the count between two members of a class: 1 for true
        twins, and the unblocked shared neighbours for false twins.
        Entries of blocked nodes in a partly blocked class are the
        caller's to zero.  The kernel is _level_gather where gathers()
        says so, else _level_sweep, whose first run here, unblocked,
        finds dist.
        """
        if self.top is None and blocked is not None:
            self.sweep()  # only an unblocked sweep finds the levels
        if self.identity:
            weights, closed = None, blocked
        else:
            weights = self.size
            if blocked is not None:
                weights = weights - np.bincount(self.cls[blocked], minlength=self.q)
            closed = weights == 0.0
        if closed is None or not closed.any():
            seeds, closed = np.ones(self.q), None
        else:
            seeds = (~closed).astype(np.float64)
        if self.gathers():
            X = _level_gather(*self.level_index(), seeds, closed, weights)
        else:
            X = _level_sweep(self.adj, self.dist, np.diag(seeds), closed, weights=weights)
            if self.top is None:
                self.top = int(self.dist.max())
                self.dist.setflags(write=False)
        if not self.identity:
            at, nbr = self.shared
            pairs = np.bincount(at, weights=weights[nbr], minlength=self.q)
            X.flat[:: self.q + 1] = np.where(self.within == 2, pairs, 1.0)
        return X

    def expand(self, X: np.ndarray, diag) -> np.ndarray:
        """The n x n array whose (x, y) entry is X[cls[x], cls[y]], with
        diag on its diagonal.  Without twins that is X itself, which
        holds diag already."""
        if self.identity:
            return X
        X = X.take(self.cls, axis=0).take(self.cls, axis=1)
        X.flat[:: len(X) + 1] = diag
        return X


def _salts(n: int) -> np.ndarray:
    """Fixed, well-mixed 64-bit salts for the node ids: splitmix64."""
    salt = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    salt = (salt ^ (salt >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    salt = (salt ^ (salt >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return salt ^ (salt >> np.uint64(31))


def _twin_classes(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cls, reps, within) for _Quotient: each node's class, each class's
    smallest member, and each class's within-class distance.

    A node joins the first node with the same open neighbourhood (false
    twins) or the same closed one (true twins); no node has both kinds.
    Each node is fingerprinted by a salted sum over its neighbourhood,
    one O(m) pass over the CSR rows, and only nodes whose fingerprints
    collide have their sorted neighbourhoods compared, so a collision
    costs time, never a wrong class, and a graph without twins builds
    no Python objects per node.
    """
    A = g.csr()
    n = g.n
    salt = _salts(n)
    fp_open = np.add.reduceat(salt[A.indices], A.indptr[:-1])  # every row is nonempty
    head = np.arange(n)
    within = np.zeros(n, dtype=np.int64)
    for fp, d in ((fp_open + salt, 1), (fp_open, 2)):
        order = np.argsort(fp, kind="stable")  # ties stay in ascending id order
        cuts = np.flatnonzero(np.diff(fp[order])) + 1
        lo = np.concatenate(([0], cuts))
        hi = np.concatenate((cuts, [n]))
        for a, b in zip(lo[hi - lo > 1].tolist(), hi[hi - lo > 1].tolist()):
            firsts: list[tuple[int, list[int]]] = []
            for v in order[a:b].tolist():
                nbrs = A.indices[A.indptr[v] : A.indptr[v + 1]].tolist()
                if d == 1:
                    bisect.insort(nbrs, v)
                for r, seen in firsts:
                    if seen == nbrs:
                        head[v] = r
                        within[r] = d
                        break
                else:
                    firsts.append((v, nbrs))
    reps = np.flatnonzero(head == np.arange(n))
    return np.searchsorted(reps, head), reps, within[reps]


def _padded_neighbours(A: sparse.csr_matrix, q: int, degree: int) -> np.ndarray:
    """Row j holds each class's j-th neighbour, or q, a padding row,
    where it has fewer than j + 1."""
    rows = np.repeat(np.arange(q), np.diff(A.indptr))
    nbrs = np.full((degree, q), q, dtype=np.intp)
    nbrs[np.arange(A.nnz) - A.indptr[rows], rows] = A.indices
    return nbrs


def _bit_bfs(A: sparse.csr_matrix, q: int, degree: int) -> tuple[np.ndarray, int]:
    """(dist, top): the hop distances between the q classes of the
    adjacency A, as an int64 array, and the largest of them.

    One level-synchronous breadth-first search from every class at once,
    64 sources to a machine word (the bit-parallel BFS of Akiba, Iwata
    and Yoshida, 2013).  Bit s of row t of a level's frontier is set when
    class t is at that distance from class s.  Each level ORs the
    frontier rows of t's neighbours, read through the padded neighbour
    table, whose padding row stays zero, and keeps the bits not seen at
    an earlier level; the level's bits are ORed into plane b for each
    bit b set in its number.  Each plane is unpacked once at the end and
    the planes are summed, shifted, in the smallest dtype that holds
    top (the planes' bits are disjoint, so an OR sums them), then cast
    once.
    """
    words = -(-q // 64)
    nbrs = _padded_neighbours(A, q, degree).ravel()
    frontier = np.zeros((q + 1, words), dtype="<u8")  # row q is the padding
    spare = np.zeros_like(frontier)
    gathered = np.empty((degree * q, words), dtype="<u8")
    s = np.arange(q)
    frontier[s, s >> 6] = np.left_shift(np.uint64(1), (s & 63).astype(np.uint64))
    unseen = ~frontier[:q]
    planes: list[np.ndarray] = []
    top = 0
    for d in range(1, q):
        new = spare[:q]
        frontier.take(nbrs, axis=0, out=gathered, mode="clip")
        np.bitwise_or.reduce(gathered.reshape(degree, q, words), axis=0, out=new)
        new &= unseen
        if not new.any():
            break
        top = d
        unseen ^= new
        if d.bit_length() > len(planes):
            planes.append(np.zeros((q, words), dtype="<u8"))
        for b in range(d.bit_length()):
            if d >> b & 1:
                planes[b] |= new
        frontier, spare = spare, frontier
    small = np.min_scalar_type(top)
    dist = np.zeros((q, q), dtype=small)
    wide = None if small == np.uint8 else np.empty((q, q), dtype=small)
    for b, plane in enumerate(planes):
        bits = np.unpackbits(plane.view(np.uint8), axis=1, count=q, bitorder="little")
        dist |= np.left_shift(bits, small.type(b), out=bits if wide is None else wide)
    bits = wide = None  # the decode buffers go before the cast
    return dist.astype(np.int64), top


def _bit_bfs_bytes(q: int, degree: int, top: int) -> int:
    """An upper bound on the bytes _bit_bfs holds besides its int64
    dist, for a largest distance of at most top: its frontiers and
    planes, and the decode's small-dtype sum, unpacked plane and, past
    uint8, its widened copy."""
    words = -(-q // 64)
    small = np.min_scalar_type(top).itemsize
    frontiers = 8 * words * ((degree + 1 + top.bit_length()) * q + 2 * (q + 1))
    return frontiers + q * q * (1 + small + (small if small > 1 else 0))


def _level_sweep(
    A: sparse.csr_matrix,
    dist: np.ndarray,
    X: np.ndarray,
    blocked: np.ndarray | None = None,
    reverse: bool = False,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Level DP over the shortest-path DAGs, in place on X.

    Column s of X holds the DAG rooted at s.  Forward, the entries at
    distance 0 are the seeds, and level by level X[t, s] becomes the
    sum of X[w, s] over neighbors w of t one hop closer to s.  In
    reverse every entry is a seed, and from the farthest level inward
    X[t, s] adds the sum of X[w, s] over neighbors w of t one hop
    farther from s.  Rows in `blocked` are zeroed after every level, so
    nothing flows through a blocked node.  With weights, every w but the
    source itself counts weights[w] times, as a twin class counts its
    size, or its non-members; only rows of weight above 1 are scaled.
    Each level costs one sparse product over all columns and a few
    masked passes over X, so a pass costs O(levels * (nnz * q + q^2))
    for q columns.  Forward, _level_gather gives the same counts in
    O(q^2 * max degree), which _Quotient.sweep picks on high-diameter
    graphs; the reverse sweep runs here only.

    A forward sweep with nothing blocked, positive seeds and weights of
    at least 1 may also find the levels, Brandes' one pass for distances
    and counts: dist then holds -1 off its diagonal, and an entry joins
    level d, written into dist, in the first product that gives it
    positive flow.  A blocked node can make an entry's first flow arrive
    later than its distance, so blocked sweeps read dist.
    """
    find = not reverse and blocked is None and dist.min() < 0
    top = 0 if find else int(dist.max())
    src = dist == (top if reverse else 0)
    if find:
        unknown = dist < 0
        dist[...] = unknown  # plus one per product that leaves it unknown: its level
        levels = range(1, len(dist))  # at most q - 1 of them
    else:
        levels = range(top - 1, -1, -1) if reverse else range(1, top + 1)
    up = () if weights is None else np.flatnonzero(weights > 1.0)
    flow = np.where(src, X, 0.0)
    for d in levels:
        if len(up) and (reverse or d > 1):
            flow[up] = flow.take(up, axis=0) * weights[up, None]
        contrib = A @ flow
        if find:
            at = contrib > 0.0
            at &= unknown
            unknown ^= at
            dist += unknown
        else:
            at = dist == d
        if reverse:
            np.add(X, contrib, out=X, where=at)
            flow = np.where(at, X, 0.0)
        else:
            flow = np.where(at, contrib, 0.0)
            X += flow  # forward, X is still zero at level d
        if blocked is not None:
            X[blocked] = 0.0
            flow[blocked] = 0.0
        if find and not unknown.any():
            break
    return X


def _level_gather(
    order: np.ndarray,
    bounds: np.ndarray,
    nbrs: np.ndarray,
    seeds: np.ndarray,
    blocked: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """The forward _level_sweep from the seeds diag(seeds), entry by entry.

    Level by level along the index of _Quotient.level_index, each entry
    (t, s) at distance d sums the flow of t's neighbours in column s.
    Only entries at distance d - 1 hold any yet: farther ones are still
    zero, and the padding row always is.  The flow of an entry is its
    count, times weights[t] from level 1 on (a source counts once).
    Blocked nodes leave the neighbour table, so nothing flows through
    them, and their counts are zeroed at the end.
    """
    q = len(seeds)
    F = np.zeros((q + 1) * q)  # the flow; row q is the padding
    F[: q * q : q + 1] = seeds
    if blocked is not None:
        nbrs = np.where(np.append(blocked, False)[nbrs // q], q * q, nbrs)
    X = F if weights is None else F[: q * q].copy()
    for lo, hi in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
        at = order[lo:hi]
        t = at // q
        s = at - t * q
        vals = F.take(nbrs[0].take(t) + s)
        for row in nbrs[1:]:
            vals += F.take(row.take(t) + s)
        X[at] = vals
        if weights is not None:
            F[at] = vals * weights[t]
    X = X[: q * q].reshape(q, q)
    if blocked is not None:
        X[blocked] = 0.0
    return X


def _check_bytes(need: int, what: str) -> None:
    """Refuse, with CapExceededError, arrays of need bytes over _BYTES_CAP."""
    if need > _BYTES_CAP:
        raise CapExceededError(
            f"{what} need about {need / 2**20:.0f} MiB, above the {_BYTES_CAP / 2**20:.0f} MiB cap",
            need,
        )


def _quotient(g: Graph) -> _Quotient:
    if g._quotient is None:
        g._quotient = _Quotient(g)
    return g._quotient


def apsp(g: Graph) -> PathCounts:
    """Path counts by the level DP sigma(s, t) = sum of sigma(s, w) over
    neighbors w of t one hop closer, over the twin quotient.  The sparse
    sweep finds the distances in the same pass; the gather reads them
    from _bit_bfs, or on thin graphs from scipy's Dijkstra, run when
    the quotient is built (see _Quotient.gathers and bitwise).  Between
    members of distinct classes the distance is the quotient's, and
    sigma the quotient's path count with each interior class weighted
    by its size.  Two true twins are at distance 1 with sigma 1, two false
    twins at distance 2 with sigma their degree.  The counts are
    integers, exact in doubles below 2**53, so they equal a sweep over
    the whole graph bit for bit.  A graph whose class-space arrays
    would need more than _BYTES_CAP bytes raises CapExceededError
    before any of them is built.  A count that overflows raises it
    before any n x n array is built, and so does a graph whose n x n
    dist and sigma, with the level index, would need more than
    _BYTES_CAP bytes.  Computed once per graph: g keeps the
    bare read-only arrays, not this PathCounts, which points back at g."""
    if g._counts is None:
        qt = _quotient(g)
        with np.errstate(over="ignore"):  # overflow is refused just below
            counts = qt.sweep()
        if not np.isfinite(counts).all():
            raise CapExceededError(
                "shortest-path counts overflow double precision "
                f"({g.n} nodes, {qt.q} twin classes)",
                float("inf"),
            )
        index = 0 if qt._index is None else sum(a.nbytes for a in qt._index)
        # int64 dist and float64 sigma
        _check_bytes(16 * g.n * g.n + index, f"path counts of {g.n} nodes")
        sigma = qt.expand(counts, 1.0)
        dist = qt.dist if qt.identity else qt.expand(qt.dist + np.diag(qt.within), 0)
        dist.setflags(write=False)
        sigma.setflags(write=False)
        g._counts = (dist, sigma)
    return PathCounts(g, *g._counts)


def on_shortest_path(pc: PathCounts, s: int, v: int, t: int) -> bool:
    """True iff v lies on at least one shortest s-t path (endpoints count)."""
    for x in (s, v, t):
        _check_node(pc.graph, x)
    return bool(pc.dist[s, v] + pc.dist[v, t] == pc.dist[s, t])


def enumerate_shortest_paths(
    g: Graph, s: int, t: int, cap: int = 1_000_000
) -> list[list[int]]:
    """All shortest s-t paths as node-id sequences, lexicographically sorted.

    Reads apsp(g).  For small graphs and cross-checks only; refuses to
    expand more than `cap` paths.
    """
    _check_node(g, s)
    _check_node(g, t)
    pc = apsp(g)
    total = float(pc.sigma[s, t])
    if total > cap:
        raise CapExceededError(
            f"{total:.0f} shortest paths between {s} and {t} exceed cap {cap}", total
        )
    dist = pc.dist
    goal = dist[s, t]
    out: list[list[int]] = []
    path = [s]
    # depth-first with an explicit stack: todo[i] holds the next hops
    # from path[i] still to try, descending, so that popping them gives
    # the paths in lexicographic order
    todo: list[list[int]] = []
    while True:
        u = path[-1]
        if u == t:
            out.append(list(path))
            path.pop()
        else:
            du = dist[s, u]
            todo.append(
                [w for w in reversed(g.adj[u])
                 if dist[s, w] == du + 1 and dist[w, t] == goal - du - 1]
            )
        while todo and not todo[-1]:
            todo.pop()
            path.pop()
        if not todo:
            return out
        path.append(todo[-1].pop())


def _load_document(text: str):
    """Split a graph document into (edges, costs or None, budget or None).

    edges are the arguments of Graph._from_labels: the flat label list,
    the labels of edge i at 2 i and 2 i + 1, and its distinct labels or
    None.  JSON endpoints must be strings or integers, and JSON costs
    numbers.
    """
    head = text.lstrip()
    if not head:
        raise FormatError("empty graph document")
    if head[0] == "{":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "edges" not in doc:
            raise FormatError("JSON instance must be an object with an 'edges' list")
        raw = doc["edges"]
        if not isinstance(raw, list):
            raise FormatError("'edges' must be a list of [u, v] pairs")
        flat = labels = None
        if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
            flat = list(chain.from_iterable(raw))
            labels = _distinct_str(flat)
        if labels is None and (flat is None or not set(map(type, flat)) <= {str, int}):
            for item in raw:
                if not (type(item) is list and len(item) == 2):
                    raise FormatError(f"bad edge record {item!r}")
                if not {type(item[0]), type(item[1])} <= {str, int}:
                    raise FormatError(
                        f"bad edge record {item!r}: endpoints must be strings or integers"
                    )
        costs = doc.get("costs")
        if costs is not None:
            if not isinstance(costs, dict):
                raise FormatError("'costs' must be an object of label: number")
            if not set(map(type, costs.values())) <= {int, float}:
                for lab, val in costs.items():
                    if type(val) not in (int, float):  # bool, null, strings, ...
                        raise FormatError(f"cost for {lab!r} is not a number")
        budget = doc.get("budget")
        if budget is not None and (
            not isinstance(budget, (int, float)) or isinstance(budget, bool)
        ):
            raise FormatError("'budget' must be a number")
        return (flat, labels), costs, budget
    flat = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        flat += parts
    return (flat, None), None, None


def parse_graph(text: str) -> Graph:
    """Build a Graph from an edge-list or JSON document.

    Edge-list lines hold two whitespace-separated labels; '#' starts a
    comment.  The JSON form is {"edges": [[u, v], ...], ...}, each
    endpoint a string or an integer (read as its decimal string), with
    optional "costs" and "budget" keys that are ignored here.
    """
    edges, _, _ = _load_document(text)
    return Graph._from_labels(*edges)


def parse_costs(text: str, g: Graph) -> np.ndarray:
    """Read a 'label cost' per line file into a cost vector.

    Absent labels default to 1.0.
    """
    mapping: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'label cost', got {raw!r}")
        try:
            val = float(parts[1])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad cost {parts[1]!r}") from exc
        mapping[parts[0]] = val
    return cost_array(g, mapping)


def cost_array(g: Graph, mapping: Mapping[str, float]) -> np.ndarray:
    """The cost vector of g: mapping[label] for each label it names
    (labels are read as str(label)), 1.0 for the others.  Raises for
    the first bad entry in mapping order: UnknownLabelError for a label
    not in g, FormatError for a cost that is not a finite nonnegative
    real number."""
    labs = list(mapping)
    if set(map(type, labs)) - {str}:
        labs = list(map(str, labs))
    vals = list(mapping.values())
    ids = np.fromiter(map(g.id_of.get, labs, repeat(-1)), dtype=np.int64, count=len(labs))
    arr = np.ones(g.n, dtype=np.float64)
    if all(issubclass(t, numbers.Real) for t in set(map(type, vals))):
        with contextlib.suppress(OverflowError):  # an int beyond the doubles: refused below
            costs = np.fromiter(vals, dtype=np.float64, count=len(vals))
            if (ids >= 0).all() and (np.isfinite(costs) & (costs >= 0)).all():
                arr[ids] = costs
                return arr
    for lab, v, val in zip(labs, ids.tolist(), vals):
        if v < 0:
            raise UnknownLabelError(f"cost entry for unknown label {lab!r}")
        if not (isinstance(val, numbers.Real) and _finite_nonnegative(val)):
            raise FormatError(f"cost for {lab!r} must be finite and nonnegative")
        arr[v] = float(val)
    return arr


def _finite_nonnegative(val: numbers.Real) -> bool:
    try:
        return math.isfinite(val) and val >= 0
    except OverflowError:  # an int beyond the doubles
        return False


def parse_instance(
    text: str, costs_text: str | None = None, budget: float | None = None
) -> CostedInstance:
    """Assemble a CostedInstance from document text plus optional overrides.

    Explicit arguments win over values embedded in a JSON document.
    """
    edges, jcosts, jbudget = _load_document(text)
    g = Graph._from_labels(*edges)
    if costs_text is not None:
        cost = parse_costs(costs_text, g)
    elif jcosts is not None:
        cost = cost_array(g, jcosts)
    else:
        cost = np.ones(g.n, dtype=np.float64)
    b = budget if budget is not None else jbudget
    if b is None:
        raise FormatError("no budget given (flag or JSON 'budget' key required)")
    b = float(b)
    if not (np.isfinite(b) and b >= 0):
        raise FormatError("budget must be finite and nonnegative")
    return CostedInstance(g, cost, b)


def to_instance_json(
    g: Graph, cost: np.ndarray | None = None, budget: float | None = None
) -> str:
    """Serialize a graph (plus optional costs and budget) to the JSON instance format."""
    doc: dict = {
        "edges": [[g.labels[u], g.labels[v]] for u, v in g.edge_list],
    }
    if cost is not None:
        doc["costs"] = {g.labels[v]: float(cost[v]) for v in range(g.n)}
    if budget is not None:
        doc["budget"] = float(budget)
    return json.dumps(doc)
