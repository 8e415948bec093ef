"""Graph core: parsing, validation, and shortest-path counting.

Graphs are undirected, unweighted, simple, and connected.  Node ids are
dense integers assigned by first appearance in the edge list; the
original labels are kept for reporting.  All-pairs hop distances and
shortest-path counts are computed once per graph and shared read-only
by every solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    """Immutable undirected connected simple graph with dense node ids."""

    __slots__ = ("n", "m", "labels", "id_of", "adj", "edge_list", "_csr")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        id_of: dict[str, int] = {}
        pairs: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
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
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        self.n = n
        self.m = len(pairs)
        self.labels = tuple(lab for lab, _ in sorted(id_of.items(), key=lambda kv: kv[1]))
        self.id_of = id_of
        self.adj = adj
        self.edge_list = tuple(sorted(pairs))
        self._csr = None
        self._check_connected()

    def _check_connected(self) -> None:
        seen = [False] * self.n
        seen[0] = True
        frontier = [0]
        count = 1
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        count += 1
                        nxt.append(w)
            frontier = nxt
        if count != self.n:
            raise DisconnectedGraphError(
                f"graph is disconnected ({count} of {self.n} nodes reachable)"
            )

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> Sequence[int]:
        """Sorted neighbor ids of v. Callers must not mutate the list."""
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        a = self.adj[u]
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(a) and a[lo] == v

    def label(self, v: int) -> str:
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
        if self._csr is None:
            degrees = np.array([len(a) for a in self.adj], dtype=np.int64)
            indptr = np.concatenate([[0], np.cumsum(degrees)])
            indices = np.fromiter(
                (w for a in self.adj for w in a), dtype=np.int64, count=2 * self.m
            )
            data = np.ones(2 * self.m, dtype=np.float64)
            self._csr = sparse.csr_matrix((data, indices, indptr), shape=(self.n, self.n))
        return self._csr

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_node(g: Graph, v: int) -> None:
    if not (isinstance(v, (int, np.integer)) and 0 <= v < g.n):
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
    """All-pairs hop distances and shortest-path counts.

    dist[v, v] = 0 and sigma[v, v] = 1 (the empty path).  sigma is kept
    in doubles: counts can grow exponentially, and every consumer only
    ever forms ratios against it.
    """

    graph: Graph
    dist: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n


def _level_sweep(
    A: sparse.csr_matrix, dist: np.ndarray, X: np.ndarray, blocked: np.ndarray | None = None
) -> np.ndarray:
    """Forward level DP over the shortest-path DAGs, in place on X.

    Entries of X at distance 0 are the seeds.  Level by level,
    X[s, t] becomes the sum of X[s, w] over neighbors w of t one hop
    closer to s.  Columns in `blocked` are zeroed after every level, so
    no counted path enters a blocked node.
    """
    for d in range(1, int(dist.max()) + 1):
        prev = np.where(dist == d - 1, X, 0.0)
        contrib = (A @ prev.T).T
        at = dist == d
        X[at] = contrib[at]
        if blocked is not None:
            X[:, blocked] = 0.0
    return X


def apsp(g: Graph) -> PathCounts:
    """Distances by breadth-first search, path counts by the level DP
    sigma(s, t) = sum of sigma(s, w) over neighbors w of t one hop closer."""
    A = g.csr()
    dist = csgraph.shortest_path(A, method="D", unweighted=True, directed=False)
    dist = dist.astype(np.int64)
    sigma = _level_sweep(A, dist, np.eye(g.n))
    dist.setflags(write=False)
    sigma.setflags(write=False)
    return PathCounts(g, dist, sigma)


def on_shortest_path(pc: PathCounts, s: int, v: int, t: int) -> bool:
    """True iff v lies on at least one shortest s-t path (endpoints count)."""
    for x in (s, v, t):
        _check_node(pc.graph, x)
    return bool(pc.dist[s, v] + pc.dist[v, t] == pc.dist[s, t])


def enumerate_shortest_paths(
    g: Graph, s: int, t: int, pc: PathCounts | None = None, cap: int = 1_000_000
) -> list[list[int]]:
    """All shortest s-t paths as node-id sequences, lexicographically sorted.

    Intended for small graphs and cross-checks only; refuses to expand
    more than `cap` paths.
    """
    _check_node(g, s)
    _check_node(g, t)
    if pc is None:
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

    def walk(u: int) -> None:
        if u == t:
            out.append(list(path))
            return
        du = dist[s, u]
        for w in g.adj[u]:
            if dist[s, w] == du + 1 and dist[w, t] == goal - du - 1:
                path.append(w)
                walk(w)
                path.pop()

    walk(s)
    return out


def _load_document(text: str):
    """Split a graph document into (edge label pairs, costs or None, budget or None)."""
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
        pairs = []
        for item in raw:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise FormatError(f"bad edge record {item!r}")
            pairs.append((str(item[0]), str(item[1])))
        costs = doc.get("costs")
        if costs is not None:
            if not isinstance(costs, dict):
                raise FormatError("'costs' must be an object of label: number")
            clean = {}
            for lab, val in costs.items():
                if not isinstance(val, (int, float)) or isinstance(val, bool):
                    raise FormatError(f"cost for {lab!r} is not a number")
                clean[str(lab)] = float(val)
            costs = clean
        budget = doc.get("budget")
        if budget is not None and (
            not isinstance(budget, (int, float)) or isinstance(budget, bool)
        ):
            raise FormatError("'budget' must be a number")
        return pairs, costs, budget
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        pairs.append((parts[0], parts[1]))
    return pairs, None, None


def parse_graph(text: str) -> Graph:
    """Build a Graph from an edge-list or JSON document.

    Edge-list lines hold two whitespace-separated labels; '#' starts a
    comment.  The JSON form is {"edges": [[u, v], ...], ...} with
    optional "costs" and "budget" keys that are ignored here.
    """
    pairs, _, _ = _load_document(text)
    return Graph(pairs)


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
    arr = np.ones(g.n, dtype=np.float64)
    for lab, val in mapping.items():
        lab = str(lab)
        if lab not in g.id_of:
            raise UnknownLabelError(f"cost entry for unknown label {lab!r}")
        if not np.isfinite(val) or val < 0:
            raise FormatError(f"cost for {lab!r} must be finite and nonnegative")
        arr[g.id_of[lab]] = float(val)
    return arr


def parse_instance(
    text: str, costs_text: str | None = None, budget: float | None = None
) -> CostedInstance:
    """Assemble a CostedInstance from document text plus optional overrides.

    Explicit arguments win over values embedded in a JSON document.
    """
    pairs, jcosts, jbudget = _load_document(text)
    g = Graph(pairs)
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
