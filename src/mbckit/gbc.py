"""Group betweenness centrality.

All values use the ordered-pair convention: both (s, t) and (t, s)
count, and a shortest path contains its endpoints.  Consequently
GBC(V) = n(n-1), GBC({v}) = brandes_bc(v) + 2(n-1), and the value of
any group lies in [0, n(n-1)].

The direct evaluators count paths that avoid the group with the same
forward level sweep over the twin quotient that `apsp` uses for sigma
(Puzis, Zilberman, Elovici, Dolev and Brandes 2012).  There the
interior weight of a class is its number of non-members, so a class of
members only is blocked, and the group needs no finer partition.
gbc_direct reads the counts out to n x n and sums their ratios to
sigma; gbc_modified reads only its pairs.  The sweep runs on the
kernel that `apsp` runs on: the sparse product per level, or, on
high-diameter graphs, the level-indexed gather that fills each entry
once (graph._GATHER_COST holds the rule and its measurement).  Both
give the same integer counts, and both read the distances that `apsp`
found: only its unblocked sparse sweep finds levels as it counts, since
a blocked node can delay an entry's first flow past its distance, and
the gather's come from scipy's Dijkstra.

The incremental oracle, GbcOracle, is the candidate-space oracle of
Puzis, Elovici and Dolev (Phys. Rev. E 76, 2007) over a pool of c
nodes, every node unless its caller names a pool.  It keeps two c x c
matrices, the member-avoiding counts and the pairwise path
betweenness, so a gain is a diagonal read and an addition costs
O(c^2).  The path betweenness is built once, from n x n masks per pool
node for small pools, and for large ones from two reverse level sweeps
(Brandes' dependency accumulation) over the whole graph, which stay on
the sparse product; _SLAB_COST holds the rule and its measurement.
Nothing here ever enumerates paths.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from .errors import ConsistencyError, ContractViolationError
from .graph import Graph, PathCounts, _check_node, _level_sweep, _quotient

__all__ = [
    "gbc_direct",
    "gbc_modified",
    "GbcOracle",
    "brandes_bc",
]

# Relative slack for clamping float dust in the avoiding-path bookkeeping.
_CLAMP_REL = 1e-6

# _path_betweenness runs the slab when _SLAB_COST * c * n^2 < levels *
# (nnz + n) * (n + c), and the two reverse sweeps otherwise; c is the
# pool size, nnz the graph's and levels one more than apsp's largest
# class distance.  The sides are the slab's n x n mask entries and the
# sweeps' per-level products over n + c columns.  Slab over sweep time,
# best of 3 to 5 on a 2-core x86-64 machine, at x = c n^2 / (levels
# (nnz + n) (n + c)): gen_random(120, 14/119) 0.73 at x = 0.14 (c = 9)
# and 2.3 at 0.40 (c = 30); gen_random(300, 8/299) 0.55 at 0.15 and
# 1.19 at 0.30; a 200-node path 0.63 at 0.11 and 2.5 at 0.17; a 15x15
# grid 0.35 at 0.10 and 1.8 at 0.33; a 128-node random tree 0.35 at
# 0.17 and 1.23 at 0.51; gen_tight(2) 0.27 at 0.027 (c = 9) and 1.13 at
# 0.096; gen_tight(3) 0.20 at 0.020 (c = 9), 0.49 at 0.045 and 3.4 at
# 0.16.  Every pool of every node took the sweep, 2.5 to 35 times
# faster.  The crossover lies between x = 0.05 and 0.4; the constant
# puts it at 1/7.
_SLAB_COST = 7

# _pool_add updates the path betweenness in row blocks of at most this
# many entries, so a large pool's temporaries stay near 8 MB each; a
# pool of up to 1024 nodes takes one block.
_ADD_ENTRIES = 1 << 20


def _node_ids(g: Graph, nodes: list) -> np.ndarray:
    """The ids of nodes as int64, every id checked as _check_node checks
    one, in array passes.  Only a failing list is scanned id by id, to
    name the first bad id."""
    types = set(map(type, nodes))
    if all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types):
        with contextlib.suppress(OverflowError):  # an id beyond int64: refused below
            ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
            if not len(ids) or (0 <= ids.min() and ids.max() < g.n):
                return ids
    for v in nodes:
        _check_node(g, v)
    return np.fromiter(nodes, dtype=np.int64, count=len(nodes))


def _member_mask(pc: PathCounts, group) -> np.ndarray:
    mask = np.zeros(pc.n, dtype=bool)
    mask[_node_ids(pc.graph, list(group))] = True
    return mask


def _avoiding_counts(pc: PathCounts, blocked: np.ndarray) -> np.ndarray:
    """Number of shortest x-y paths meeting no blocked node, per ordered pair.

    Pairs with a blocked endpoint count zero (a path contains its
    endpoints).  The counts are symmetric, so either orientation of the
    result serves.
    """
    qt = _quotient(pc.graph)
    F = qt.expand(qt.sweep(blocked), ~blocked)
    if not qt.identity:  # else the sweep left them zero
        F[blocked] = 0.0
        F[:, blocked] = 0.0
    return F


def gbc_direct(pc: PathCounts, group) -> float:
    """GBC of a node set: sum over ordered pairs s != t of the fraction
    of shortest s-t paths containing at least one group member."""
    blocked = _member_mask(pc, group)
    if not blocked.any():
        return 0.0
    n = pc.n
    F = _avoiding_counts(pc, blocked)
    ratio = F / pc.sigma
    covered = n * (n - 1) - (float(ratio.sum()) - float(np.trace(ratio)))
    return float(covered)


def _pair_ids(g: Graph, pairs: list) -> tuple[np.ndarray, np.ndarray]:
    """Source and target id arrays of ordered pairs, every id checked by
    _node_ids."""
    try:
        P = np.asarray(pairs)
    except ValueError:  # ragged records
        P = None
    if P is None or P.ndim != 2 or P.shape[1] != 2:
        for s, t in pairs:
            _check_node(g, s)
            _check_node(g, t)
        raise ContractViolationError("essential pairs must be (source, target) id pairs")
    ids = _node_ids(g, list(itertools.chain.from_iterable(pairs)))
    return ids[0::2], ids[1::2]


def gbc_modified(pc: PathCounts, essential_pairs, group) -> float:
    """GBC restricted to the given ordered node pairs."""
    pairs = list(essential_pairs)
    if not pairs:
        return 0.0
    ss, tt = _pair_ids(pc.graph, pairs)
    if (ss == tt).any():
        raise ContractViolationError("essential pairs must have distinct endpoints")
    blocked = _member_mask(pc, group)
    if not blocked.any():
        return 0.0
    qt = _quotient(pc.graph)
    F = qt.sweep(blocked)[qt.cls[ss], qt.cls[tt]]
    F[blocked[ss] | blocked[tt]] = 0.0
    vals = 1.0 - F / pc.sigma[ss, tt]
    return float(vals.sum())


class _Pool:
    """The candidate space of an oracle, read-only and shared by copies.

    The pool nodes are sorted, and at[v] is node v's position among
    them, or -1 outside the pool.  dist, sigma and pb are c x c over the
    pool: hop distances, path counts and the path betweenness of the
    empty group.  A pool of every node shares apsp's dist and sigma.
    """

    __slots__ = ("at", "dist", "sigma", "pb")

    def __init__(self, pc: PathCounts, pool):
        n = pc.n
        ids = np.unique(_node_ids(pc.graph, list(range(n) if pool is None else pool)))
        self.at = np.full(n, -1, dtype=np.int64)
        self.at[ids] = np.arange(len(ids))
        if len(ids) == n:
            self.dist, self.sigma = pc.dist, pc.sigma
        else:
            grid = np.ix_(ids, ids)
            self.dist, self.sigma = pc.dist[grid], pc.sigma[grid]
        self.pb = _path_betweenness(pc, ids)
        for a in (self.at, self.dist, self.sigma, self.pb):
            a.setflags(write=False)

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """Pool positions of an array of checked node ids."""
        at = self.at[ids]
        if len(at) and at.min() < 0:
            raise ContractViolationError(f"node {ids[at < 0][0]} is not in the pool")
        return at


def _path_betweenness(pc: PathCounts, ids: np.ndarray) -> np.ndarray:
    """PB[i, j] for the pool nodes u = ids[i] and w = ids[j].

    PB[u, w] is the sum of sigma(x, u) sigma(u, w) sigma(w, y) / sigma(x, y)
    over the ordered pairs (x, y) with d(x, u) + d(u, w) + d(w, y) = d(x, y):
    the x-y pairs' fraction of shortest paths that meet u and then w.  The
    condition says u lies on a shortest x-w path and w on a shortest x-y
    path, so PB[u, w] = sigma(u, w) * sum_x [u on a shortest x-w path]
    sigma(x, u) G[w, x], where G[w, x] = sum_y [w on a shortest x-y path]
    sigma(w, y) / sigma(x, y).  _pb_slab and _pb_sweep compute it, as
    _pb_sweeps chooses.
    """
    return (_pb_sweep if _pb_sweeps(pc, len(ids)) else _pb_slab)(pc, ids)


def _pb_sweeps(pc: PathCounts, c: int) -> bool:
    """Whether _path_betweenness over c pool nodes runs _pb_sweep (see
    _SLAB_COST); levels is one more than the largest class distance
    that apsp found."""
    n, nnz = pc.n, pc.graph.csr().nnz
    levels = _quotient(pc.graph).top + 1
    return _SLAB_COST * c * n * n >= levels * (nnz + n) * (n + c)


def _pb_slab(pc: PathCounts, ids: np.ndarray) -> np.ndarray:
    """_path_betweenness from n x n masks per pool node: G's pool rows in
    O(c n^2) and PB in O(c^2 n), each in slabs held under 16M entries."""
    d, sigma = pc.dist, pc.sigma
    n, c = pc.n, len(ids)
    inv = 1.0 / sigma
    G = np.empty((c, n))
    step = max(1, 16_000_000 // (n * n))
    for lo in range(0, c, step):
        ws = ids[lo : lo + step]
        on = (d[:, ws].T[:, :, None] + d[ws][:, None, :]) == d
        G[lo : lo + step] = np.einsum("jxy,jy->jx", np.where(on, inv, 0.0), sigma[ws])
    dx, sx = d[:, ids], sigma[:, ids]
    PB = np.empty((c, c))
    step = max(1, 16_000_000 // (n * max(1, c)))
    for lo in range(0, c, step):
        ws = ids[lo : lo + step]
        # on[j, x, i]: ids[i] lies on a shortest x-ws[j] path
        on = (dx[None, :, :] + d[np.ix_(ws, ids)][:, None, :]) == d[:, ws].T[:, :, None]
        PB[:, lo : lo + step] = np.einsum("jxi,jx->ij", np.where(on, sx, 0.0), G[lo : lo + step])
    return PB * sigma[np.ix_(ids, ids)]


def _pb_sweep(pc: PathCounts, ids: np.ndarray) -> np.ndarray:
    """_path_betweenness from two reverse level sweeps, O(levels (nnz + n)
    (n + c)).

    The first sweep runs over all n columns, column x rooted at x and
    seeded with 1 / sigma(x, y) at each y.  Entry w then sums the seeds
    of the y below w, each times the sigma(w, y) paths down to it, which
    is G[w, x] (Brandes' dependency accumulation).  Column j of PB is
    sigma(u, w_j) H[u, j], where H[u, j] = sum_x [u on a shortest x-w_j
    path] sigma(x, u) G[w_j, x]: the second sweep, over the c pool
    columns, column j rooted at w_j and seeded with G[w_j, x] at x.
    """
    A, dist, sigma = pc.graph.csr(), pc.dist, pc.sigma
    G = _level_sweep(A, dist, 1.0 / sigma, reverse=True)
    every = len(ids) == pc.n  # then PB is H * sigma, formed in place
    H = np.ascontiguousarray((G if every else G[ids]).T)
    del G
    _level_sweep(A, dist if every else dist[:, ids], H, reverse=True)
    if every:
        H *= sigma
        return H
    return H[ids] * sigma[np.ix_(ids, ids)]


def _clamp(T: np.ndarray, ref: np.ndarray) -> None:
    """Zero float dust below 0 in T, a count that only decreases from ref."""
    neg = T < 0.0
    if neg.any():
        if bool((-T[neg] > _CLAMP_REL * ref[neg]).any()):
            raise ConsistencyError("avoiding-path counts went negative beyond tolerance")
        T[neg] = 0.0


def _ratio(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """P / S, and zero where S is zero."""
    return np.divide(P, S, out=np.zeros_like(P), where=S > 0.0)


class GbcOracle:
    """Incremental GBC evaluator over a growing member set.

    It is the candidate-space oracle of Puzis, Elovici and Dolev (Phys.
    Rev. E 76, 2007), over a pool of c nodes: GbcOracle(pc) pools every
    node, as greedy_unit and greedy_ratio need, and GbcOracle(pc, pool)
    only the given ones, as the subset walk of solve_exact and
    greedy_modified needs.  It prices and adds pool nodes only, and
    keeps two c x c matrices over the sorted pool.  sigma_tilde[x, y]
    counts the shortest x-y paths that avoid every member; its diagonal
    entry stays 1 until the node itself joins (the zero-length path at
    w contains w), which makes the update product formula uniform for
    endpoint pairs.  _pb[u, w] is the member-avoiding path betweenness,
    the pairs' fraction of shortest paths that meet u and then w and
    avoid every member (see _path_betweenness).  _pb is built once, in
    O(c n^2) for small pools and O(levels (nnz + n) (n + c)) for large
    ones; then a gain is the diagonal read _pb[v, v] - 1, and add() and
    copy() cost O(c^2).

    add() is the only mutator.  gain() and gains() only read, so
    concurrent readers of one oracle are safe; an add() needs exclusive
    access.
    """

    __slots__ = ("pc", "_members", "sigma_tilde", "base_value", "_pool", "_pb")

    def __init__(self, pc: PathCounts, pool=None):
        self.pc = pc
        self._members: set[int] = set()
        self.base_value = 0.0
        self._pool = _Pool(pc, pool)
        self.sigma_tilde = self._pool.sigma.copy()
        self._pb = self._pool.pb.copy()

    def copy(self) -> "GbcOracle":
        dup = object.__new__(GbcOracle)
        dup.pc = self.pc
        dup._members = set(self._members)
        dup.sigma_tilde = self.sigma_tilde.copy()
        dup.base_value = self.base_value
        dup._pool = self._pool
        dup._pb = self._pb.copy()
        return dup

    @property
    def value(self) -> float:
        return self.base_value

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def gain(self, v: int) -> float:
        """GBC(members + v) - GBC(members); zero for an existing member."""
        return float(self.gains([v])[0])

    def gains(self, candidates) -> np.ndarray:
        """gain() of every candidate, in order; members score 0."""
        cands = list(candidates)
        at = self._pool.positions(_node_ids(self.pc.graph, cands))
        out = self._pb[at, at] - 1.0
        if self._members:
            out[[i for i, v in enumerate(cands) if v in self._members]] = 0.0
        return out

    def add(self, v: int) -> float:
        """Insert v, update the avoiding counts, and return the gain."""
        _check_node(self.pc.graph, v)
        m = int(self._pool.at[v])
        if m < 0:
            raise ContractViolationError(f"node {v} is not in the pool")
        if v in self._members:
            raise ContractViolationError(f"node {v} is already a member")
        gain = self._pool_add(m)
        self._members.add(v)
        self.base_value += gain
        return gain

    def _pool_add(self, m: int) -> float:
        """add() of the pool node at position m; returns its gain.

        The paths that meet u and then w lose those that also meet m,
        before u, between them or after w.  Each of the three counts is
        a PB entry times the share of its avoiding paths that take the
        detour through the third node.  Rows are updated in blocks of
        at most _ADD_ENTRIES entries, so a large pool's temporaries stay
        small; each later block reads row and column m as they were.
        """
        S, PB, D = self.sigma_tilde, self._pb, self._pool.dist
        gain = float(PB[m, m]) - 1.0
        c = len(S)
        step = max(1, _ADD_ENTRIES // c)
        Sm, Dm = S[:, m], D[:, m]
        if step < c:
            Sm = Sm.copy()
            Rm, Rcol = _ratio(PB[m], S[m]), _ratio(PB[:, m], Sm)
        for lo in range(0, c, step):
            rows = slice(lo, lo + step)
            Sb, Db, Sr, Dr = S[rows], D[rows], Sm[rows, None], Dm[rows, None]
            R = _ratio(PB[rows], Sb)
            if step >= c:
                Rm, Rcol = R[m], R[:, m]
            via = Dr + Dm[None, :] == Db  # u, m, w
            lead = Dr + Db == Dm[None, :]  # m, u, w
            trail = Db + Dm[None, :] == Dr  # u, w, m
            through = np.where(via, Sr * Sm[None, :], 0.0)
            PB[rows] -= (
                R * through
                + np.where(lead, Rm[None, :] * Sr * Sb, 0.0)
                + np.where(trail, Rcol[rows, None] * Sb * Sm[None, :], 0.0)
            )
            Sb -= through
        PB[m, :] = 0.0
        PB[:, m] = 0.0
        _clamp(S, self._pool.sigma)
        _clamp(PB, self._pool.pb)
        return gain


def brandes_bc(g: Graph) -> np.ndarray:
    """Single-node betweenness for every node, ordered pairs, endpoints
    excluded: the classic one-sweep-per-source accumulation."""
    from collections import deque

    n = g.n
    bc = np.zeros(n, dtype=np.float64)
    for s in range(n):
        sigma = [0] * n
        sigma[s] = 1
        dist = [-1] * n
        dist[s] = 0
        preds: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = [0.0] * n
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc
