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
the gather's come from the quotient's bit-parallel breadth-first search
or, on thin graphs, scipy's Dijkstra.

The incremental oracle, GbcOracle, is the candidate-space oracle of
Puzis, Elovici and Dolev (Phys. Rev. E 76, 2007) over a pool of c
nodes, every node unless its caller names a pool.  It keeps the
diagonal of the path betweenness, which a gain reads, and the members'
columns, which an addition replays, O(k c) for k members.  The empty
group's diagonal comes from n x n masks per pool node for small pools,
which give the columns too, and for large ones from one reverse level
sweep (Brandes' dependency accumulation) over the whole graph, which
stays on the sparse product, with each column built from the masks on
first use; _SLAB_COST holds the rule and its measurement.
Nothing here ever enumerates paths.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from .errors import ConsistencyError, ContractViolationError
from .graph import Graph, PathCounts, _check_bytes, _check_node, _level_sweep, _quotient

__all__ = [
    "gbc_direct",
    "gbc_modified",
    "GbcOracle",
    "brandes_bc",
]

# Relative slack for clamping float dust in the avoiding-path bookkeeping.
_CLAMP_REL = 1e-6

# A pool of c nodes takes its diagonal from _diag_slab when _SLAB_COST *
# c * n < levels * (nnz + n), and from _diag_sweep otherwise; nnz is the
# graph's and levels one more than apsp's largest class distance.  The
# sides are the slab's c n x n masks and the sweep's per-level products
# over n columns.  Slab over sweep time, best of 3 with one BLAS thread on
# a 2-core x86-64 machine, random pools at x = c n / (levels (nnz + n)):
# gen_random(120, 14/119) 0.90 at x = 0.15 (c = 9) and 3.6 at 0.50 (c =
# 30); gen_random(300, 8/299) 0.34 at 0.16 and 1.3 at 0.54; a 200-node
# path 0.18 at 0.05 and 0.40 at 0.10; a 15x15 grid 0.68 at 0.22 and 1.6
# at 0.44; a 128-node random tree 0.40 at 0.15 and 1.7 at 0.50;
# gen_tight(2) 0.26 at 0.028 (c = 9) and 1.0 at 0.095; gen_tight(3) 0.16
# at 0.021 (c = 9), 0.66 at 0.069 and 1.7 at 0.14.  The crossover lies
# between x = 0.09 and 0.4; the constant puts it at 1/7.
_SLAB_COST = 7


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
        bad = ContractViolationError("essential pairs must be (source, target) id pairs")
        for pair in pairs:
            try:
                s, t = pair
            except (TypeError, ValueError):  # not a record of two
                raise bad from None
            _check_node(g, s)
            _check_node(g, t)
        raise bad
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
    """The candidate space of an oracle and its empty-group data,
    read-only and shared by copies.

    ids are the sorted pool nodes, and at[v] is node v's position among
    them, or -1 outside the pool.  dist and sigma are c x c over the
    pool, apsp's own for a pool of every node.  diag is the diagonal of
    the empty group's path betweenness, and column(m) its column m:
    _diag_slab gives every column with the diagonal, and on a pool that
    took _diag_sweep each is computed on first use, into a store that
    copies share.
    """

    __slots__ = ("pc", "ids", "at", "dist", "sigma", "diag", "_columns")

    def __init__(self, pc: PathCounts, pool):
        n = pc.n
        ids = np.unique(_node_ids(pc.graph, list(range(n) if pool is None else pool)))
        self.pc, self.ids = pc, ids
        self.at = np.full(n, -1, dtype=np.int64)
        self.at[ids] = np.arange(len(ids))
        if len(ids) == n:
            self.dist, self.sigma = pc.dist, pc.sigma
        else:
            grid = np.ix_(ids, ids)
            self.dist, self.sigma = pc.dist[grid], pc.sigma[grid]
        if _pb_sweeps(pc, len(ids)):
            self.diag, self._columns = _diag_sweep(pc, ids), {}
        else:
            columns = _diag_slab(pc, ids)
            self.diag, self._columns = np.diagonal(columns).copy(), dict(enumerate(columns))
        for a in (self.ids, self.at, self.dist, self.sigma, self.diag, *self._columns.values()):
            a.setflags(write=False)

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """Pool positions of an array of checked node ids."""
        at = self.at[ids]
        if len(at) and at.min() < 0:
            raise ContractViolationError(f"node {ids[at < 0][0]} is not in the pool")
        return at

    def column(self, m: int) -> np.ndarray:
        """The empty group's path betweenness PB[:, m] over the pool."""
        col = self._columns.get(m)
        if col is None:
            col = _pb_column(self.pc, self.ids, int(self.ids[m]))
            col.setflags(write=False)
            self._columns[m] = col
        return col


def _pb_sweeps(pc: PathCounts, c: int) -> bool:
    """Whether a pool of c nodes takes its diagonal from _diag_sweep, not
    _diag_slab, by the rule that _SLAB_COST's comment states."""
    n, nnz = pc.n, pc.graph.csr().nnz
    levels = _quotient(pc.graph).top + 1
    return _SLAB_COST * c * n >= levels * (nnz + n)


def _pb_column(pc: PathCounts, ids: np.ndarray, w: int) -> np.ndarray:
    """The empty group's path betweenness PB[u, w] at the pool nodes u.

    PB[u, w] is the sum of sigma(x, u) sigma(u, w) sigma(w, y) / sigma(x, y)
    over the ordered pairs (x, y) with d(x, u) + d(u, w) + d(w, y) = d(x, y):
    the x-y pairs' fraction of shortest paths that meet u and then w.  The
    condition says u lies on a shortest x-w path and w on a shortest x-y
    path, so PB[u, w] = sigma(u, w) * sum_x [u on a shortest x-w path]
    sigma(x, u) G[w, x], where G[w, x] = sum_y [w on a shortest x-y path]
    sigma(w, y) / sigma(x, y).  PB is symmetric, as reversing a path
    swaps the order of u and w, and PB[w, w] = sum_x G[w, x] sigma(x, w)
    is w's value plus the 1 of the pair (w, w).

    O(n (n + c)): G's row w from one n x n mask and the column from one
    n x c mask, each times a vector.  _check_bytes refuses temporaries
    of about 17 n (n + c) bytes over the cap before any is built.
    """
    d, sigma = pc.dist, pc.sigma
    n, c = pc.n, len(ids)
    _check_bytes(17 * n * (n + c), f"a path-betweenness column over {n} nodes")
    dx, sx = (d, sigma) if c == n else (d[:, ids], sigma[:, ids])
    g = ((d[:, w, None] + d[w] == d) / sigma) @ sigma[w]  # G[w, x]
    # [ids[i] lies on a shortest x-w path] sigma(x, ids[i]), at (x, i)
    return (g @ np.where(dx + d[w, ids] == d[:, w, None], sx, 0.0)) * sigma[ids, w]


def _diag_slab(pc: PathCounts, ids: np.ndarray) -> np.ndarray:
    """The empty group's path betweenness over the pool, row j its column j."""
    return np.stack([_pb_column(pc, ids, w) for w in ids.tolist()])


def _diag_sweep(pc: PathCounts, ids: np.ndarray) -> np.ndarray:
    """The diagonal of the empty group's path betweenness over the pool
    from one reverse level sweep, O(levels (nnz + n) n): column x, rooted
    at x and seeded with 1 / sigma(x, y) at each y, sums at w the seeds
    below w times the sigma(w, y) paths down to them, which is G[w, x]
    (Brandes' dependency accumulation), and PB[w, w] = sum_x G[w, x]
    sigma(x, w)."""
    sigma = pc.sigma
    G = _level_sweep(pc.graph.csr(), pc.dist, 1.0 / sigma, reverse=True)
    if len(ids) < pc.n:
        G, sigma = G[ids], sigma[ids]
    return np.einsum("ij,ij->i", G, sigma)


def _clamp(T: np.ndarray, ref: np.ndarray) -> None:
    """Zero float dust below 0 in T, a count that only decreases from ref."""
    neg = T < 0.0
    if neg.any():
        if bool((-T[neg] > _CLAMP_REL * ref[neg]).any()):
            raise ConsistencyError("avoiding-path counts went negative beyond tolerance")
        T[neg] = 0.0


def _ratio(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """P / S, and zero where S is zero."""
    return np.divide(P, S, out=np.zeros(P.shape), where=S > 0.0)


class GbcOracle:
    """Incremental GBC evaluator over a growing member set.

    It is the candidate-space oracle of Puzis, Elovici and Dolev (Phys.
    Rev. E 76, 2007), over a pool of c nodes: GbcOracle(pc) pools every
    node, as greedy_unit and greedy_ratio need, and GbcOracle(pc, pool)
    only the given ones, as the subset walk of solve_exact and
    greedy_modified needs.  It prices and adds pool nodes only.

    Their update keeps sigma_tilde, the shortest-path counts that avoid
    every member, and PB, the member-avoiding path betweenness (see
    _pb_column), as c x c matrices.  A gain reads only the diagonal,
    PB[v, v] - 1, and adding m lowers each PB[u, u] by 2 PB[u, m].  So
    the oracle keeps the diagonal, 1 at a member, and per member the
    columns of sigma_tilde and PB it read when it joined; add() rebuilds
    the new member's columns from those (_replay) in O(k c) for k
    members.  copy() copies the diagonal and shares the stored columns,
    which add() replaces and never writes.

    add() is the only mutator.  gain() and gains() only read, so
    concurrent readers of one oracle are safe; an add() needs exclusive
    access.
    """

    __slots__ = ("pc", "base_value", "_pool", "_diag", "_members", "_counts", "_ratios")

    def __init__(self, pc: PathCounts, pool=None):
        self.pc = pc
        self.base_value = 0.0
        self._pool = _Pool(pc, pool)
        self._diag = self._pool.diag.copy()
        self._members: tuple[int, ...] = ()  # pool positions, in join order
        # per member m, sigma_tilde[:, m] and PB[:, m] / sigma_tilde[:, m] as m joined
        self._counts = self._ratios = np.empty((0, len(self._diag)))

    def copy(self) -> "GbcOracle":
        dup = object.__new__(GbcOracle)
        dup.pc = self.pc
        dup.base_value = self.base_value
        dup._pool = self._pool
        dup._diag = self._diag.copy()
        dup._members = self._members
        dup._counts, dup._ratios = self._counts, self._ratios
        return dup

    @property
    def value(self) -> float:
        return self.base_value

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._pool.ids[list(self._members)].tolist()))

    def gain(self, v: int) -> float:
        """GBC(members + v) - GBC(members); zero for an existing member."""
        return float(self.gains([v])[0])

    def gains(self, candidates) -> np.ndarray:
        """gain() of every candidate, in order; members score 0."""
        at = self._pool.positions(_node_ids(self.pc.graph, list(candidates)))
        return self._diag[at] - 1.0

    def add(self, v: int) -> float:
        """Insert v, update the diagonal, and return the gain."""
        _check_node(self.pc.graph, v)
        m = int(self._pool.at[v])
        if m < 0:
            raise ContractViolationError(f"node {v} is not in the pool")
        if m in self._members:
            raise ContractViolationError(f"node {v} is already a member")
        counts, pb = self._replay(m)
        gain = float(self._diag[m]) - 1.0
        self._diag -= 2.0 * pb
        self._diag[m] = 1.0
        self._members += (m,)
        self._counts = np.concatenate((self._counts, counts[None]))
        self._ratios = np.concatenate((self._ratios, _ratio(pb, counts)[None]))
        self.base_value += gain
        return gain

    def _replay(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Columns m of sigma_tilde and PB at the current members.

        Adding member j at position m_j takes from each count
        sigma_tilde[u, m] the paths through m_j, and from PB[u, m] those
        that meet m_j before u (lead), after m (trail) or between them,
        the last in the count's share.  So PB / s, for s_j the counts
        before step j, falls by (s_j / s_(j+1)) (lead + trail), and one
        cumulative sum gives every s_j.  Step j reads m_j's columns at u
        and at m, as both matrices are symmetric.  Members' rows are 0.
        """
        pool, members = self._pool, list(self._members)
        s0, pb0 = pool.sigma[m], pool.column(m)
        if not members:
            return s0, pb0
        A, R = self._counts, self._ratios  # at (j, u)
        D, dm = pool.dist[members], pool.dist[m]
        a, r, d = A[:, m, None], R[:, m, None], D[:, m, None]  # at (j, m)
        through = np.where(D + d == dm, A * a, 0.0)  # u, m_j, m
        after = s0 - np.cumsum(through, axis=0)
        lead = np.where(D + dm == d, r * A, 0.0)  # m_j, u, m
        trail = np.where(dm + d == D, R * a, 0.0)  # u, m, m_j
        steps = _ratio(np.concatenate((s0[None], after[:-1])), after) * (lead + trail)
        counts = after[-1]
        _clamp(counts, s0)
        pb = (pb0 / s0 - steps.sum(axis=0)) * counts
        _clamp(pb, pb0)
        counts[members] = pb[members] = 0.0
        return counts, pb


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
