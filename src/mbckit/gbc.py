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
the gather's come from scipy's Dijkstra.  The reverse sweep of the
all-node oracle and the pool's path betweenness stay n x n, and the
reverse sweep stays on the sparse product.

The incremental oracle has two representations.  The all-node one,
behind greedy_unit and greedy_ratio, keeps the n x n member-avoiding
counts and has one pricing rule.  A pool of any size gets every node's
gain at once from the reverse level sweep (Brandes' dependency
accumulation over the member-avoiding counts), O(levels * m * n), and
that all-node vector is cached until the next addition.  A single
node with no cache gets the product of member-avoiding x-y paths
through it, O(n^2): the product that adding it subtracts.  The
candidate-space one, behind solve_exact and greedy_modified, keeps
c x c matrices over a pool of c nodes: the avoiding counts and the
pairwise path betweenness of Puzis, Elovici and Dolev (Phys. Rev. E
76, 2007), so a gain is a diagonal read and an addition costs O(c^2).
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
    """The candidate space of a pool oracle, read-only and shared by copies.

    ids holds the sorted pool nodes and at maps each one to its position.
    dist, sigma and pb are c x c over the pool: hop distances, path counts
    and the path betweenness of the empty group.
    """

    __slots__ = ("ids", "at", "dist", "sigma", "pb")

    def __init__(self, pc: PathCounts, pool):
        ids = sorted(set(pool))
        for v in ids:
            _check_node(pc.graph, v)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.at = {v: i for i, v in enumerate(ids)}
        grid = np.ix_(self.ids, self.ids)
        self.dist = pc.dist[grid]
        self.sigma = pc.sigma[grid]
        self.pb = _path_betweenness(pc, self.ids)
        for a in (self.dist, self.sigma, self.pb):
            a.setflags(write=False)

    def positions(self, nodes) -> np.ndarray:
        try:
            return np.array([self.at[v] for v in nodes], dtype=np.int64)
        except KeyError as exc:
            raise ContractViolationError(f"node {exc.args[0]} is not in the pool") from None


def _path_betweenness(pc: PathCounts, ids: np.ndarray) -> np.ndarray:
    """PB[i, j] for the pool nodes u = ids[i] and w = ids[j].

    PB[u, w] is the sum of sigma(x, u) sigma(u, w) sigma(w, y) / sigma(x, y)
    over the ordered pairs (x, y) with d(x, u) + d(u, w) + d(w, y) = d(x, y):
    the x-y pairs' fraction of shortest paths that meet u and then w.  The
    condition says u lies on a shortest x-w path and w on a shortest x-y
    path, so PB[u, w] = sigma(u, w) * sum_x [u on a shortest x-w path]
    sigma(x, u) G[w, x], where G[w, x] = sum_y [w on a shortest x-y path]
    sigma(w, y) / sigma(x, y).  G costs O(c n^2) and PB O(c^2 n), each
    in slabs held under 16M entries.
    """
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


def _clamp(T: np.ndarray, ref: np.ndarray) -> None:
    """Zero float dust below 0 in T, a count that only decreases from ref."""
    neg = T < 0.0
    if neg.any():
        if bool((-T[neg] > _CLAMP_REL * ref[neg]).any()):
            raise ConsistencyError("avoiding-path counts went negative beyond tolerance")
        T[neg] = 0.0


class GbcOracle:
    """Incremental GBC evaluator over a growing member set.

    sigma_tilde[x, y] counts the shortest x-y paths that avoid every
    member.  The diagonal entry stays 1 until the node itself joins
    (the zero-length path at w contains w), which makes the update
    product formula uniform for endpoint pairs.

    The oracle has two representations, chosen by its caller.

    GbcOracle(pc) keeps sigma_tilde over all n nodes and prices any
    node.  greedy_unit and greedy_ratio, whose pool is the whole graph,
    use it.  It has one pricing rule:

    * gains() always runs the reverse level sweep, _sweep_gains():
      D[v, x] is [v not a member] / sigma(x, v) plus the sum of D[w, x]
      over the successors w of v in the shortest-path DAG rooted at x,
      and zero for a member v.  Then gain(v) = sum_x sigma_tilde[x, v]
      * D[v, x] - 1, for every node at once in O(levels * m * n) time,
      where levels = diameter + 1.  The all-node vector is cached:
      later gains() and gain() calls read it, copy() shares it, and
      add() drops it.
    * gain(v) with no cache takes the through-v product, _through(v):
      the avoiding x-y paths through v, sigma_tilde[x, v] *
      sigma_tilde[v, y] wherever v lies on a shortest x-y path, O(n^2).
      add(v) subtracts the same product from sigma_tilde and returns
      the same gain.  A single node keeps the product because the
      sweep prices all n nodes to read one: pricing each single node by
      a sweep made `mbckit verify oracle`, which prices one node before
      every addition, 3 to 5 times slower on a 200-node path and a
      20x20 grid.

    GbcOracle(pc, pool) is the candidate-space oracle of Puzis, Elovici
    and Dolev (Phys. Rev. E 76, 2007).  It prices and adds only pool
    nodes, and keeps two c x c matrices over the c sorted pool nodes:
    sigma_tilde restricted to the pool, and the member-avoiding path
    betweenness _pb[u, w], the pairs' fraction of shortest paths that
    meet u and then w and avoid every member (see _path_betweenness).
    Building _pb costs O(c n^2) once; then a gain is the diagonal read
    _pb[v, v] - 1, and add() and copy() are O(c^2).  solve_exact and
    greedy_modified build their subset walk's root this way.

    add() is the only mutator of the member set and the counts.
    gains() may fill the cache, but it stores a finished read-only
    vector with one attribute assignment, so concurrent gain() and
    gains() calls on one oracle are safe: at worst two threads compute
    the same vector and the later store wins.  An uncached gain()
    stores nothing.  An add() needs exclusive access.
    """

    __slots__ = ("pc", "_members", "sigma_tilde", "base_value", "_gain_all", "_pool", "_pb")

    def __init__(self, pc: PathCounts, pool=None):
        self.pc = pc
        self._members: set[int] = set()
        self.base_value = 0.0
        self._gain_all: np.ndarray | None = None
        if pool is None:
            self._pool = self._pb = None
            self.sigma_tilde = pc.sigma.copy()
        else:
            self._pool = _Pool(pc, pool)
            self.sigma_tilde = self._pool.sigma.copy()
            self._pb = self._pool.pb.copy()

    def copy(self) -> "GbcOracle":
        dup = object.__new__(GbcOracle)
        dup.pc = self.pc
        dup._members = set(self._members)
        dup.sigma_tilde = self.sigma_tilde.copy()
        dup.base_value = self.base_value
        dup._gain_all = self._gain_all
        dup._pool = self._pool
        dup._pb = None if self._pb is None else self._pb.copy()
        return dup

    @property
    def value(self) -> float:
        return self.base_value

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def _through(self, v: int) -> tuple[np.ndarray, float]:
        """The member-avoiding shortest x-y paths through the non-member v,
        n x n, and v's gain."""
        d = self.pc.dist
        T = self.sigma_tilde
        on_path = (d[:, v, None] + d[v]) == d
        through = np.where(on_path, T[:, v, None] * T[v], 0.0)
        # (v, v) is no pair; its term is exactly 1 for a non-member v
        return through, float((through / self.pc.sigma).sum()) - 1.0

    def _sweep_gains(self) -> np.ndarray:
        """Every node's gain from one reverse level sweep; members score 0."""
        pc = self.pc
        member = _member_mask(pc, self._members)
        D = (~member)[:, None] / pc.sigma
        _level_sweep(pc.graph.csr(), pc.dist, D, member, reverse=True)
        out = np.einsum("xv,vx->v", self.sigma_tilde, D) - 1.0
        out[member] = 0.0
        return out

    def gain(self, v: int) -> float:
        """GBC(members + v) - GBC(members); zero for an existing member."""
        if self._pool is not None or self._gain_all is not None:
            return float(self.gains([v])[0])
        _check_node(self.pc.graph, v)
        return 0.0 if v in self._members else self._through(v)[1]

    def gains(self, candidates) -> np.ndarray:
        """gain() of every candidate, in order; members score 0."""
        cands = list(candidates)
        ids = _node_ids(self.pc.graph, cands)
        out = np.zeros(len(cands), dtype=np.float64)
        fresh = np.array(
            [i for i, v in enumerate(cands) if v not in self._members], dtype=np.int64
        )
        if self._pool is not None:
            at = self._pool.positions(cands)
            out[fresh] = self._pb[at[fresh], at[fresh]] - 1.0
            return out
        vec = self._gain_all
        if vec is None:
            vec = self._sweep_gains()
            vec.setflags(write=False)
            self._gain_all = vec
        out[fresh] = vec[ids[fresh]]
        return out

    def add(self, v: int) -> float:
        """Insert v, update the avoiding counts, and return the gain."""
        _check_node(self.pc.graph, v)
        at = None if self._pool is None else int(self._pool.positions([v])[0])
        if v in self._members:
            raise ContractViolationError(f"node {v} is already a member")
        if at is None:
            through, gain = self._through(v)
            self._gain_all = None
            self.sigma_tilde -= through
            _clamp(self.sigma_tilde, self.pc.sigma)
        else:
            gain = self._pool_add(at)
        self._members.add(v)
        self.base_value += gain
        return gain

    def _pool_add(self, m: int) -> float:
        """add() of the pool node at position m; returns its gain.

        The paths that meet u and then w lose those that also meet m,
        before u, between them or after w.  Each of the three counts is
        a PB entry times the share of its avoiding paths that take the
        detour through the third node.
        """
        S, PB, D = self.sigma_tilde, self._pb, self._pool.dist
        gain = float(PB[m, m]) - 1.0
        R = np.divide(PB, S, out=np.zeros_like(PB), where=S > 0.0)
        Sm = S[:, m]
        Dm = D[:, m]
        via = Dm[:, None] + Dm[None, :] == D  # u, m, w
        lead = Dm[:, None] + D == Dm[None, :]  # m, u, w
        trail = D + Dm[None, :] == Dm[:, None]  # u, w, m
        through = np.where(via, np.outer(Sm, Sm), 0.0)
        PB -= (
            R * through
            + np.where(lead, R[m][None, :] * Sm[:, None] * S, 0.0)
            + np.where(trail, R[:, m][:, None] * S * Sm[None, :], 0.0)
        )
        PB[m, :] = 0.0
        PB[:, m] = 0.0
        S -= through
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
