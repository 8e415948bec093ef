"""Group betweenness centrality.

All values use the ordered-pair convention: both (s, t) and (t, s)
count, and a shortest path contains its endpoints.  Consequently
GBC(V) = n(n-1), GBC({v}) = brandes_bc(v) + 2(n-1), and the value of
any group lies in [0, n(n-1)].

The direct evaluator counts paths that avoid the group with the same
forward level sweep that `apsp` uses for sigma, here with the group's
columns blocked.  The incremental oracle derives every gain and every
update from one product: the member-avoiding x-y paths through v.
Nothing here ever enumerates paths.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, ContractViolationError
from .graph import Graph, PathCounts, _check_node, _level_sweep

__all__ = [
    "gbc_direct",
    "gbc_modified",
    "GbcOracle",
    "brandes_bc",
]

# Relative slack for clamping float dust in the avoiding-path bookkeeping.
_CLAMP_REL = 1e-6


def _member_mask(pc: PathCounts, group) -> np.ndarray:
    mask = np.zeros(pc.n, dtype=bool)
    for v in group:
        _check_node(pc.graph, v)
        mask[v] = True
    return mask


def _avoiding_counts(pc: PathCounts, blocked: np.ndarray) -> np.ndarray:
    """Number of shortest x-y paths meeting no blocked node, per ordered pair.

    Blocked sources start at zero (a path contains its endpoints).
    """
    seeds = np.diag((~blocked).astype(np.float64))
    return _level_sweep(pc.graph.csr(), pc.dist, seeds, blocked)


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


def gbc_modified(pc: PathCounts, essential_pairs, group) -> float:
    """GBC restricted to the given ordered node pairs."""
    pairs = list(essential_pairs)
    if not pairs:
        return 0.0
    ss = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    tt = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    if (ss == tt).any():
        raise ContractViolationError("essential pairs must have distinct endpoints")
    for arr in (ss, tt):
        if arr.min() < 0 or arr.max() >= pc.n:
            raise ContractViolationError("essential pair endpoint out of range")
    blocked = _member_mask(pc, group)
    if not blocked.any():
        return 0.0
    F = _avoiding_counts(pc, blocked)
    vals = 1.0 - F[ss, tt] / pc.sigma[ss, tt]
    return float(vals.sum())


class GbcOracle:
    """Incremental GBC evaluator over a growing member set.

    sigma_tilde[x, y] counts the shortest x-y paths that avoid every
    member.  The diagonal entry stays 1 until the node itself joins
    (the zero-length path at w contains w), which makes the update
    product formula uniform for endpoint pairs.

    Everything derives from one product, _through(v): the avoiding x-y
    paths through v, sigma_tilde[x, v] * sigma_tilde[v, y] wherever v
    lies on a shortest x-y path.  gains() forms it for a slab of
    candidates at a time: O(n^2) time per candidate, with each slab
    held under 16M entries to bound the temporaries.  gain(v) is
    gains([v]).  add() subtracts the product from sigma_tilde, O(n^2).

    gain() and gains() are read-only; add() is the only mutator.
    Concurrent readers are safe against a frozen oracle; an add needs
    exclusive access.
    """

    __slots__ = ("pc", "_members", "sigma_tilde", "base_value")

    def __init__(self, pc: PathCounts):
        self.pc = pc
        self._members: set[int] = set()
        self.sigma_tilde = pc.sigma.copy()
        self.base_value = 0.0

    def copy(self) -> "GbcOracle":
        dup = object.__new__(GbcOracle)
        dup.pc = self.pc
        dup._members = set(self._members)
        dup.sigma_tilde = self.sigma_tilde.copy()
        dup.base_value = self.base_value
        return dup

    @property
    def value(self) -> float:
        return self.base_value

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def _through(self, vs) -> np.ndarray:
        """(len(vs), n, n) slab: member-avoiding shortest x-y paths through each v."""
        d = self.pc.dist
        T = self.sigma_tilde
        on_path = (d[:, vs].T[:, :, None] + d[vs][:, None, :]) == d
        return np.where(on_path, T[:, vs].T[:, :, None] * T[vs][:, None, :], 0.0)

    def gain(self, v: int) -> float:
        """GBC(members + v) - GBC(members); zero for an existing member."""
        return float(self.gains([v])[0])

    def gains(self, candidates) -> np.ndarray:
        """gain() of every candidate, in order; members score 0."""
        cands = list(candidates)
        for v in cands:
            _check_node(self.pc.graph, v)
        out = np.zeros(len(cands), dtype=np.float64)
        ids = np.asarray(cands, dtype=np.int64)
        fresh = np.array(
            [i for i, v in enumerate(cands) if v not in self._members], dtype=np.int64
        )
        n = self.pc.n
        # slab size bounded to keep the (chunk, n, n) temporaries modest
        chunk = max(1, int(16_000_000 // max(1, n * n)))
        for lo in range(0, len(fresh), chunk):
            sel = fresh[lo : lo + chunk]
            newly = self._through(ids[sel]) / self.pc.sigma
            # (v, v) is no pair; its term is exactly 1 for a non-member v
            out[sel] = newly.sum(axis=(1, 2)) - 1.0
        return out

    def add(self, v: int) -> float:
        """Insert v, update the avoiding counts, and return the gain."""
        _check_node(self.pc.graph, v)
        if v in self._members:
            raise ContractViolationError(f"node {v} is already a member")
        T = self.sigma_tilde
        sigma = self.pc.sigma
        through = self._through([v])[0]
        gain = float((through / sigma).sum()) - 1.0
        T -= through
        neg = T < 0.0
        if neg.any():
            if bool((-T[neg] > _CLAMP_REL * sigma[neg]).any()):
                raise ConsistencyError(
                    "avoiding-path counts went negative beyond tolerance"
                )
            T[neg] = 0.0
        self._members.add(v)
        self.base_value += gain
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
