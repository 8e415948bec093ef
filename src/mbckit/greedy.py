"""Greedy group-selection algorithms.

Three variants share one inner loop:

* greedy_unit: unit costs, exactly min(k, n) additions, each step taking
  the largest gain.
* greedy_ratio: budgeted gain/cost scan from the empty set, with a
  best-affordable-single-node fallback.
* greedy_modified: the ratio scan restarted from every initialization of
  at most three nodes, keeping the best outcome.

Tie-breaking is everywhere by smallest node id.  Ties are detected
with a small absolute tolerance: the coverage bridge recomputes the
same rational gains along a different float path, and exact comparison
would let last-bit noise pick different argmaxes on the two sides.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .gbc import GbcOracle
from .graph import CostedInstance, Graph, PathCounts, _check_node, apsp

__all__ = ["Solution", "greedy_unit", "greedy_ratio", "greedy_modified"]


@dataclass(frozen=True)
class Solution:
    """A chosen node set with its cost, value, and provenance."""

    nodes: tuple[int, ...]
    cost: float
    gbc: float
    algorithm: str
    init_seed: tuple[int, ...] | None = None
    # the addition sequence that produced the set, for trajectory replay
    order: tuple[int, ...] = ()


def _resolve_pc(inst: CostedInstance, pc: PathCounts | None) -> PathCounts:
    if pc is None:
        return apsp(inst.graph)
    if pc.graph is not inst.graph:
        raise ContractViolationError("path counts were built for a different graph")
    return pc


def _candidate_pool(g: Graph, candidates) -> list[int]:
    """Sorted distinct candidate ids, every node when candidates is None."""
    if candidates is None:
        return list(range(g.n))
    cand = set(candidates)
    for v in cand:
        _check_node(g, v)
    return sorted(cand)


# Gain gaps are rationals with small denominators, far above this; float
# noise between two evaluations of the same gain is far below it.
TIE_TOL_REL = 1e-12


def _tie_tol(n: int) -> float:
    return TIE_TOL_REL * n * n


def _pick_max(pool, gains, tol: float) -> int:
    """Pool position of the smallest id within tol of the best gain."""
    cut = float(np.max(gains)) - tol
    for i in range(len(pool)):  # pool sorted: first hit = smallest id
        if gains[i] >= cut:
            return i
    return 0


def _pick_ratio(pool, gains, costs, tol: float) -> int:
    """Pool position of the best gain/cost candidate.

    Zero cost counts as infinite ratio and outranks every finite one;
    among free candidates one that still helps wins, then the smallest
    id.  Finite ratios tie within tol, cross-multiplied so the slack
    stays in gain units.
    """
    free = [i for i in range(len(pool)) if costs[i] == 0.0]
    if free:
        for i in free:
            if gains[i] > tol:
                return i
        return free[0]
    rmax = max(gains[i] / costs[i] for i in range(len(pool)))
    for i in range(len(pool)):
        if gains[i] >= costs[i] * rmax - tol:
            return i
    return 0


def greedy_unit(inst: CostedInstance, k: int, pc: PathCounts | None = None) -> Solution:
    """Fixed-size greedy: add the gain-maximizing node min(k, n) times."""
    if not inst.unit_costs:
        raise ContractViolationError("greedy_unit requires unit costs")
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ContractViolationError("k must be a nonnegative integer")
    g = inst.graph
    pc = _resolve_pc(inst, pc)
    oracle = GbcOracle(pc)
    pool = list(range(g.n))
    tol = _tie_tol(g.n)
    order: list[int] = []
    for _ in range(min(int(k), g.n)):
        gains = oracle.gains(pool)
        at = _pick_max(pool, gains, tol)
        v = pool.pop(at)
        oracle.add(v)
        order.append(v)
    nodes = tuple(sorted(order))
    return Solution(
        nodes=nodes,
        cost=float(len(nodes)),
        gbc=float(oracle.base_value),
        algorithm="unit",
        order=tuple(order),
    )


def _ratio_augment(oracle: GbcOracle, inst: CostedInstance, pool) -> list[int]:
    """Gain/cost scan over the pool, mutating the oracle.

    Every iteration the best-ratio candidate is inspected and removed
    from the pool; it is added only when it fits the budget and either
    helps or is free.  Zero-cost candidates rank as infinite ratio, with
    positive gain preferred.  Returns the ids added, in order.
    """
    budget = inst.budget
    costs = inst.cost
    spent = inst.cost_of(oracle.members)
    pool = sorted(pool)
    tol = _tie_tol(len(costs))
    added: list[int] = []
    while pool:
        cu = costs[pool]
        if spent + cu.min() > budget:
            break
        gains = oracle.gains(pool)
        if gains.max() <= tol and bool((cu > 0).all()):
            break
        at = _pick_ratio(pool, gains, cu, tol)
        v = pool.pop(at)
        c = float(costs[v])
        g = float(gains[at])
        if spent + c <= budget and (g > tol or c == 0.0):
            oracle.add(v)
            spent += c
            added.append(v)
    return added


def _best_single(inst: CostedInstance, pc: PathCounts) -> tuple[int, float] | None:
    """Best affordable single node by GBC, ties to the smallest id."""
    afford = [v for v in range(inst.graph.n) if inst.cost[v] <= inst.budget]
    if not afford:
        return None
    vals = GbcOracle(pc).gains(afford)
    at = _pick_max(afford, vals, _tie_tol(inst.graph.n))
    return afford[at], float(vals[at])


def greedy_ratio(inst: CostedInstance, pc: PathCounts | None = None) -> Solution:
    """Budgeted ratio greedy from the empty set.

    The scan alone can be arbitrarily bad when one expensive node
    dominates, so the result is compared against the best affordable
    single node and the scan only wins ties.
    """
    pc = _resolve_pc(inst, pc)
    oracle = GbcOracle(pc)
    added = _ratio_augment(oracle, inst, range(inst.graph.n))
    nodes = tuple(sorted(added))
    value = float(oracle.base_value)
    order = tuple(added)
    single = _best_single(inst, pc)
    if single is not None and single[1] > value + _tie_tol(inst.graph.n):
        v, value = single
        nodes = (v,)
        order = (v,)
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=value,
        algorithm="ratio",
        order=order,
    )


def greedy_modified(
    inst: CostedInstance,
    candidates=None,
    threads: int | None = None,
    pc: PathCounts | None = None,
) -> Solution:
    """Ratio greedy restarted from every affordable seed of at most 3 nodes.

    Seeds are enumerated by size then lexicographically; the first
    strictly-better value wins, so ties resolve to the smallest seed.
    `candidates` restricts both the seeds and the augmentation pool.
    Initializations are independent; `threads` evaluates them in a
    thread pool with a deterministic sequential merge.
    """
    cand = _candidate_pool(inst.graph, candidates)
    pc = _resolve_pc(inst, pc)
    base = GbcOracle(pc)

    seeds = [
        combo
        for size in range(0, 4)
        for combo in itertools.combinations(cand, size)
        if inst.cost_of(combo) <= inst.budget
    ]

    def run(seed: tuple[int, ...]):
        oracle = base.copy()
        for v in seed:
            oracle.add(v)
        added = _ratio_augment(oracle, inst, [u for u in cand if u not in seed])
        return float(oracle.base_value), seed, tuple(seed) + tuple(added)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(seed) for seed in seeds]

    best_value, best_seed, best_order = results[0]
    for value, seed, order in results[1:]:
        if value > best_value:
            best_value, best_seed, best_order = value, seed, order
    nodes = tuple(sorted(best_order))
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=best_value,
        algorithm="modified",
        init_seed=best_seed,
        order=best_order,
    )
