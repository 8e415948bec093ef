"""Greedy group-selection algorithms.

Three variants share one inner loop:

* greedy_unit: unit costs, exactly min(k, n) additions, each step taking
  the largest gain.
* greedy_ratio: budgeted gain/cost scan from the empty set, with a
  best-affordable-single-node fallback.
* greedy_modified: the ratio scan restarted from every initialization of
  at most three nodes, keeping the best outcome.  The initializations
  come from _subsets, the depth-first subset walk that solve_exact
  also runs, over a candidate-space oracle (GbcOracle(pc, pool)).

All three read the graph's path counts from apsp.  audit_solution is
the one answer check, run by the tree solver and the CLI.  A node fits
the budget when _fits says so, within the audit's slack.

Tie-breaking is everywhere by smallest node id, and between outcomes
by smallest seed or set.  Ties are detected within _tie_tol: the
coverage bridge and the two oracle representations compute the same
rational values along different float paths, and exact comparison
would let last-bit noise pick different winners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ContractViolationError
from .gbc import GbcOracle, gbc_direct
from .graph import CostedInstance, Graph, _check_node, _is_int, apsp

__all__ = ["Solution", "audit_solution", "greedy_unit", "greedy_ratio", "greedy_modified"]


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


def audit_solution(inst: CostedInstance, sol: Solution) -> None:
    """Raise ConsistencyError unless sol.gbc matches a fresh gbc_direct of
    its nodes within 1e-9 * n^2 and their cost fits the budget within
    1e-9 * max(1, budget)."""
    g = inst.graph
    audit = gbc_direct(apsp(g), sol.nodes)
    if abs(audit - sol.gbc) > 1e-9 * g.n * g.n:
        raise ConsistencyError(f"reported value {sol.gbc} fails re-evaluation ({audit})")
    spent = inst.cost_of(sol.nodes)
    if not _fits(spent, 0.0, inst.budget):
        raise ConsistencyError(f"chosen set costs {spent}, over the budget {inst.budget}")


def _fits(spent: float, c: float, budget: float) -> bool:
    """Whether a node of cost c still fits after spent, within float slack.

    Summing the same costs in another order can land a few ulps above the
    budget, so the slack is the audit's 1e-9 * max(1, budget).
    """
    return spent + c <= budget + 1e-9 * max(1.0, budget)


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


def greedy_unit(inst: CostedInstance, k: int) -> Solution:
    """Fixed-size greedy over apsp's counts: add the best-gain node min(k, n) times."""
    if not inst.unit_costs:
        raise ContractViolationError("greedy_unit requires unit costs")
    if not (_is_int(k) and k >= 0):
        raise ContractViolationError("k must be a nonnegative integer")
    g = inst.graph
    oracle = GbcOracle(apsp(g))
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
        if not _fits(spent, float(cu.min()), budget):
            break
        gains = oracle.gains(pool)
        if gains.max() <= tol and bool((cu > 0).all()):
            break
        at = _pick_ratio(pool, gains, cu, tol)
        v = pool.pop(at)
        c = float(costs[v])
        g = float(gains[at])
        if _fits(spent, c, budget) and (g > tol or c == 0.0):
            oracle.add(v)
            spent += c
            added.append(v)
    return added


def _best_single(inst: CostedInstance, oracle: GbcOracle) -> tuple[int, float] | None:
    """Best affordable single node by GBC, ties to the smallest id.

    The oracle must be empty, so that its gains are the GBC of each node.
    """
    afford = [v for v in range(inst.graph.n) if inst.cost[v] <= inst.budget]
    if not afford:
        return None
    vals = oracle.gains(afford)
    at = _pick_max(afford, vals, _tie_tol(inst.graph.n))
    return afford[at], float(vals[at])


def greedy_ratio(inst: CostedInstance) -> Solution:
    """Budgeted ratio greedy from the empty set, over apsp's counts.

    The scan alone can be arbitrarily bad when one expensive node
    dominates, so the result is compared against the best affordable
    single node and the scan only wins ties.
    """
    oracle = GbcOracle(apsp(inst.graph))
    # priced on the empty oracle; a swept pool leaves the vector that
    # the scan's first step reads
    single = _best_single(inst, oracle)
    added = _ratio_augment(oracle, inst, range(inst.graph.n))
    nodes = tuple(sorted(added))
    value = float(oracle.base_value)
    order = tuple(added)
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


def _subsets(oracle, cand, costs, budget, size, seed=(), spent=0.0):
    """Every affordable subset of the sorted pool cand with at most size
    nodes, each added to seed, walked depth-first in lexicographic order.

    Yields (subset, oracle) after all of that subset's extensions, so the
    caller may mutate the yielded oracle: each child is its parent's
    copy() plus one add(), and all of them were copied already.  A node
    fits while the running float spent + cost passes _fits.  A subset
    that covers every pair within _tie_tol is not extended, as no
    extension can beat it.
    """
    n = oracle.pc.n
    if len(seed) < size and oracle.base_value < n * (n - 1) - _tie_tol(n):
        for j, v in enumerate(cand):
            c = float(costs[v])
            if _fits(spent, c, budget):
                child = oracle.copy()
                child.add(v)
                yield from _subsets(
                    child, cand[j + 1 :], costs, budget, size, seed + (v,), spent + c
                )
    yield seed, oracle


def _best_outcome(outcomes, n: int):
    """The (value, subset, ...) outcome of largest value, ranked within
    _tie_tol(n): among the near-best, the smallest subset wins, then the
    lexicographically first."""
    top = max(r[0] for r in outcomes) - _tie_tol(n)
    return min((r for r in outcomes if r[0] >= top), key=lambda r: (len(r[1]), r[1]))


def greedy_modified(inst: CostedInstance, candidates=None) -> Solution:
    """Ratio greedy restarted from every affordable seed of at most 3 nodes.

    Seeds come from one depth-first walk (_subsets) over a candidate-space
    oracle of apsp's counts, so each seed prefix is added once, and each
    restart augments its seed's oracle in place.  The best value wins;
    outcomes within _tie_tol of it go to the smallest seed, then the
    lexicographically first.  `candidates` restricts both the seeds and
    the augmentation pool; the default is every node.
    """
    cand = _candidate_pool(inst.graph, candidates)
    root = GbcOracle(apsp(inst.graph), cand)
    outcomes = []
    for seed, oracle in _subsets(root, cand, inst.cost, inst.budget, 3):
        added = _ratio_augment(oracle, inst, [u for u in cand if u not in seed])
        outcomes.append((float(oracle.base_value), seed, seed + tuple(added)))
    best_value, best_seed, best_order = _best_outcome(outcomes, inst.graph.n)
    nodes = tuple(sorted(best_order))
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=best_value,
        algorithm="modified",
        init_seed=best_seed,
        order=best_order,
    )
