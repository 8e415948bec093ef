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
  The walk skips a subtree when _bound, the submodular knapsack bound,
  shows that no outcome in it comes within 2 _tie_tol of the best
  outcome so far, so the same outcome still wins every tie.

All three read the graph's path counts from apsp.  audit_solution is
the one answer check, run by the tree solver and the CLI.  A node fits
the budget when _fits says so, within the audit's slack.

Tie-breaking is everywhere by smallest node id, and between outcomes
by smallest seed or set.  Ties are detected within _tie_tol: the
coverage bridge, the direct evaluators and the oracle's two
path-betweenness kernels compute the same rational values along
different float paths, and exact comparison would let last-bit noise
pick different winners.
"""

from __future__ import annotations

import math
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


def _limit(budget: float) -> float:
    """The largest spend that fits the budget, within float slack.

    Summing the same costs in another order can land a few ulps above the
    budget, so the slack is the audit's 1e-9 * max(1, budget).
    """
    return budget + 1e-9 * max(1.0, budget)


def _fits(spent: float, c: float, budget: float) -> bool:
    """Whether a node of cost c still fits after spent, within _limit."""
    return spent + c <= _limit(budget)


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
    afford = [v for v in range(inst.graph.n) if _fits(0.0, float(inst.cost[v]), inst.budget)]
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


def _rank(item) -> float:
    """Sort key of a knapsack item (gain, cost, position): zero cost
    first, then falling gain/cost."""
    gain, cost, _ = item
    return -gain / cost if cost > 0.0 else -math.inf


def _bound(value: float, items, room: float, lo: int, hi: int) -> float:
    """value plus the fractional knapsack of items in room, leaving out
    the items at pool positions lo..hi.

    items are (gain, cost, position) triples with positive gains, sorted
    by _rank, so zero-cost items are taken whole and the first item that
    no longer fits is taken in part.
    """
    for gain, cost, at in items:
        if lo <= at <= hi:
            continue
        if cost > room:
            return value + gain * (room / cost)
        value += gain
        room -= cost
    return value


def _subsets(root, cand, costs, budget, size, outcome, first, *, restarts):
    """Outcomes of the affordable subsets of the sorted pool cand with at
    most size nodes, walked depth-first in lexicographic order, less the
    subtrees that the bound rules out.

    Each child is its parent's copy() plus one add().  outcome(subset,
    oracle) returns the record (value, subset, ...) of a nonempty subset.
    It runs once all of that subset's children were copied from its
    oracle, so it may mutate the oracle.  first is the empty subset's
    record, which the caller computes before the walk, as it starts the
    incumbent: the largest value among the records so far.  A node fits
    while the running float spent + cost passes _fits.  A subset that
    covers every pair within _tie_tol is not extended, as no extension
    can beat it.

    The bound.  GBC is monotone and submodular (the coverage reduction),
    so every feasible superset of S + v is worth at most value(S) +
    gain_S(v) plus the fractional knapsack (_bound) of the positive gains
    at S of the nodes it may add, in the room _limit leaves after S + v.
    With restarts, an outcome is a restart that may add every
    non-member of the pool; otherwise a subtree adds only the candidates
    after v.  A child whose bound falls below the incumbent - 2 _tie_tol
    is skipped before it is copied, with its subtree.  Every outcome it
    held is then worth less than the final best by more than _tie_tol,
    even after float noise in the bound, so the outcomes within
    _tie_tol of the best are those of the unbounded walk, and
    _best_outcome picks the same one.
    """
    cc = [float(costs[v]) for v in cand]
    w = _Walk(cand, cc, budget, size, outcome, restarts, [first], first[0])
    _walk(w, root, 0, (), 0.0)
    return w.records


@dataclass
class _Walk:
    """One _subsets walk: what it reads, its records so far, and the
    incumbent best, their largest value.  The recursion is module-level,
    not a closure that calls itself: such a closure is a reference cycle
    that would keep the walk's oracles, and with them the graph's n x n
    path counts, alive until the cyclic collector runs."""

    cand: list[int]
    cc: list[float]
    budget: float
    size: int
    outcome: object
    restarts: bool
    records: list
    best: float


def _walk(w: _Walk, oracle, lo: int, seed: tuple[int, ...], spent: float) -> None:
    """Walk the subsets that extend seed, whose oracle is given, by pool
    positions lo and later."""
    n = oracle.pc.n
    tol = _tie_tol(n)
    value = oracle.base_value
    if len(seed) == w.size or value >= n * (n - 1) - tol:
        return
    gains = oracle.gains(w.cand).tolist()
    items = sorted(((g, w.cc[i], i) for i, g in enumerate(gains) if g > 0.0), key=_rank)
    limit = _limit(w.budget)
    for j in range(lo, len(w.cand)):
        c = w.cc[j]
        if not _fits(spent, c, w.budget):
            continue
        room = max(0.0, limit - spent - c)
        if _bound(value + gains[j], items, room, j if w.restarts else 0, j) < w.best - 2 * tol:
            continue
        child = oracle.copy()
        child.add(w.cand[j])
        sub = seed + (w.cand[j],)
        _walk(w, child, j + 1, sub, spent + c)
        record = w.outcome(sub, child)
        w.records.append(record)
        w.best = max(w.best, record[0])


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
    restart augments its seed's oracle in place.  The empty seed restarts
    first, on a copy of the root, and its value is the walk's first
    incumbent; the walk skips the seeds whose restarts the bound shows
    cannot come within 2 _tie_tol of the incumbent.  The best value wins;
    outcomes within _tie_tol of it go to the smallest seed, then the
    lexicographically first.  `candidates` restricts both the seeds and
    the augmentation pool; the default is every node.
    """
    cand = _candidate_pool(inst.graph, candidates)
    root = GbcOracle(apsp(inst.graph), cand)

    def restart(seed, oracle):
        added = _ratio_augment(oracle, inst, [u for u in cand if u not in seed])
        return float(oracle.base_value), seed, seed + tuple(added)

    first = restart((), root.copy())
    outcomes = _subsets(root, cand, inst.cost, inst.budget, 3, restart, first, restarts=True)
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
