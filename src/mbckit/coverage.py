"""Bridge to budgeted maximum coverage, for cross-validation.

A graph instance maps to a coverage instance whose ground elements are
the unordered shortest paths: the element for a path of pair {s, t}
weighs 2/sigma(s, t) (folding the ordered-pair convention into the
weights, total n(n-1)), and the set of node v holds exactly the paths
through v.  Covered weight then equals GBC for every group, and the
coverage-side greedy must trace the node-side greedy move for move.

This is a verification artifact: construction enumerates paths, so it
is hard-capped and never sits on the solve path for large inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ContractViolationError
from .graph import CostedInstance, PathCounts, enumerate_shortest_paths
from .greedy import _pick_max, _pick_ratio, _resolve_pc, _tie_tol

__all__ = [
    "CoverageInstance",
    "CoverageSolution",
    "reduce_to_coverage",
    "coverage_weight",
    "coverage_greedy",
    "dump_coverage",
]

MAX_ELEMENTS = 100_000


@dataclass(frozen=True)
class CoverageInstance:
    """Ground elements, per-node sets, costs, and budget."""

    pairs: tuple[tuple[int, int], ...]  # unordered endpoint pair per element
    weights: np.ndarray
    sets: tuple[np.ndarray, ...]  # element indices covered by each node
    costs: np.ndarray
    budget: float
    labels: tuple[str, ...]

    @property
    def n_elements(self) -> int:
        return len(self.pairs)

    @property
    def n_sets(self) -> int:
        return len(self.sets)


def reduce_to_coverage(
    inst: CostedInstance, pc: PathCounts | None = None, cap: int = MAX_ELEMENTS
) -> CoverageInstance:
    """Materialize the coverage instance of a costed graph.

    Elements are emitted pair by pair in lexicographic (s, t) order with
    paths in lexicographic node order, so the element numbering is
    deterministic.
    """
    g = inst.graph
    pc = _resolve_pc(inst, pc)
    n = g.n
    total_paths = (float(pc.sigma.sum()) - n) / 2.0
    if total_paths > cap:
        raise CapExceededError(
            f"{total_paths:.0f} shortest paths exceed the coverage cap {cap}",
            total_paths,
        )
    pairs: list[tuple[int, int]] = []
    weights: list[float] = []
    member_rows: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        for t in range(s + 1, n):
            w = 2.0 / float(pc.sigma[s, t])
            for path in enumerate_shortest_paths(g, s, t, pc=pc, cap=cap):
                idx = len(pairs)
                pairs.append((s, t))
                weights.append(w)
                for v in path:
                    member_rows[v].append(idx)
    return CoverageInstance(
        pairs=tuple(pairs),
        weights=np.array(weights, dtype=np.float64),
        sets=tuple(np.array(row, dtype=np.int64) for row in member_rows),
        costs=inst.cost.copy(),
        budget=float(inst.budget),
        labels=tuple(g.labels),
    )


def coverage_weight(ci: CoverageInstance, group) -> float:
    """Total weight of elements covered by the union of the group's sets."""
    covered = np.zeros(ci.n_elements, dtype=bool)
    for v in group:
        if not (0 <= v < ci.n_sets):
            raise ContractViolationError(f"set index {v} out of range")
        covered[ci.sets[v]] = True
    return float(ci.weights[covered].sum())


@dataclass(frozen=True)
class CoverageSolution:
    nodes: tuple[int, ...]
    order: tuple[int, ...]
    weight: float
    cost: float


def _marginal(ci: CoverageInstance, covered: np.ndarray, v: int) -> float:
    els = ci.sets[v]
    return float(ci.weights[els[~covered[els]]].sum())


def coverage_greedy(ci: CoverageInstance, k: int | None = None) -> CoverageSolution:
    """Greedy on the coverage side, mirroring the node-side algorithms.

    With `k` given: exactly min(k, sets) steps of largest marginal weight
    (unit-cost mode).  Otherwise: the budgeted ratio scan with the same
    selection key, add rule, and single-set fallback as the node greedy.
    """
    n = ci.n_sets
    covered = np.zeros(ci.n_elements, dtype=bool)
    tol = _tie_tol(n)
    order: list[int] = []
    if k is not None:
        pool = list(range(n))
        for _ in range(min(int(k), n)):
            gains = np.array([_marginal(ci, covered, v) for v in pool])
            at = _pick_max(pool, gains, tol)
            v = pool.pop(at)
            covered[ci.sets[v]] = True
            order.append(v)
        nodes = tuple(sorted(order))
        return CoverageSolution(
            nodes=nodes,
            order=tuple(order),
            weight=float(ci.weights[covered].sum()),
            cost=float(len(order)),
        )

    budget = ci.budget
    spent = 0.0
    pool = list(range(n))
    while pool:
        cu = ci.costs[pool]
        if spent + cu.min() > budget:
            break
        gains = np.array([_marginal(ci, covered, v) for v in pool])
        if gains.max() <= tol and bool((cu > 0).all()):
            break
        at = _pick_ratio(pool, gains, cu, tol)
        v = pool.pop(at)
        c = float(ci.costs[v])
        g = float(gains[at])
        if spent + c <= budget and (g > tol or c == 0.0):
            covered[ci.sets[v]] = True
            spent += c
            order.append(v)
    weight = float(ci.weights[covered].sum())
    nodes = tuple(sorted(order))

    # fallback: the best affordable single set, scan wins ties
    afford = [v for v in range(n) if ci.costs[v] <= budget]
    if afford:
        singles = np.array([float(ci.weights[ci.sets[v]].sum()) for v in afford])
        at = _pick_max(afford, singles, tol)
        if singles[at] > weight + tol:
            v = afford[at]
            return CoverageSolution(
                nodes=(v,), order=(v,), weight=float(singles[at]), cost=float(ci.costs[v])
            )
    return CoverageSolution(
        nodes=nodes,
        order=tuple(order),
        weight=weight,
        cost=float(ci.costs[list(nodes)].sum()) if nodes else 0.0,
    )


def dump_coverage(ci: CoverageInstance) -> str:
    """JSON form of a coverage instance for external solvers."""
    doc = {
        "elements": [
            {"pair": [ci.labels[s], ci.labels[t]], "weight": float(w)}
            for (s, t), w in zip(ci.pairs, ci.weights)
        ],
        "sets": {ci.labels[v]: [int(i) for i in ci.sets[v]] for v in range(ci.n_sets)},
        "costs": {ci.labels[v]: float(ci.costs[v]) for v in range(ci.n_sets)},
        "budget": float(ci.budget),
    }
    return json.dumps(doc)
