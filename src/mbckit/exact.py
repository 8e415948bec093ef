"""Exhaustive optimum by subset search.

Ground truth for the approximation and tree solvers.  The search walks
the subset tree of a sorted candidate list, chaining incremental
oracles down the recursion, pruning branches that cannot afford any
further node and branches that already cover every pair.  Clarity over
speed; the candidate count is hard-capped.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .graph import CostedInstance, PathCounts
from .gbc import GbcOracle
from .greedy import Solution, _candidate_pool, _resolve_pc

__all__ = ["solve_exact", "MAX_CANDIDATES"]

MAX_CANDIDATES = 25


def solve_exact(
    inst: CostedInstance, candidates=None, pc: PathCounts | None = None
) -> Solution:
    """Globally optimal feasible set over the candidate pool.

    Ties break toward smaller sets, then lexicographically smaller id
    tuples.  Default pool is every node; a whitelist lifts nothing but
    the pool restriction.
    """
    g = inst.graph
    cand = _candidate_pool(g, candidates)
    if len(cand) > MAX_CANDIDATES:
        raise CapExceededError(
            f"{len(cand)} candidates exceed the exhaustive-search cap {MAX_CANDIDATES}",
            len(cand),
        )
    pc = _resolve_pc(inst, pc)
    costs = inst.cost
    budget = inst.budget
    full = float(g.n * (g.n - 1))

    # cheapest candidate from position i onward; lets the scan stop early
    suffix_min = np.empty(len(cand) + 1)
    suffix_min[-1] = np.inf
    for i in range(len(cand) - 1, -1, -1):
        suffix_min[i] = min(costs[cand[i]], suffix_min[i + 1])

    best = [0.0, 0, ()]  # value, size, sorted node tuple

    def consider(value: float, chosen: list[int]) -> None:
        size = len(chosen)
        tup = tuple(chosen)
        if value > best[0] or (
            value == best[0]
            and (size < best[1] or (size == best[1] and tup < best[2]))
        ):
            best[0], best[1], best[2] = value, size, tup

    def descend(i: int, oracle: GbcOracle, spent: float, chosen: list[int]) -> None:
        for j in range(i, len(cand)):
            if spent + suffix_min[j] > budget:
                break
            v = cand[j]
            c = float(costs[v])
            if spent + c > budget:
                continue
            branch = oracle.copy()
            branch.add(v)
            chosen.append(v)
            consider(branch.base_value, chosen)
            # full coverage cannot be improved, only enlarged
            if branch.base_value < full - 1e-9:
                descend(j + 1, branch, spent + c, chosen)
            chosen.pop()

    descend(0, GbcOracle(pc), 0.0, [])
    nodes = best[2]
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=float(best[0]),
        algorithm="exact",
        order=nodes,
    )
