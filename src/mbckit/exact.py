"""Exhaustive optimum by subset search.

Ground truth for the approximation and tree solvers.  The search is the
restart greedy's depth-first subset walk (greedy._subsets) with no size
limit: it visits every affordable subset of the sorted candidate list,
each oracle the copy of its parent's plus one addition, and it does
not extend a subset that already covers every pair.  Clarity over
speed; the candidate count is hard-capped.
"""

from __future__ import annotations

from .errors import CapExceededError
from .graph import CostedInstance, apsp
from .gbc import GbcOracle
from .greedy import Solution, _candidate_pool, _subsets

__all__ = ["solve_exact", "MAX_CANDIDATES"]

MAX_CANDIDATES = 25


def solve_exact(inst: CostedInstance, candidates=None) -> Solution:
    """Globally optimal feasible set over the candidate pool, by apsp's counts.

    Ties break toward smaller sets, then lexicographically smaller id
    tuples.  Default pool is every node; a whitelist lifts nothing but
    the pool restriction.
    """
    cand = _candidate_pool(inst.graph, candidates)
    if len(cand) > MAX_CANDIDATES:
        raise CapExceededError(
            f"{len(cand)} candidates exceed the exhaustive-search cap {MAX_CANDIDATES}",
            len(cand),
        )
    root = GbcOracle(apsp(inst.graph))
    walk = _subsets(root, cand, inst.cost, inst.budget, len(cand))
    neg_value, _, nodes = min((-o.base_value, len(s), s) for s, o in walk)
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=-neg_value,
        algorithm="exact",
        order=nodes,
    )
