"""Exhaustive optimum by subset search.

Ground truth for the approximation and tree solvers.  The search is the
restart greedy's depth-first subset walk (greedy._subsets) with no size
limit: it visits every affordable subset of the sorted candidate list,
each oracle the copy of its parent's plus one addition, and it does
not extend a subset that already covers every pair.  The walk's root
is a candidate-space oracle (GbcOracle(pc, pool)), so each step costs
O(c^2) for c candidates after one O(c n^2) build.  A node fits the
budget within the audit's slack (greedy._fits), and values within
greedy._tie_tol of the best tie.  Clarity over speed: there is no
bound, and the candidate count is hard-capped.
"""

from __future__ import annotations

from .errors import CapExceededError
from .graph import CostedInstance, apsp
from .gbc import GbcOracle
from .greedy import Solution, _best_outcome, _candidate_pool, _subsets

__all__ = ["solve_exact", "MAX_CANDIDATES"]

MAX_CANDIDATES = 25


def solve_exact(inst: CostedInstance, candidates=None) -> Solution:
    """Globally optimal feasible set over the candidate pool, by apsp's counts.

    Values within _tie_tol of the best break toward smaller sets, then
    lexicographically smaller id tuples.  Default pool is every node; a
    whitelist lifts nothing but the pool restriction.
    """
    cand = _candidate_pool(inst.graph, candidates)
    if len(cand) > MAX_CANDIDATES:
        raise CapExceededError(
            f"{len(cand)} candidates exceed the exhaustive-search cap {MAX_CANDIDATES}",
            len(cand),
        )
    root = GbcOracle(apsp(inst.graph), cand)
    walk = _subsets(root, cand, inst.cost, inst.budget, len(cand))
    value, nodes = _best_outcome([(o.base_value, s) for s, o in walk], inst.graph.n)
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=value,
        algorithm="exact",
        order=nodes,
    )
