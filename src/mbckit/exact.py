"""Exact optimum by bounded subset search.

Ground truth for the approximation and tree solvers.  The search is the
restart greedy's depth-first subset walk (greedy._subsets) with no size
limit: it walks the affordable subsets of the sorted candidate list,
each oracle the copy of its parent's plus one addition, and it does
not extend a subset that already covers every pair.  The walk's root
is a candidate-space oracle (GbcOracle(pc, pool)), so each step costs
O(k c) for k members of c candidates after one build per pool.  A
node fits the budget within the audit's slack (greedy._fits), and
values within greedy._tie_tol of the best tie.

The incumbent is the best subset value walked so far, starting from
the empty set's.  The walk skips the child S + v, with its subtree,
when the submodular knapsack bound (greedy._bound) over the candidates
after v falls below the incumbent - 2 _tie_tol.  No skipped subset
comes within _tie_tol of the optimum, so the tie rule picks the same
set as an exhaustive search.  The candidate count stays hard-capped:
the bound can be loose, with many zero-cost candidates say, and then
the walk is close to exhaustive.
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
    records = _subsets(
        root,
        cand,
        inst.cost,
        inst.budget,
        len(cand),
        lambda subset, oracle: (oracle.base_value, subset),
        (root.base_value, ()),
        restarts=False,
    )
    value, nodes = _best_outcome(records, inst.graph.n)
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=value,
        algorithm="exact",
        order=nodes,
    )
