"""The unbounded depth-first subset walk, kept as the reference for the
bounded one in mbckit.greedy._subsets.

unbounded_subsets visits every affordable subset; exact_unbounded and
greedy_modified_unbounded are solve_exact and greedy_modified on top of
it, as they ran before the walk had a bound.  The bounded solvers must
return the same sets, seeds and orders, with bit-equal values.
"""

from __future__ import annotations

from mbckit import GbcOracle, apsp
from mbckit.greedy import (
    Solution,
    _best_outcome,
    _candidate_pool,
    _fits,
    _ratio_augment,
    _tie_tol,
)


def unbounded_subsets(oracle, cand, costs, budget, size, seed=(), spent=0.0):
    """Every affordable subset of the sorted pool cand with at most size
    nodes, each added to seed, walked depth-first in lexicographic order.

    Yields (subset, oracle) after all of that subset's extensions, so the
    caller may mutate the yielded oracle: each child is its parent's
    copy() plus one add().  A subset that covers every pair within
    _tie_tol is not extended.
    """
    n = oracle.pc.n
    if len(seed) < size and oracle.base_value < n * (n - 1) - _tie_tol(n):
        for j, v in enumerate(cand):
            c = float(costs[v])
            if _fits(spent, c, budget):
                child = oracle.copy()
                child.add(v)
                yield from unbounded_subsets(
                    child, cand[j + 1 :], costs, budget, size, seed + (v,), spent + c
                )
    yield seed, oracle


def exact_unbounded(inst, candidates=None) -> Solution:
    """solve_exact over the unbounded walk."""
    cand = _candidate_pool(inst.graph, candidates)
    root = GbcOracle(apsp(inst.graph), cand)
    walk = unbounded_subsets(root, cand, inst.cost, inst.budget, len(cand))
    value, nodes = _best_outcome([(o.base_value, s) for s, o in walk], inst.graph.n)
    return Solution(
        nodes=nodes, cost=inst.cost_of(nodes), gbc=value, algorithm="exact", order=nodes
    )


def greedy_modified_unbounded(inst, candidates=None) -> Solution:
    """greedy_modified over the unbounded walk: the empty seed restarts
    last, on the walk's root."""
    cand = _candidate_pool(inst.graph, candidates)
    root = GbcOracle(apsp(inst.graph), cand)
    outcomes = []
    for seed, oracle in unbounded_subsets(root, cand, inst.cost, inst.budget, 3):
        added = _ratio_augment(oracle, inst, [u for u in cand if u not in seed])
        outcomes.append((float(oracle.base_value), seed, seed + tuple(added)))
    value, seed, order = _best_outcome(outcomes, inst.graph.n)
    nodes = tuple(sorted(order))
    return Solution(
        nodes=nodes,
        cost=inst.cost_of(nodes),
        gbc=value,
        algorithm="modified",
        init_seed=seed,
        order=order,
    )
