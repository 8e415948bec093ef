"""Seeded workload inputs: instance documents and the requests run on them.

``build(workload, seed)`` returns the documents (name -> JSON text, in
mbckit's instance format) and the request pool of one batch.  Only the
generators and ``to_instance_json`` of mbckit are used here; grids and
paths are written directly.  The same seed gives the same documents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

import mbckit as mb

@dataclass(frozen=True)
class Request:
    """One request: a CLI ``solve`` (algo set) or ``gbc`` (group set) call."""

    name: str
    doc: str
    algo: str | None = None
    candidates: tuple[str, ...] | None = None
    group: tuple[str, ...] | None = None


def _edges_doc(edges) -> str:
    return json.dumps({"edges": [[u, v] for u, v in edges]})


def _grid_edges(rows: int, cols: int):
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                yield f"{r}_{c}", f"{r + 1}_{c}"
            if c + 1 < cols:
                yield f"{r}_{c}", f"{r}_{c + 1}"


def _path_edges(n: int):
    return ((f"p{i}", f"p{i + 1}") for i in range(n - 1))


def _costed_doc(g, mapping, budget: float) -> str:
    cost = np.array([mapping[lab] for lab in g.labels])
    return mb.to_instance_json(g, cost=cost, budget=budget)


# er-greedy: Erdos-Renyi graphs of ER_N nodes, mean degree about 14
ER_N = 120
ER_GRAPHS = 2
ER_K = 10


def _er_greedy(rng: random.Random):
    docs, reqs = {}, []
    for i in range(ER_GRAPHS):
        g = mb.gen_random(ER_N, 14.0 / (ER_N - 1), rng.randrange(2**31))
        unit, ratio = f"er{i}-unit", f"er{i}-ratio"
        docs[unit] = mb.to_instance_json(g, cost=np.ones(g.n), budget=float(ER_K))
        costs = mb.gen_random_costs(g, (1, 5), seed=rng.randrange(2**31))
        docs[ratio] = _costed_doc(g, costs, float(ER_K))
        reqs += [Request(unit, unit, algo="unit"), Request(ratio, ratio, algo="ratio")]
    return docs, reqs


def _tight_restart(rng: random.Random):
    # gen_tight is deterministic: the seed changes nothing here
    docs, reqs = {}, []
    for k, algos in ((2, ("modified",)), (3, ("exact", "modified"))):
        g, meta = mb.gen_tight(k)
        name = f"tight{k}"
        docs[name] = mb.to_instance_json(g, cost=np.ones(g.n), budget=float(k))
        for algo in algos:
            reqs.append(Request(f"{name}-{algo}", name, algo=algo, candidates=meta.whitelist))
    return docs, reqs


# hd-eval: two grids and a path; groups of 1-8 nodes drawn from the seed
HD_GRID = (20, 20)
HD_SMALL_GRID = (15, 15)
HD_PATH = 200
HD_GROUPS_ON_GRID = 3


def _hd_eval(rng: random.Random):
    docs, reqs = {}, []
    # (document, edges, number of groups drawn on it)
    shapes = (
        ("grid", list(_grid_edges(*HD_GRID)), HD_GROUPS_ON_GRID),
        ("small-grid", list(_grid_edges(*HD_SMALL_GRID)), 1),
        ("path", list(_path_edges(HD_PATH)), 1),
    )
    for name, edges, groups in shapes:
        docs[name] = _edges_doc(edges)
        labels = sorted({lab for e in edges for lab in e})
        for j in range(groups):
            group = tuple(rng.sample(labels, rng.randint(1, 8)))
            reqs.append(Request(f"{name}-g{j}", name, group=group))
    return docs, reqs


# tree-dp: TREE_COUNT random attachment trees of TREE_N nodes and one
# path.  DP time depends on a tree's shape several-fold at equal n, so
# the shapes are drawn once, from fixed generator seeds, and the
# workload seed draws the costs; every seed then asks for the same work.
TREE_N = 32
TREE_COUNT = 8
TREE_PATH = 90


def _tree_doc(g, rng: random.Random) -> str:
    costs = mb.gen_random_costs(g, (0, 5), seed=rng.randrange(2**31))
    return _costed_doc(g, costs, float(sum(costs.values()) // 4))


def _tree_dp(rng: random.Random):
    docs = {f"tree{i}": _tree_doc(mb.gen_random_tree(TREE_N, i), rng) for i in range(TREE_COUNT)}
    path = mb.Graph(list(_path_edges(TREE_PATH)))
    docs[f"path{TREE_PATH}"] = _tree_doc(path, rng)
    reqs = [Request(name, name, algo="tree") for name in docs]
    return docs, reqs


BUILDERS = {
    "er-greedy": _er_greedy,
    "tight-restart": _tight_restart,
    "hd-eval": _hd_eval,
    "tree-dp": _tree_dp,
}


def build(workload: str, seed: int):
    """(documents, request pool) for one workload and seed."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))
