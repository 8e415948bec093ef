import random

import numpy as np
import pytest

import mbckit.graph as graph_mod
from mbckit import CostedInstance, Graph
from mbckit.generators import gen_random
from mbckit.graph import csgraph


@pytest.fixture
def p3():
    # a - b - c
    return Graph([("a", "b"), ("b", "c")])


@pytest.fixture
def p4():
    return Graph([("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture
def c4():
    return Graph([("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])


@pytest.fixture
def k4():
    labs = ["0", "1", "2", "3"]
    return Graph([(labs[i], labs[j]) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def star4():
    # center c, leaves x y z
    return Graph([("c", "x"), ("c", "y"), ("c", "z")])


@pytest.fixture
def bfs_calls(monkeypatch):
    """List that grows by one per distance computation in apsp: a scipy
    shortest-path call, a bit-parallel BFS, or a level sweep handed
    unknown levels (-1 in dist), which finds them as it counts."""
    calls = []
    real_paths = csgraph.shortest_path
    real_bits = graph_mod._bit_bfs
    real_sweep = graph_mod._level_sweep

    def paths(*args, **kwargs):
        calls.append("shortest_path")
        return real_paths(*args, **kwargs)

    def bits(*args, **kwargs):
        calls.append("_bit_bfs")
        return real_bits(*args, **kwargs)

    def sweep(A, dist, *args, **kwargs):
        if (dist < 0).any():
            calls.append("_level_sweep")
        return real_sweep(A, dist, *args, **kwargs)

    monkeypatch.setattr(csgraph, "shortest_path", paths)
    monkeypatch.setattr(graph_mod, "_bit_bfs", bits)
    monkeypatch.setattr(graph_mod, "_level_sweep", sweep)
    return calls


def make_instance(g, costs=None, budget=1.0):
    cost = np.ones(g.n) if costs is None else np.asarray(costs, dtype=np.float64)
    return CostedInstance(g, cost, float(budget))


def walk_case(seed):
    """A seeded gen_random instance and candidate pool (None or a whitelist).

    Costs cycle by seed through unit, integer, and fractional-or-zero.
    """
    rng = random.Random(seed + 7000)
    g = gen_random(rng.randint(4, 10), 0.4, seed=seed + 91)
    kind = seed % 3
    if kind == 0:
        costs = [1.0] * g.n
        budget = float(rng.randint(1, 4))
    elif kind == 1:
        costs = [float(rng.randint(1, 4)) for _ in range(g.n)]
        budget = float(rng.randint(1, 8))
    else:
        costs = [rng.choice([0.0, 0.1, 0.7, 1.3, 2.05]) for _ in range(g.n)]
        budget = rng.uniform(0.5, 4.0)
    cand = sorted(rng.sample(range(g.n), rng.randint(2, g.n))) if seed % 2 else None
    return make_instance(g, costs=costs, budget=budget), cand
