"""The twin quotient behind apsp and the avoiding counts.

The dense functions below are the level sweep over the whole graph that
apsp and gbc._avoiding_counts ran before the quotient.  They are kept as
the reference: every count is an integer below 2**53, so the quotient
must match them bit for bit, and gbc_direct and gbc_modified, which sum
the same ratios in the same order, must match exactly too.
"""

import itertools
import random

import numpy as np
import pytest
from scipy.sparse import csgraph

import mbckit.graph as graph_mod
from mbckit import CapExceededError, Graph, apsp, cli, gbc_direct, gbc_modified
from mbckit.generators import gen_apx, gen_random, gen_random_tree, gen_tight
from mbckit.graph import _quotient, _twin_classes, parse_graph


def dense_sweep(A, dist, X, blocked=None):
    top = int(dist.max())
    src = dist == 0
    for d in range(1, top + 1):
        at = dist == d
        np.copyto(X, A @ np.where(src, X, 0.0), where=at)
        if blocked is not None:
            X[blocked] = 0.0
        src = at
    return X


def dense_apsp(g):
    A = g.csr()
    dist = csgraph.shortest_path(A, method="D", unweighted=True, directed=False)
    dist = dist.astype(np.int64)
    return dist, dense_sweep(A, dist, np.eye(g.n))


def dense_avoiding(g, dist, blocked):
    return dense_sweep(g.csr(), dist, np.diag((~blocked).astype(np.float64)), blocked)


def dense_gbc_direct(g, dist, sigma, group):
    blocked = np.zeros(g.n, dtype=bool)
    blocked[list(group)] = True
    if not blocked.any():
        return 0.0
    ratio = dense_avoiding(g, dist, blocked) / sigma
    return float(g.n * (g.n - 1) - (float(ratio.sum()) - float(np.trace(ratio))))


def dense_gbc_modified(g, dist, sigma, pairs, group):
    blocked = np.zeros(g.n, dtype=bool)
    blocked[list(group)] = True
    if not pairs or not blocked.any():
        return 0.0
    ss = np.array([p[0] for p in pairs])
    tt = np.array([p[1] for p in pairs])
    F = dense_avoiding(g, dist, blocked)
    return float((1.0 - F[ss, tt] / sigma[ss, tt]).sum())


def grid(r, c):
    return Graph(
        [(f"{i},{j}", f"{i},{j + 1}") for i in range(r) for j in range(c - 1)]
        + [(f"{i},{j}", f"{i + 1},{j}") for i in range(r - 1) for j in range(c)]
    )


def path(n):
    return Graph([(str(i), str(i + 1)) for i in range(n - 1)])


def star(leaves):
    return Graph([("c", str(i)) for i in range(leaves)])


def k2_chain(gadgets, width):
    """Hubs h0..h_gadgets, consecutive hubs joined through `width` middles."""
    return Graph(
        [(f"h{i}", f"m{i}_{j}") for i in range(gadgets) for j in range(width)]
        + [(f"m{i}_{j}", f"h{i + 1}") for i in range(gadgets) for j in range(width)]
    )


def twin_groups(g, rng):
    """Groups that take whole twin classes, part of one, or none of any."""
    cls = _twin_classes(g)[0]
    members = [np.flatnonzero(cls == c).tolist() for c in range(cls.max() + 1)]
    twins = [m for m in members if len(m) > 1]
    singles = [m[0] for m in members if len(m) == 1]
    out = [list(range(g.n)), [rng.randrange(g.n)], rng.sample(range(g.n), max(1, g.n // 4))]
    if singles:
        out.append(rng.sample(singles, max(1, len(singles) // 3)))
    if twins:
        whole = rng.choice(twins)
        part = rng.choice(twins)
        out.append(whole)
        out.append(part[: max(1, len(part) // 2)])
        out.append(whole + part[1:] + singles[:2])
    return out


def twin_pairs(g, rng, count):
    """Ordered pairs, with every pair inside a small twin class."""
    cls = _twin_classes(g)[0]
    pairs = {
        (s, t)
        for c in range(cls.max() + 1)
        for s, t in itertools.permutations(np.flatnonzero(cls == c).tolist()[:4], 2)
    }
    while len(pairs) < count:
        s, t = rng.sample(range(g.n), 2)
        pairs.add((s, t))
    return sorted(pairs)


def _graph_cases():
    cases = [
        (f"random-{s}", lambda s=s: gen_random(8 + 5 * s, 0.15 + 0.05 * (s % 4), seed=s))
        for s in range(6)
    ]
    cases += [(f"tree-{s}", lambda s=s: gen_random_tree(10 + 12 * s, seed=s)) for s in range(4)]
    cases += [("grid-4x5", lambda: grid(4, 5)), ("grid-2x9", lambda: grid(2, 9))]
    cases += [("path-2", lambda: path(2)), ("path-17", lambda: path(17))]
    cases += [(f"star-{k}", lambda k=k: star(k)) for k in (1, 3, 30, 40)]
    cases += [("k6", lambda: Graph([(str(i), str(j)) for i in range(6) for j in range(i + 1, 6)]))]
    cases += [("k2-chain", lambda: k2_chain(5, 4))]
    return cases


@pytest.fixture(params=["default", "forced"])
def min_twins(request, monkeypatch):
    """Run the default quotient rule, and once with every twin class used."""
    if request.param == "forced":
        monkeypatch.setattr(graph_mod, "_MIN_TWINS", 0)
    return request.param


def assert_matches_dense(g, rng, n_pairs=40):
    pc = apsp(g)
    dist, sigma = dense_apsp(g)
    assert pc.dist.dtype == dist.dtype and np.array_equal(pc.dist, dist)
    assert np.array_equal(pc.sigma, sigma)
    pairs = twin_pairs(g, rng, min(n_pairs, g.n * (g.n - 1)))
    for group in twin_groups(g, rng):
        assert gbc_direct(pc, group) == dense_gbc_direct(g, dist, sigma, group)
        assert gbc_modified(pc, pairs, group) == dense_gbc_modified(g, dist, sigma, pairs, group)


class TestBitIdentity:
    @pytest.mark.parametrize("name,make", _graph_cases(), ids=[c[0] for c in _graph_cases()])
    def test_small_graphs(self, name, make, min_twins):
        assert_matches_dense(make(), random.Random(name))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tight_family(self, k):
        g, _ = gen_tight(k)
        assert not _quotient(g).identity
        assert_matches_dense(g, random.Random(k), n_pairs=60)

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_apx_blow_ups(self, l, seed, min_twins):
        base = gen_random(5 + seed, 0.5, seed=seed)
        big, meta = gen_apx(base, k=1, l=l)
        rng = random.Random(10 * l + seed)
        assert_matches_dense(big, rng)
        pc = apsp(big)
        dist, sigma = dense_apsp(big)
        pairs = list(meta.essential_pairs)
        for size in range(3):
            for group_base in itertools.combinations(range(base.n), size):
                group = big.ids([base.labels[v] for v in group_base])
                want = dense_gbc_modified(big, dist, sigma, pairs, group)
                assert gbc_modified(pc, meta.essential_pairs, group) == want


class TestEngagement:
    @pytest.mark.parametrize("k,q", [(2, 29), (3, 89), (4, 195)])
    def test_tight_class_counts(self, k, q):
        g, _ = gen_tight(k)
        assert _quotient(g).q == q
        assert len(_twin_classes(g)[1]) == q

    def test_sweeps_run_on_class_columns(self, monkeypatch):
        shapes = []
        real = graph_mod._level_sweep

        def counting(A, dist, X, *args, **kwargs):
            shapes.append(X.shape)
            return real(A, dist, X, *args, **kwargs)

        monkeypatch.setattr(graph_mod, "_level_sweep", counting)
        g, _ = gen_tight(3)
        pc = apsp(g)
        assert shapes == [(89, 89)]
        gbc_direct(pc, [0, 5, 200])
        gbc_modified(pc, [(0, 1), (7, 300)], [5, 200])
        assert shapes == [(89, 89)] * 3
        assert pc.sigma.shape == (g.n, g.n)

    def test_classes_built_once_and_not_at_construction(self, monkeypatch):
        calls = []
        real = graph_mod._twin_classes

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graph_mod, "_twin_classes", counting)
        g, _ = gen_tight(2)
        h = parse_graph("a b\nb c\nc a\nc d\n")
        assert calls == [] and g._quotient is None and h._quotient is None
        pc = apsp(g)
        apsp(g)
        gbc_direct(pc, [1, 2])
        gbc_modified(pc, [(0, 1)], [3])
        assert calls == [g]

    def test_twin_free_graph_is_its_own_quotient(self, monkeypatch):
        swept = []
        real = graph_mod._level_sweep

        def recording(*args, **kwargs):
            swept.append(real(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(graph_mod, "_level_sweep", recording)
        g = gen_random(60, 0.2, seed=4)
        cls, reps, within = _twin_classes(g)
        assert len(reps) == g.n and not within.any()
        qt = _quotient(g)
        assert qt.identity and qt.q == g.n and qt.adj is g.csr()
        pc = apsp(g)
        assert pc.sigma is swept[0]
        assert pc.dist is qt.dist

    def test_few_twins_run_the_plain_sweep(self):
        # its leaves are one class, but one that removes too few nodes
        g = star(graph_mod._MIN_TWINS)
        assert len(_twin_classes(g)[1]) == 2
        assert _quotient(g).identity
        g = star(graph_mod._MIN_TWINS + 1)
        assert _quotient(g).q == 2

    @pytest.mark.parametrize("name,make", _graph_cases(), ids=[c[0] for c in _graph_cases()])
    def test_fingerprint_collisions_are_checked(self, name, make, monkeypatch):
        # with one salt for every node, all fingerprints of equal degree
        # collide, and only the exact comparison tells the classes apart
        g = make()
        want = _twin_classes(g)
        monkeypatch.setattr(graph_mod, "_salts", lambda n: np.ones(n, dtype=np.uint64))
        got = _twin_classes(g)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_twin_kinds(self):
        cls, reps, within = _twin_classes(star(3))
        assert cls.tolist() == [0, 1, 1, 1] and within.tolist() == [0, 2]
        k4 = Graph([(str(i), str(j)) for i in range(4) for j in range(i + 1, 4)])
        cls, reps, within = _twin_classes(k4)
        assert cls.tolist() == [0, 0, 0, 0] and reps.tolist() == [0] and within.tolist() == [1]


class TestOverflow:
    def test_apsp_refuses_infinite_counts(self):
        g = k2_chain(174, 60)
        assert g.n == 10_615
        with pytest.raises(CapExceededError, match="overflow"):
            apsp(g)
        assert _quotient(g).q == 349
        assert g._counts is None

    def test_gbc_command_exits_three(self, capsys, tmp_path):
        g = k2_chain(174, 60)
        doc = tmp_path / "chain.txt"
        doc.write_text("".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.edge_list))
        code = cli.main(["gbc", "-g", str(doc), "--set", "h0"])
        assert code == 3
        assert "overflow" in capsys.readouterr().err
