"""The twin quotient behind apsp and the avoiding counts.

The dense functions below are the level sweep over the whole graph that
apsp and gbc._avoiding_counts ran before the quotient.  They are kept as
the reference: every count is an integer below 2**53, so the quotient
must match them bit for bit, and gbc_direct and gbc_modified, which sum
the same ratios in the same order, must match exactly too.  That holds
under either forward kernel, the sparse product sweep and the
level-indexed gather, so the bit-identity tests run again under each.
"""

import itertools
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csgraph

import mbckit.graph as graph_mod
import mbckit.tree as tree_mod
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


@pytest.fixture(params=["sparse", "gather"])
def kernel(request, monkeypatch):
    """Force one forward kernel on every quotient."""
    gathers = request.param == "gather"
    monkeypatch.setattr(graph_mod._Quotient, "gathers", lambda self: gathers)
    return request.param


@pytest.mark.usefixtures("kernel")
class TestBitIdentityPerKernel(TestBitIdentity):
    """TestBitIdentity again, once under each forced kernel."""


def _bench_sized_cases():
    return [
        ("grid-20x20", lambda: grid(20, 20)),
        ("path-200", lambda: path(200)),
        ("path-90", lambda: path(90)),
        ("k2-chain-40", lambda: k2_chain(40, 4)),
    ]


def kernel_calls(monkeypatch):
    """Record the name of each forward kernel as it runs."""
    calls = []
    for name in ("_level_sweep", "_level_gather"):
        real = getattr(graph_mod, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(graph_mod, name, counting)
    return calls


class TestKernels:
    @pytest.mark.parametrize(
        "name,make", _bench_sized_cases(), ids=[c[0] for c in _bench_sized_cases()]
    )
    def test_bench_sized_graphs_match_dense(self, name, make, kernel):
        g = make()
        if name.startswith("k2"):
            assert not _quotient(g).identity
        assert_matches_dense(g, random.Random(name))

    @pytest.mark.parametrize(
        "name,make", _bench_sized_cases(), ids=[c[0] for c in _bench_sized_cases()]
    )
    def test_high_diameter_graphs_gather(self, name, make, monkeypatch):
        calls = kernel_calls(monkeypatch)
        g = make()
        pc = apsp(g)
        gbc_direct(pc, [0, g.n // 2])
        gbc_modified(pc, [(0, g.n - 1), (1, 2)], [g.n // 2])
        assert calls == ["_level_gather"] * 3

    @pytest.mark.parametrize(
        "make",
        [lambda s=s: gen_random(120, 14 / 119, seed=s) for s in range(5)]
        + [lambda: gen_tight(3)[0], lambda: gen_tight(2)[0]]
        + [lambda s=s: gen_random_tree(32, s) for s in range(8)],
        ids=[f"random-120-{s}" for s in range(5)]
        + ["tight-3", "tight-2"]
        + [f"tree-32-{s}" for s in range(8)],
    )
    def test_low_diameter_graphs_keep_the_sparse_sweep(self, make, monkeypatch):
        # er-greedy's graphs, the tight family and tree-dp's 32-node trees
        calls = kernel_calls(monkeypatch)
        g = make()
        pc = apsp(g)
        gbc_direct(pc, [0, 5])
        gbc_modified(pc, [(0, 1), (7, 3)], [5])
        assert calls == ["_level_sweep"] * 3
        assert _quotient(g)._index is None

    def test_level_index_is_built_once(self, monkeypatch):
        g = grid(6, 9)
        qt = _quotient(g)
        assert qt.gathers()
        pc = apsp(g)
        index = qt._index
        order, bounds, nbrs = index
        assert len(bounds) == qt.top + 2 and bounds[-1] == qt.q * qt.q
        assert np.array_equal(qt.dist.ravel()[order], np.sort(qt.dist.ravel()))
        assert nbrs.shape == (4, qt.q)
        gbc_direct(pc, [3])
        gbc_modified(pc, [(0, 1)], [3])
        assert qt._index is index


def cycle(n):
    return Graph([(str(i), str((i + 1) % n)) for i in range(n)])


def caterpillar(spine, legs):
    """A path of `spine` nodes with `legs` leaves on each."""
    return Graph(
        [(f"s{i}", f"s{i + 1}") for i in range(spine - 1)]
        + [(f"s{i}", f"l{i}_{j}") for i in range(spine) for j in range(legs)]
    )


def _bit_bfs_cases():
    cases = [(f"grid-{r}x{c}", lambda r=r, c=c: grid(r, c))
             for r, c in ((3, 100), (5, 40), (8, 8), (20, 20), (1, 2))]
    cases += [(f"path-{n}", lambda n=n: path(n)) for n in (2, 3, 63, 64, 65, 128, 129, 300)]
    cases += [(f"cycle-{n}", lambda n=n: cycle(n)) for n in (3, 4, 64, 65, 151)]
    cases += [(f"ladder-{n}", lambda n=n: grid(2, n)) for n in (32, 90)]
    cases += [(f"caterpillar-{n}x{k}", lambda n=n, k=k: caterpillar(n, k))
              for n, k in ((30, 1), (40, 3))]
    cases += [(f"tree-{n}-{s}", lambda n=n, s=s: gen_random_tree(n, s))
              for n, s in ((10, 0), (32, 1), (65, 2), (256, 1))]
    cases += [(f"random-{n}-{s}", lambda n=n, p=p, s=s: gen_random(n, p, seed=s))
              for n, p, s in ((20, 0.3, 1), (64, 0.1, 2), (120, 14 / 119, 0), (300, 8 / 299, 1))]
    cases += [(f"tight-{k}", lambda k=k: gen_tight(k)[0]) for k in (2, 3)]
    cases += [("apx", lambda: gen_apx(gen_random(30, 0.2, seed=1), k=1, l=3)[0])]
    cases += [("k5", lambda: Graph([(str(i), str(j)) for i in range(5) for j in range(i + 1, 5)]))]
    return cases


def assert_bits_match_dijkstra(A):
    q = A.shape[0]
    dist, top = graph_mod._bit_bfs(A, q, int(np.diff(A.indptr).max()))
    want = csgraph.shortest_path(A, method="D", unweighted=True, directed=True).astype(np.int64)
    assert dist.dtype == np.int64 and np.array_equal(dist, want)
    assert type(top) is int and top == int(want.max())


class TestBitBfs:
    @pytest.mark.parametrize("name,make", _bit_bfs_cases(), ids=[c[0] for c in _bit_bfs_cases()])
    def test_matches_dijkstra(self, name, make, min_twins):
        g = make()
        qt = _quotient(g)
        assert_bits_match_dijkstra(qt.adj)
        if not qt.identity:
            assert_bits_match_dijkstra(g.csr())
        if name == "k5" and min_twins == "forced":
            assert qt.q == 1 and qt.degree == 0
        if name.startswith("path-6"):
            assert qt.q == int(name[5:])  # at the 64-bit word boundary

    def test_bench_graphs_choose_their_distance_step(self, bfs_calls):
        # hd-eval's grids take the bit BFS; its 200-node path and
        # tree-dp's 90-node path keep Dijkstra
        for make, step in (
            (lambda: grid(20, 20), "_bit_bfs"),
            (lambda: grid(15, 15), "_bit_bfs"),
            (lambda: path(200), "shortest_path"),
            (lambda: path(90), "shortest_path"),
        ):
            bfs_calls.clear()
            g = make()
            assert _quotient(g).gathers()
            apsp(g)
            assert bfs_calls == [step]

    @pytest.mark.parametrize(
        "make",
        [lambda s=s: gen_random(120, 14 / 119, seed=s) for s in range(3)]
        + [lambda: gen_tight(2)[0], lambda: gen_tight(3)[0]],
        ids=[f"random-120-{s}" for s in range(3)] + ["tight-2", "tight-3"],
    )
    def test_sparse_graphs_never_reach_it(self, make, bfs_calls):
        # er-greedy's and tight-restart's graphs find their levels in the sweep
        g = make()
        pc = apsp(g)
        gbc_direct(pc, [0, 5])
        assert bfs_calls == ["_level_sweep"]

    @pytest.mark.parametrize("step", ["default", "dijkstra"])
    def test_distance_step_peak_is_counted(self, monkeypatch, step):
        g = grid(40, 40)
        needs = []
        real = graph_mod._check_bytes

        def recording(need, what):
            needs.append(need)
            return real(need, what)

        monkeypatch.setattr(graph_mod, "_check_bytes", recording)
        if step == "dijkstra":
            monkeypatch.setattr(graph_mod._Quotient, "bitwise", lambda self: False)
        tracemalloc.start()
        try:
            qt = _quotient(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q = qt.q
        assert qt.gathers() and qt.bitwise() is (step == "default")
        assert len(needs) == 1 and peak <= needs[0]
        if step == "default":  # below Dijkstra's float64 array and its int64 cast
            assert peak < 16 * q * q
            # the search alone, past the dist it returns, within its count
            tracemalloc.start()
            try:
                graph_mod._bit_bfs(qt.adj, q, qt.degree)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - 8 * q * q <= graph_mod._bit_bfs_bytes(q, qt.degree, 2 * qt.e0)


@pytest.fixture(params=["bits", "dijkstra"])
def distance_step(request, monkeypatch):
    """Force the gather on every quotient, with one distance step."""
    bits = request.param == "bits"
    monkeypatch.setattr(graph_mod._Quotient, "gathers", lambda self: True)
    monkeypatch.setattr(graph_mod._Quotient, "bitwise", lambda self: bits)
    return request.param


@pytest.mark.usefixtures("distance_step")
class TestBitIdentityPerDistanceStep(TestBitIdentity):
    """TestBitIdentity again on the gather, once from each distance step."""


class TestOverflowThroughTheGather:
    def test_chain_overflows_on_the_gather_without_warnings(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        g = k2_chain(174, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceededError, match="overflow"):
                apsp(g)
        assert calls == ["_level_gather"]
        assert g._counts is None

    def test_nan_counts_are_refused(self, monkeypatch):
        # inf times a zero weight is NaN; it must not pass for a count
        g = path(30)
        real = graph_mod._Quotient.sweep

        def poisoned(self, blocked=None):
            X = real(self, blocked)
            X[3, 7] = np.nan
            return X

        monkeypatch.setattr(graph_mod._Quotient, "sweep", poisoned)
        with pytest.raises(CapExceededError, match="overflow"):
            apsp(g)
        assert g._counts is None


@pytest.mark.usefixtures("kernel")
@pytest.mark.parametrize("kernel", ["sparse"], indirect=True)
class TestOverflowOnTheSparseSweep(TestOverflow):
    """TestOverflow again, and the finite check, under the sparse sweep,
    which finds the levels as it counts."""

    def test_chain_overflows_without_warnings(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        g = k2_chain(174, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceededError, match="overflow"):
                apsp(g)
        assert calls == ["_level_sweep"]
        assert g._counts is None

    test_nan_counts_are_refused = TestOverflowThroughTheGather.test_nan_counts_are_refused


def _fused_cases():
    cases = [(f"random-120-{s}", lambda s=s: gen_random(120, 14 / 119, seed=s)) for s in range(3)]
    cases += [("random-300", lambda: gen_random(300, 8 / 299, seed=1))]
    cases += [(f"tree-32-{s}", lambda s=s: gen_random_tree(32, s)) for s in range(3)]
    cases += [("tree-256", lambda: gen_random_tree(256, 1))]
    cases += [("tight-2", lambda: gen_tight(2)[0]), ("tight-3", lambda: gen_tight(3)[0])]
    cases += [("apx", lambda: gen_apx(gen_random(30, 0.2, seed=1), k=1, l=3)[0])]
    cases += [("star", lambda: star(graph_mod._MIN_TWINS + 8))]
    cases += [("k5", lambda: Graph([(str(i), str(j)) for i in range(5) for j in range(i + 1, 5)]))]
    cases += [("edge", lambda: path(2))]
    return cases


class TestFusedSweep:
    """The sparse sweep finds the levels as it counts: its dist must be
    scipy's and its counts the dense sweep's, bit for bit."""

    @pytest.mark.parametrize("name,make", _fused_cases(), ids=[c[0] for c in _fused_cases()])
    def test_levels_and_counts_match(self, name, make, bfs_calls):
        g = make()
        qt = _quotient(g)
        assert not qt.gathers()
        assert qt.top is None and (qt.dist < 0).sum() == qt.q * (qt.q - 1)
        pc = apsp(g)
        assert bfs_calls == ["_level_sweep"]  # scipy computed no distance
        want = csgraph.shortest_path(qt.adj, method="D", unweighted=True, directed=False)
        assert qt.dist.dtype == np.int64 and np.array_equal(qt.dist, want.astype(np.int64))
        assert qt.top == int(want.max()) and not qt.dist.flags.writeable
        if name == "k5":
            assert qt.top == 1
        dist, sigma = dense_apsp(g)
        assert np.array_equal(pc.dist, dist) and np.array_equal(pc.sigma, sigma)

    def test_a_blocked_sweep_first_finds_the_levels_unblocked(self, bfs_calls):
        # a blocked sweep cannot find levels: a blocked node delays the
        # first flow past an entry's distance
        g = gen_random(60, 0.2, seed=4)
        qt = _quotient(g)
        blocked = np.arange(g.n) == 7
        X = qt.sweep(blocked)
        assert bfs_calls == ["_level_sweep"] and qt.top is not None
        dist, _ = dense_apsp(g)
        assert np.array_equal(qt.dist, dist)
        assert np.array_equal(X, dense_avoiding(g, dist, blocked))


class TestDenseGuard:
    def test_tree_dp_shares_the_cap(self):
        assert tree_mod._TABLE_BYTES_CAP == graph_mod._BYTES_CAP == 1 << 30

    def test_apsp_refuses_arrays_over_the_cap(self, monkeypatch):
        g = path(50)
        monkeypatch.setattr(graph_mod, "_BYTES_CAP", 16 * g.n * g.n - 1)
        with pytest.raises(CapExceededError, match="cap") as exc:
            apsp(g)
        assert exc.value.count > graph_mod._BYTES_CAP
        assert g._counts is None

    def test_level_index_counts(self, monkeypatch):
        g = grid(20, 20)
        monkeypatch.setattr(graph_mod, "_BYTES_CAP", 16 * g.n * g.n + 1000)
        with pytest.raises(CapExceededError, match="cap"):
            apsp(g)
        assert g._quotient is None and g._counts is None  # nothing was built
        h = gen_random(120, 14 / 119, seed=0)  # sparse sweep: no index
        monkeypatch.setattr(graph_mod, "_BYTES_CAP", 16 * h.n * h.n)
        assert apsp(h).sigma.shape == (h.n, h.n)

    @pytest.mark.parametrize(
        "make, gathers",
        [(lambda: grid(40, 40), True), (lambda: gen_random(1500, 0.01, seed=0), False)],
        ids=["grid-gather", "random-sparse"],
    )
    def test_refuses_before_any_class_array(self, monkeypatch, make, gathers):
        g = make()
        monkeypatch.setattr(graph_mod, "_BYTES_CAP", 16 * g.n * g.n - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="cap"):
                apsp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._quotient is None and g._counts is None
        monkeypatch.undo()
        qt = _quotient(g)
        assert qt.gathers() is gathers
        assert peak < 8 * qt.q * qt.q  # below one q x q float64 array

    def test_gbc_command_exits_three(self, capsys, tmp_path, monkeypatch):
        g = path(30)
        doc = tmp_path / "path.txt"
        doc.write_text("".join(f"{g.labels[u]} {g.labels[v]}\n" for u, v in g.edge_list))
        monkeypatch.setattr(graph_mod, "_BYTES_CAP", 1000)
        code = cli.main(["gbc", "-g", str(doc), "--set", "5"])
        assert code == 3
        assert "cap" in capsys.readouterr().err
