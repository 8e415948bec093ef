import itertools
import json

import numpy as np
import pytest

from mbckit import (
    CapExceededError,
    ContractViolationError,
    Graph,
    apsp,
    gbc_modified,
    gen_apx,
    gen_random,
    gen_random_costs,
    gen_random_tree,
    gen_tight,
)

from oracle_utils import covered_edges, dist_sigma_int


class TestTight:
    @pytest.mark.parametrize("k", [2, 3])
    def test_alpha_matches_path_counting(self, k):
        g, meta = gen_tight(k, l_s=4, l_t=2)
        dists, sigmas = dist_sigma_int(g.n, list(g.edge_list))
        for i, row_lab in enumerate(meta.row_labels):
            b = g.id_of[row_lab]
            for j, col_lab in enumerate(meta.col_labels):
                a = g.id_of[col_lab]
                assert dists[a][b] == 2 * (k - 1)
                assert sigmas[a][b] == meta.alpha[i][j]
            split = g.id_of[meta.split_labels[i]]
            assert dists[split][b] == 2 * (k - 1)
            assert sigmas[split][b] == meta.alpha[i][k]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_row_masses_and_st_sigma(self, k):
        g, meta = gen_tight(k, l_s=3, l_t=2)
        alpha = np.asarray(meta.alpha)
        assert alpha.shape == (k + 3, k + 1)
        assert (alpha.sum(axis=1) == k**k).all()
        assert meta.st_sigma == (k + 3) * k**k
        dists, sigmas = dist_sigma_int(g.n, list(g.edge_list))
        s = g.id_of[meta.source_labels[0]]
        t = g.id_of[meta.sink_labels[0]]
        assert dists[s][t] == 2 * k
        assert sigmas[s][t] == meta.st_sigma

    def test_frozen_alpha_rows(self):
        _, meta2 = gen_tight(2, l_s=3, l_t=2)
        assert list(meta2.alpha[0]) == [2, 1, 1]
        _, meta3 = gen_tight(3, l_s=3, l_t=2)
        assert list(meta3.alpha[0]) == [9, 6, 4, 8]

    def test_default_replication(self):
        g, meta = gen_tight(2)
        assert meta.l_s == 80 and meta.l_t == 40
        assert len(meta.source_labels) == 80
        assert len(meta.sink_labels) == 40

    def test_role_labels_and_whitelist(self):
        g, meta = gen_tight(3, l_s=4, l_t=2)
        assert len(meta.col_labels) == 3
        assert len(meta.row_labels) == 6
        assert len(meta.split_labels) == 6
        assert meta.opt_rows == meta.row_labels
        assert meta.whitelist == meta.col_labels + meta.row_labels
        for lab in meta.whitelist:
            assert lab in g.id_of

    def test_cliques_are_complete(self):
        g, meta = gen_tight(2, l_s=4, l_t=3)
        s_ids = g.ids(meta.source_labels)
        t_ids = g.ids(meta.sink_labels)
        for u, v in itertools.combinations(s_ids, 2):
            assert g.has_edge(u, v)
        for u, v in itertools.combinations(t_ids, 2):
            assert g.has_edge(u, v)
        # sources see every column and split, sinks see every row
        for s in s_ids:
            for lab in meta.col_labels + meta.split_labels:
                assert g.has_edge(s, g.id_of[lab])
        for t in t_ids:
            for lab in meta.row_labels:
                assert g.has_edge(t, g.id_of[lab])

    def test_validation_and_cap(self):
        with pytest.raises(ContractViolationError):
            gen_tight(1)
        with pytest.raises(CapExceededError):
            gen_tight(2, l_s=200_000, l_t=10)

    def test_meta_serialization(self):
        _, meta = gen_tight(2, l_s=3, l_t=2)
        doc = json.loads(meta.to_json())
        assert doc["k"] == 2
        assert doc["alpha"][0] == [2, 1, 1]
        assert doc["opt_rows"] == list(meta.row_labels)


class TestApx:
    def test_structure(self, p3):
        big, meta = gen_apx(p3, k=1, l=2)
        # copies clique with the original
        for lab, copies in meta.copies.items():
            ids = big.ids([lab, *copies])
            for u, v in itertools.combinations(ids, 2):
                assert big.has_edge(u, v)
        # hubs only touch copies, so their degree is 2l
        for hub_lab in meta.hubs.values():
            assert big.degree(big.id_of[hub_lab]) == 2 * meta.l
        assert len(meta.essential_pairs) == meta.l**2 * p3.n * (p3.n - 1)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_proportionality_identity(self, l, p4):
        big, meta = gen_apx(p4, k=1, l=l)
        pc = apsp(big)
        base_edges = list(p4.edge_list)
        for size in range(0, 4):
            for group_base in itertools.combinations(range(p4.n), size):
                group = big.ids([p4.labels[v] for v in group_base])
                got = gbc_modified(pc, meta.essential_pairs, group)
                cov = covered_edges(base_edges, set(group_base))
                assert got == 2 * l**2 * cov

    def test_auto_mode_requires_eps(self, p3):
        with pytest.raises(ContractViolationError):
            gen_apx(p3, k=1)

    def test_rejects_bool_l(self, p3):
        # True is no count: it would otherwise build l = 1
        with pytest.raises(ContractViolationError):
            gen_apx(p3, k=1, l=True)

    def test_meta_serialization(self, p3):
        _, meta = gen_apx(p3, k=1, l=1)
        doc = json.loads(meta.to_json())
        assert doc["l"] == 1
        assert set(doc["copies"]) == set(p3.labels)


class TestRandomFamilies:
    def test_gen_random_is_deterministic(self):
        a = gen_random(12, 0.3, seed=7)
        b = gen_random(12, 0.3, seed=7)
        c = gen_random(12, 0.3, seed=8)
        assert a.edge_list == b.edge_list
        assert a.labels == b.labels
        assert c.edge_list != a.edge_list

    def test_gen_random_connected_even_at_p_zero(self):
        g = gen_random(10, 0.0, seed=0)
        assert g.n == 10 and g.m == 9

    def test_gen_random_labels_cover_range(self):
        g = gen_random(15, 0.2, seed=3)
        assert sorted(int(lab) for lab in g.labels) == list(range(15))

    def test_gen_random_tree_shape(self):
        for seed in range(5):
            g = gen_random_tree(9, seed=seed)
            assert g.n == 9 and g.m == 8

    def test_gen_random_tree_deterministic(self):
        assert gen_random_tree(9, seed=2).edge_list == gen_random_tree(9, seed=2).edge_list

    def test_gen_random_costs(self):
        g = gen_random_tree(8, seed=1)
        costs = gen_random_costs(g, seed=4)
        assert set(costs) == set(g.labels)
        assert all(v == int(v) and 0 <= v <= 5 for v in costs.values())
        assert costs == gen_random_costs(g, seed=4)
        assert costs != gen_random_costs(g, seed=5)

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            gen_random(1, 0.5, seed=0)
        with pytest.raises(ContractViolationError):
            gen_random(5, 1.5, seed=0)
        with pytest.raises(CapExceededError):
            gen_random(200_000, 0.0, seed=0)
