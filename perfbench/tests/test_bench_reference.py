"""The benchmark's independent evaluator agrees with mbckit.gbc_direct."""

import random

import pytest
import reference

import mbckit as mb


def _graphs():
    out = {f"random{seed}": mb.gen_random(8 + 3 * seed, 0.25, seed) for seed in range(6)}
    out["tree"] = mb.gen_random_tree(25, 3)
    out["grid"] = mb.Graph(
        [(f"{r}_{c}", f"{r}_{c + 1}") for r in range(5) for c in range(4)]
        + [(f"{r}_{c}", f"{r + 1}_{c}") for r in range(4) for c in range(5)]
    )
    out["tight2"] = mb.gen_tight(2)[0]
    return out


GRAPHS = _graphs()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_reference_matches_gbc_direct(name):
    g = GRAPHS[name]
    doc = reference.load_document(mb.to_instance_json(g))
    rng = random.Random(name)
    groups = [[]] + [rng.sample(doc.labels, rng.randint(1, min(6, doc.n))) for _ in range(6)]
    groups.append(list(doc.labels))
    want_pc = mb.apsp(g)
    got = reference.gbc_values(doc.adj, [[doc.id_of[x] for x in grp] for grp in groups])
    for grp, value in zip(groups, got):
        want = mb.gbc_direct(want_pc, g.ids(grp))
        assert value == pytest.approx(want, rel=1e-12, abs=1e-9)
    assert got[-1] == doc.n * (doc.n - 1)


def test_reference_rejects_disconnected_graph():
    adj = (frozenset({1}), frozenset({0}), frozenset())
    with pytest.raises(ValueError):
        reference.gbc_values(adj, [[0]])


def test_digests_are_stable_and_order_free():
    g = mb.gen_random(15, 0.3, 1)
    text = mb.to_instance_json(g)
    a = reference.instance_digest(reference.load_document(text))
    b = reference.instance_digest(reference.load_document(text))
    assert a == b and a["n"] == g.n and a["m"] == g.m
    ans = {"x": {"nodes": ["1"], "order": ["1"], "value": 1 / 3}}
    assert reference.answers_digest(ans) == reference.answers_digest(dict(ans))
    moved = {"x": {"nodes": ["1"], "order": ["1"], "value": 1 / 3 + 1e-9}}
    assert reference.answers_digest(ans) != reference.answers_digest(moved)
