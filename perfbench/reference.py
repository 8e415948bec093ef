"""Independent checks of benchmark answers.

Everything here is plain Python and shares no code with mbckit: the
instance documents are read with ``json``, group betweenness is
recomputed by one breadth-first search per source with exact integer
path counts, and digests are SHA-256 over canonical JSON.  The checks
run after the timed requests, never inside them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Document:
    """An instance document as the benchmark reads it back."""

    labels: tuple[str, ...]
    id_of: dict
    adj: tuple[frozenset, ...]
    edges: tuple[tuple[str, str], ...]
    costs: dict | None
    budget: float | None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)


def load_document(text: str) -> Document:
    """Read the JSON instance format: {"edges": [[u, v], ...], "costs", "budget"}."""
    doc = json.loads(text)
    id_of: dict[str, int] = {}
    edges = []
    for u, v in doc["edges"]:
        u, v = str(u), str(v)
        for lab in (u, v):
            id_of.setdefault(lab, len(id_of))
        edges.append((u, v))
    adj: list[set[int]] = [set() for _ in id_of]
    for u, v in edges:
        adj[id_of[u]].add(id_of[v])
        adj[id_of[v]].add(id_of[u])
    costs = doc.get("costs")
    if costs is not None:
        costs = {str(k): float(x) for k, x in costs.items()}
    budget = doc.get("budget")
    return Document(
        labels=tuple(id_of),
        id_of=id_of,
        adj=tuple(frozenset(a) for a in adj),
        edges=tuple(edges),
        costs=costs,
        budget=None if budget is None else float(budget),
    )


def gbc_values(adj, groups) -> list[float]:
    """Group betweenness of each group, ordered pairs, endpoints included.

    For every source s one level-by-level search yields sigma(s, t) and,
    per group, the number of shortest s-t paths that meet no member;
    GBC(C) = sum over t != s of 1 - avoiding / sigma.  A path contains
    its endpoints, so a member source or target avoids nothing.
    """
    n = len(adj)
    masks = [frozenset(g) for g in groups]
    partial: list[list[float]] = [[] for _ in masks]
    for s in range(n):
        sigma = [0] * n
        sigma[s] = 1
        avoid = [[0] * n for _ in masks]
        for av, mask in zip(avoid, masks):
            av[s] = 0 if s in mask else 1
        seen = {s}
        level = {s}
        while level:
            nxt = set().union(*map(adj.__getitem__, level))
            nxt -= seen
            seen |= nxt
            for w in nxt:
                preds = adj[w] & level
                sigma[w] = sum(map(sigma.__getitem__, preds))
                for av, mask in zip(avoid, masks):
                    if w not in mask:
                        av[w] = sum(map(av.__getitem__, preds))
            level = nxt
        if len(seen) != n:
            raise ValueError("graph is disconnected")
        for out, av in zip(partial, avoid):
            # the t = s term is 1 - avoid[s]: one for a member source, else zero
            out.append(math.fsum((a - b) / a for a, b in zip(sigma, av)) - (1 - av[s]))
    return [math.fsum(p) for p in partial]


def instance_digest(doc: Document) -> dict:
    """(n, m, hash of the sorted undirected edge list) of one instance."""
    canon = sorted(tuple(sorted(e)) for e in doc.edges)
    blob = json.dumps(canon, separators=(",", ":")).encode()
    return {"n": doc.n, "m": doc.m, "edges_sha256": hashlib.sha256(blob).hexdigest()}


def value_12g(x: float) -> str:
    """A value at 12 significant digits, the precision of the CLI report."""
    return f"{float(x):.12g}"


def answers_digest(answers: dict) -> str:
    """Hash of every request's node tuple, addition order and value."""
    rows = [
        [name, list(a["nodes"]), list(a["order"]), value_12g(a["value"])]
        for name, a in sorted(answers.items())
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
