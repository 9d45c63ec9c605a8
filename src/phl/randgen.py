"""Seeded random instances for property-style sweeps."""

from __future__ import annotations

import random

from .construction import ConstructionSpec
from .poset import Poset, _transitive_hull, induced, is_connected, is_convex


def random_poset(rng: random.Random, n: int, density: float = 0.3) -> Poset:
    """Random n-element poset: random DAG edges closed under transitivity.

    Edges only point from lower to higher index, so antisymmetry is free.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
    rows = _transitive_hull(rows)
    labels = tuple(f"x{i}" for i in range(n))
    return Poset(labels, rows)


def random_connected_poset(rng: random.Random, n: int, density: float = 0.3) -> Poset:
    """Random poset retried until the comparability graph is connected."""
    if n <= 1:
        return random_poset(rng, n, density)
    while True:
        p = random_poset(rng, n, density)
        if is_connected(p):
            return p


def random_construction_spec(
    rng: random.Random, max_p: int = 4, max_q: int = 3
) -> ConstructionSpec:
    """Random valid grafting spec: convex A in P, convex B in Q, matching shapes.

    Retries until an order-isomorphic convex pair is found; small sizes keep
    that cheap.
    """
    from .canonical import canonical_form
    from .homs import enumerate_maps

    while True:
        p = random_poset(rng, rng.randint(1, max_p))
        q = random_poset(rng, rng.randint(1, max_q))
        convex_a = _convex_subsets(p)
        convex_b = _convex_subsets(q)
        by_code: dict[bytes, list[tuple[int, ...]]] = {}
        for b in convex_b:
            by_code.setdefault(canonical_form(induced(q, b)), []).append(b)
        pairs = []
        for a in convex_a:
            code = canonical_form(induced(p, a))
            for b in by_code.get(code, ()):
                pairs.append((a, b))
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        sub_a = induced(p, a)
        sub_b = induced(q, b)
        isos = [m for m in enumerate_maps("emb", sub_a, sub_b) if m.is_onto]
        if not isos:
            continue
        iso = rng.choice(isos)
        # route through from_labels so the colliding x-labels get namespaced
        a_labels = [p.labels[i] for i in a]
        b_labels = [q.labels[i] for i in b]
        beta_labels = {p.labels[a[i]]: q.labels[b[iso.map[i]]] for i in range(len(a))}
        return ConstructionSpec.from_labels(p, q, a_labels, b_labels, beta_labels)


def _convex_subsets(p: Poset) -> list[tuple[int, ...]]:
    subsets: list[tuple[int, ...]] = []
    for mask in range(1, 1 << p.n):
        idx = tuple(i for i in range(p.n) if (mask >> i) & 1)
        if is_convex(p, idx):
            subsets.append(idx)
    return subsets
