"""Seeded input generator of the benchmark, independent of phl.

A poset is a list of up rows: row i is a bitmask of every j with
i <= j.  Nothing in this module imports phl, so a change to phl (its
random generators included) cannot shift any workload, and the helpers
used as references (closure, ev_size, isomorphic) stay independent of
the code under test.
"""

from __future__ import annotations

import random
from itertools import permutations


def closure(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as bitmask rows."""
    rows = [r | (1 << i) for i, r in enumerate(rows)]
    for k, rk in enumerate(rows):
        bit = 1 << k
        for i in range(len(rows)):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def is_connected(rows: list[int]) -> bool:
    n = len(rows)
    down = [0] * n
    for i, r in enumerate(rows):
        for j in range(n):
            if (r >> j) & 1:
                down[j] |= 1 << i
    seen, frontier = 1, [0]
    while frontier:
        x = frontier.pop()
        nbrs = (rows[x] | down[x]) & ~seen
        seen |= nbrs
        frontier.extend(j for j in range(n) if (nbrs >> j) & 1)
    return n > 0 and seen == (1 << n) - 1


def induced(rows: list[int], keep: list[int]) -> list[int]:
    """Rows of the subposet on the sorted index list keep."""
    out = []
    for i in keep:
        row = 0
        for new, j in enumerate(keep):
            if (rows[i] >> j) & 1:
                row |= 1 << new
        out.append(row)
    return out


def direct_sum(a: list[int], b: list[int]) -> list[int]:
    return list(a) + [r << len(a) for r in b]


def strict_pairs(rows: list[int]) -> list[tuple[int, int]]:
    return [
        (i, j) for i, r in enumerate(rows) for j in range(len(rows)) if i != j and (r >> j) & 1
    ]


def is_antichain(rows: list[int], idx: list[int]) -> bool:
    return all(not (rows[i] >> j) & 1 for i in idx for j in idx if i != j)


def ev_size(rows: list[int]) -> int:
    """Vicinity points of a poset: sum over x of 2^(|strict down| + |strict up|)."""
    n = len(rows)
    total = 0
    for x in range(n):
        up = bin(rows[x]).count("1") - 1
        down = sum(1 for i in range(n) if i != x and (rows[i] >> x) & 1)
        total += 1 << (up + down)
    return total


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Brute-force order isomorphism test (sizes up to about 8)."""
    n = len(a)
    if n != len(b) or sorted(bin(r).count("1") for r in a) != sorted(
        bin(r).count("1") for r in b
    ):
        return False
    for perm in permutations(range(n)):
        if all(
            ((a[i] >> j) & 1) == ((b[perm[i]] >> perm[j]) & 1)
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def to_doc(labels: tuple[str, ...], rows: list[int]) -> dict:
    """A phl poset document listing every strict pair as a generator."""
    return {
        "labels": list(labels),
        "pairs": [[labels[i], labels[j]] for i, j in strict_pairs(rows)],
        "mode": "covers",
    }


class Gen:
    """Seeded source of random posets and pairs built from them."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rows(self, n: int, density: float, connected: bool = False) -> list[int]:
        """A random order on n elements with round(density * n(n-1)/2)
        comparable pairs (at least n - 1 when connected).

        Fixing the number of pairs, rather than drawing it, keeps the
        cost of the ops built on these posets close from seed to seed.
        """
        rng = self.rng
        target = round(density * n * (n - 1) / 2)
        if connected:
            target = max(target, n - 1)
        while True:
            order = list(range(n))
            rng.shuffle(order)
            edges = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
            rng.shuffle(edges)
            rows = closure([0] * n)
            pairs = 0
            for lo, hi in edges:
                if pairs >= target:
                    break
                if not (rows[lo] >> hi) & 1:
                    rows[lo] |= 1 << hi
                    rows = closure(rows)
                    pairs = sum(bin(r).count("1") for r in rows) - n
            if pairs == target and (not connected or is_connected(rows)):
                return rows

    def proper_subset(self, n: int) -> list[int]:
        """A sorted nonempty proper subset of range(n), n >= 2."""
        k = self.rng.randint(1, n - 1)
        return sorted(self.rng.sample(range(n), k))

    def antichain(self, rows: list[int], k: int) -> list[int] | None:
        """A random antichain of k elements, or None when none is found."""
        n = len(rows)
        for _ in range(64):
            idx = sorted(self.rng.sample(range(n), k))
            if is_antichain(rows, idx):
                return idx
        return None


def labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))
