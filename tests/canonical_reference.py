"""The canonical kernel as it was before candidate filtering and pruning.

An unpruned copy kept for differential tests only: refinement, the
class-slot backtrack that codes every class-respecting ordering not cut
by the best code, and class generation that codes the extension of
every class by every ideal and deduplicates the codes.  Beside it, a
brute-force isomorphism search over all permutations.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from typing import Iterator, Sequence

from phl._bits import bits, down_rows, heights, mask_of


def refined_classes(up: Sequence[int]) -> list[int]:
    n = len(up)
    down = down_rows(up)
    below = [row & ~(1 << i) for i, row in enumerate(down)]
    above = [row & ~(1 << i) for i, row in enumerate(up)]
    key = list(zip((r.bit_count() for r in below), (r.bit_count() for r in above), heights(down)))
    while True:
        trip = [
            (
                key[i],
                tuple(sorted(key[j] for j in bits(below[i]))),
                tuple(sorted(key[j] for j in bits(above[i]))),
            )
            for i in range(n)
        ]
        ranks = {t: r for r, t in enumerate(sorted(set(trip)))}
        new_key = [(ranks[t],) for t in trip]
        if len(set(new_key)) == len(set(key)):
            return [ranks[t] for t in trip]
        key = new_key


def canonical_perm(up: Sequence[int]) -> tuple[int, ...]:
    n = len(up)
    cls = refined_classes(up)
    slot = [mask_of(i for i in range(n) if cls[i] == c) for c in sorted(cls)]
    best: list[int] = []
    best_perm: list[int] = []
    code: list[int] = []
    perm: list[int] = []

    def rec(placed: int, tight: bool) -> None:
        t = len(perm)
        if t == n:
            if not best or code < best:
                best[:] = code
                best_perm[:] = perm
            return
        for e in bits(slot[t] & ~placed):
            step = 0
            for pos, q in enumerate(perm):
                step |= ((up[q] >> e) & 1) << (2 * pos)
                step |= ((up[e] >> q) & 1) << (2 * pos + 1)
            if tight and best and step > best[t]:
                continue
            perm.append(e)
            code.append(step)
            rec(placed | 1 << e, tight and (not best or step == best[t]))
            code.pop()
            perm.pop()

    rec(0, True)
    return tuple(best_perm)


def canonical(up: Sequence[int]) -> tuple[bytes, list[int]]:
    perm = canonical_perm(up)
    n = len(up)
    inv = {orig: newpos for newpos, orig in enumerate(perm)}
    rows = [mask_of(inv[j] for j in bits(up[orig])) for orig in perm]
    flat = sum(row << (r * n) for r, row in enumerate(rows))
    return bytes([n]) + flat.to_bytes((n * n + 7) // 8 or 1, "big"), rows


@cache
def class_table(n: int) -> tuple[tuple[bytes, tuple[int, ...]], ...]:
    """(code, canonical rows) of every class of size n, in code order."""
    if n == 0:
        return ((bytes([0, 0]), ()),)
    top = 1 << (n - 1)
    found: dict[bytes, list[int]] = {}
    for _, base in class_table(n - 1):
        down = down_rows(base)
        # every down-closed mask, by filtering all 2^(n-1) masks
        for ideal in range(1 << (n - 1)):
            if any(down[i] & ~(1 << i) & ~ideal for i in bits(ideal)):
                continue
            up = [row | top if (ideal >> i) & 1 else row for i, row in enumerate(base)] + [top]
            code, rows = canonical(up)
            found.setdefault(code, rows)
    return tuple((c, tuple(found[c])) for c in sorted(found))


def all_isomorphisms(p, q) -> Iterator[tuple[int, ...]]:
    """Order isomorphisms p -> q as index tuples, by trying every permutation."""
    n = p.n
    if n != q.n:
        return
    for perm in permutations(range(n)):
        if all(p.leq(i, j) == q.leq(perm[i], perm[j]) for i in range(n) for j in range(n)):
            yield perm
