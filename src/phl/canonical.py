"""Canonical forms, isomorphism tests, enumeration up to isomorphism.

The canonical form of a poset is the lexicographically least relation
code over all carrier orderings compatible with an invariant refinement
of the elements.  Refinement classes are isomorphism-invariant, so the
constrained minimum is itself invariant: two posets are isomorphic iff
their codes agree.  A brute-force bijection search doubles as an
independent oracle for small sizes.

Isomorphism-class enumeration grows posets one element at a time: every
poset on n+1 elements arises from one on n elements by adding a new
maximal element above an order ideal, so extending every class of size
n by every ideal and deduplicating by canonical code is exhaustive.
IsoClassTable is that deduplication, and the one place any caller
turns posets into a table of classes.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterator

from . import config
from ._bits import bits, mask_of, popcount
from .poset import Poset, is_connected

__all__ = [
    "IsoClassTable",
    "canonical_form",
    "canonicalize",
    "is_isomorphic",
    "all_isomorphisms",
    "enumerate_posets",
    "enumerate_connected",
]


def _refined_classes(p: Poset) -> list[int]:
    """Isomorphism-invariant class id per element, ids sorted by invariant."""
    n = p.n
    key = [(popcount(p.downo_mask(i)), popcount(p.upo_mask(i)), p.heights[i]) for i in range(n)]
    while True:
        trip = [
            (
                key[i],
                tuple(sorted(key[j] for j in bits(p.downo_mask(i)))),
                tuple(sorted(key[j] for j in bits(p.upo_mask(i)))),
            )
            for i in range(n)
        ]
        ranks = {t: r for r, t in enumerate(sorted(set(trip)))}
        new_key = [(ranks[t],) for t in trip]
        if len(set(new_key)) == len(set(key)):
            return [ranks[t] for t in trip]
        key = new_key


def _canonical_perm(p: Poset) -> tuple[int, ...]:
    """Ordering of the carrier realizing the minimal relation code."""
    n = p.n
    if n == 0:
        return ()
    cls = _refined_classes(p)
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cls):
        groups.setdefault(c, []).append(i)
    class_order = sorted(groups)

    best_code: list[int] | None = None
    best_perm: list[int] | None = None
    placed: list[int] = []
    code: list[int] = []
    up = p._up

    def rec(tight: bool) -> None:
        nonlocal best_code, best_perm
        t = len(placed)
        if t == n:
            if best_code is None or code < best_code:
                best_code = list(code)
                best_perm = list(placed)
            return
        # elements of the earliest class still unplaced
        cid = None
        for c in class_order:
            if any(e not in placed_set for e in groups[c]):
                cid = c
                break
        for e in groups[cid]:
            if e in placed_set:
                continue
            step = 0
            for pos, q in enumerate(placed):
                step |= ((up[q] >> e) & 1) << (2 * pos)
                step |= ((up[e] >> q) & 1) << (2 * pos + 1)
            now_tight = tight
            if tight and best_code is not None:
                if step > best_code[t]:
                    continue
                if step < best_code[t]:
                    now_tight = False
            placed.append(e)
            placed_set.add(e)
            code.append(step)
            rec(now_tight)
            code.pop()
            placed_set.remove(e)
            placed.pop()

    placed_set: set[int] = set()
    rec(True)
    return tuple(best_perm)


def _canonical(p: Poset) -> tuple[bytes, list[int]]:
    """Canonical code and the up-rows of p reordered canonically.

    Bit r*n + c of the code is set iff canonical element r <= element c,
    so the code is the reordered rows laid end to end.
    """
    perm = _canonical_perm(p)
    n = p.n
    inv = {orig: newpos for newpos, orig in enumerate(perm)}
    rows = [mask_of(inv[j] for j in bits(p.up_mask(orig))) for orig in perm]
    flat = 0
    for r, row in enumerate(rows):
        flat |= row << (r * n)
    return bytes([n]) + flat.to_bytes((n * n + 7) // 8 or 1, "big"), rows


def _relabelled(rows: list[int]) -> Poset:
    return Poset(tuple(f"x{i}" for i in range(len(rows))), rows)


def canonical_form(p: Poset) -> bytes:
    """Canonical relation code; equal codes characterize isomorphism."""
    return _canonical(p)[0]


def canonicalize(p: Poset) -> Poset:
    """Isomorphic copy relabelled x0..x(n-1) along the canonical ordering."""
    return _relabelled(_canonical(p)[1])


def is_isomorphic(p: Poset, q: Poset) -> bool:
    if p.n != q.n or p.relation_size != q.relation_size:
        return False
    return canonical_form(p) == canonical_form(q)


def all_isomorphisms(p: Poset, q: Poset) -> Iterator[tuple[int, ...]]:
    """Brute-force search for order isomorphisms p -> q (index tuples)."""
    n = p.n
    if n != q.n:
        return
    for perm in permutations(range(n)):
        if all(
            p.leq(i, j) == q.leq(perm[i], perm[j])
            for i in range(n)
            for j in range(n)
        ):
            yield perm


class IsoClassTable:
    """Isomorphism classes of the given posets, in (size, code) order.

    Each poset is coded once and each class is kept as its canonical
    representative.  Byte 0 of a code is the size, so code order is
    (size, code) order.
    """

    __slots__ = ("codes", "posets")

    def __init__(self, posets):
        found: dict[bytes, list[int]] = {}
        for p in posets:
            code, rows = _canonical(p)
            found.setdefault(code, rows)
        self.codes = tuple(sorted(found))
        self.posets = tuple(_relabelled(found[c]) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)


_CLASS_CACHE: dict[int, tuple[Poset, ...]] = {}
_CONNECTED_CACHE: dict[int, tuple[Poset, ...]] = {}


def _classes_of_size(n: int) -> tuple[Poset, ...]:
    """All isomorphism classes of size n as canonical representatives."""
    if n in _CLASS_CACHE:
        return _CLASS_CACHE[n]
    if n == 0:
        reps: tuple[Poset, ...] = (Poset((), ()),)
    else:
        reps = IsoClassTable(_extensions(n)).posets
    _CLASS_CACHE[n] = reps
    return reps


def _extensions(n: int) -> Iterator[Poset]:
    """Every class of size n - 1 with a new maximal element over each ideal."""
    new = n - 1
    for base in _classes_of_size(new):
        for ideal in _ideals(base):
            rows = [
                base._up[i] | ((1 << new) if (ideal >> i) & 1 else 0)
                for i in range(new)
            ]
            rows.append(1 << new)
            yield _relabelled(rows)


def _ideals(p: Poset) -> Iterator[int]:
    for m in range(1 << p.n):
        if all(not (p.downo_mask(i) & ~m) for i in bits(m)):
            yield m


def enumerate_posets(n_max: int) -> Iterator[Poset]:
    """All isomorphism classes with 1..n_max elements, size then code order."""
    config.check_bound(n_max)
    for n in range(1, n_max + 1):
        yield from _classes_of_size(n)


def enumerate_connected(n_max: int) -> Iterator[Poset]:
    """Connected isomorphism classes with 1..n_max elements."""
    config.check_bound(n_max)
    for n in range(1, n_max + 1):
        reps = _CONNECTED_CACHE.get(n)
        if reps is None:
            reps = tuple(p for p in _classes_of_size(n) if is_connected(p))
            _CONNECTED_CACHE[n] = reps
        yield from reps
