"""Canonical forms, isomorphism tests, enumeration up to isomorphism.

The kernel reads relation rows only (bit j of up-row i set iff i <= j).
The canonical form is the lexicographically least relation code over
all carrier orderings compatible with an invariant refinement of the
elements.  Refinement classes are isomorphism-invariant, so the
constrained minimum is itself invariant: two posets are isomorphic iff
their codes agree.  Refinement ids sort by strict-down-set size first,
so every canonical representative lists its elements along a linear
extension.

Isomorphism-class enumeration grows posets one element at a time: every
poset on n+1 elements arises from one on n elements by adding a new
maximal element above an order ideal, so extending every class of size
n by every ideal (built along index order) and deduplicating the rows
by canonical code is exhaustive.  IsoClassTable is that deduplication,
and the one place any caller turns relations into a table of classes.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from . import config
from ._bits import bits, down_rows, heights, mask_of
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


def _refined_classes(up: Sequence[int]) -> list[int]:
    """Isomorphism-invariant class id per element, ids sorted by invariant."""
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


def _canonical_perm(up: Sequence[int]) -> tuple[int, ...]:
    """Ordering of the carrier realizing the minimal relation code.

    Position t takes an element of refinement class sorted(cls)[t]; a
    prefix is cut as soon as its last step exceeds the best code's.
    """
    n = len(up)
    cls = _refined_classes(up)
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


def _canonical(up: Sequence[int]) -> tuple[bytes, list[int]]:
    """Canonical code and the up-rows reordered canonically.

    Bit r*n + c of the code is set iff canonical element r <= element c,
    so the code is the reordered rows laid end to end.
    """
    perm = _canonical_perm(up)
    n = len(up)
    inv = {orig: newpos for newpos, orig in enumerate(perm)}
    rows = [mask_of(inv[j] for j in bits(up[orig])) for orig in perm]
    flat = sum(row << (r * n) for r, row in enumerate(rows))
    return bytes([n]) + flat.to_bytes((n * n + 7) // 8 or 1, "big"), rows


def _relabelled(rows: list[int]) -> Poset:
    return Poset(tuple(f"x{i}" for i in range(len(rows))), rows)


def canonical_form(p: Poset) -> bytes:
    """Canonical relation code; equal codes characterize isomorphism."""
    return _canonical(p._up)[0]


def canonicalize(p: Poset) -> Poset:
    """Isomorphic copy relabelled x0..x(n-1) along the canonical ordering."""
    return _relabelled(_canonical(p._up)[1])


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
    """Isomorphism classes of the given relations, in (size, code) order.

    Each relation, a sequence of up-rows, is coded once, and each class
    is kept as its canonical representative.  Byte 0 of a code is the
    size, so code order is (size, code) order.
    """

    __slots__ = ("codes", "posets")

    def __init__(self, relations: Iterable[Sequence[int]]):
        found: dict[bytes, list[int]] = {}
        for up in relations:
            code, rows = _canonical(up)
            found.setdefault(code, rows)
        self.codes = tuple(sorted(found))
        self.posets = tuple(_relabelled(found[c]) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)


@cache
def _classes_of_size(n: int) -> tuple[Poset, ...]:
    """All isomorphism classes of size n as canonical representatives."""
    if n == 0:
        return (Poset((), ()),)
    return IsoClassTable(_extensions(n)).posets


@cache
def _connected_of_size(n: int) -> tuple[Poset, ...]:
    return tuple(p for p in _classes_of_size(n) if is_connected(p))


def _extensions(n: int) -> Iterator[list[int]]:
    """Rows of every class of size n - 1 with a new maximal element over each ideal."""
    top = 1 << (n - 1)
    for base in _classes_of_size(n - 1):
        ideals = [0]
        for i in range(n - 1):
            # the strict down-set of element i lies below index i
            ideals += [m | 1 << i for m in ideals if not base.downo_mask(i) & ~m]
        for ideal in ideals:
            yield [row | top if (ideal >> i) & 1 else row for i, row in enumerate(base._up)] + [top]


def enumerate_posets(n_max: int) -> Iterator[Poset]:
    """All isomorphism classes with 1..n_max elements, size then code order."""
    config.check_bound(n_max)
    for n in range(1, n_max + 1):
        yield from _classes_of_size(n)


def enumerate_connected(n_max: int) -> Iterator[Poset]:
    """Connected isomorphism classes with 1..n_max elements."""
    config.check_bound(n_max)
    for n in range(1, n_max + 1):
        yield from _connected_of_size(n)
