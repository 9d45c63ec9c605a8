"""Canonical forms, isomorphism tests, enumeration up to isomorphism.

The kernel reads relation rows only (bit j of up-row i set iff i <= j).
The canonical form is the lexicographically least relation code over
all carrier orderings compatible with an invariant refinement of the
elements.  Refinement classes are isomorphism-invariant, so the
constrained minimum is itself invariant: two posets are isomorphic iff
their codes agree.  Refinement ids sort by strict-down-set size first,
so every canonical representative lists its elements along a linear
extension, and the canonical ordering puts last an element of the top
class, which is maximal.  The backtrack that finds the least code skips
orderings that automorphisms it has found map onto searched ones.

Isomorphism-class enumeration is canonical augmentation (McKay,
Isomorph-free exhaustive generation, 1998).  Every poset on n elements
is a class of size n - 1 plus a new maximal element over an order
ideal, and a candidate is kept only when its new element is in the top
refinement class.  This still reaches every class C: removing C's
canonical last element m leaves a copy of some class P, and the
candidate of P over the image of m's strict down-set is isomorphic to C
by a map that sends m to the new element, so the new element's class is
m's, the top one.  The kept candidates are coded and deduplicated by
code.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterable, Iterator, Sequence

from . import config
from ._bits import bits, down_rows, heights
from .poset import Poset, is_connected

__all__ = [
    "canonical_form",
    "canonical_code",
    "code_rows",
    "canonicalize",
    "is_isomorphic",
    "iso_classes",
    "representatives",
    "enumerate_posets",
    "enumerate_connected",
    "connected_of_size",
]


@lru_cache(maxsize=1 << 10)
def _bit_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of mask; class generation meets the same few masks often."""
    return tuple(bits(mask))


def _refined_classes(up: Sequence[int], down: Sequence[int] | None = None) -> list[int]:
    """Isomorphism-invariant class id per element, ids sorted by invariant.

    Elements start keyed by (strict-down-set size, strict-up-set size,
    height) and are split by the sorted keys of their strict down- and
    up-sets until no class splits.  Keys are dense ranks from the start,
    which sort as the tuples they rank, so the ids are those of ranking
    the tuples themselves; a split with every element alone is already
    stable.  down, when given, is the transpose of up.
    """
    n = len(up)
    if down is None:
        down = down_rows(up)
    below = [_bit_tuple(row & ~(1 << i)) for i, row in enumerate(down)]
    above = [_bit_tuple(row & ~(1 << i)) for i, row in enumerate(up)]
    key, count = _dense_ranks(list(zip(map(len, below), map(len, above), heights(down))))
    while count < n:
        new, split = _dense_ranks([
            (key[i], tuple(sorted([key[j] for j in below[i]])), tuple(sorted([key[j] for j in above[i]])))
            for i in range(n)
        ])
        if split == count:
            break
        key, count = new, split
    return key


def _dense_ranks(values: list) -> tuple[list[int], int]:
    """Rank of each value among the distinct values, and their number."""
    ranks = {v: r for r, v in enumerate(sorted(set(values)))}
    return [ranks[v] for v in values], len(ranks)


def _canonical_perm(up: Sequence[int], cls: Sequence[int]) -> tuple[int, ...]:
    """An ordering of the carrier realizing the minimal relation code.

    Position t takes an element of refinement class sorted(cls)[t], and
    a node tries its children in increasing order of their step; a
    prefix is cut as soon as its last step exceeds the best code's.  A
    leaf whose code equals the best one yields the automorphism
    best_perm[k] -> perm[k] (McKay & Piperno, Practical graph
    isomorphism II, 2014), and neither use of it loses the least code:
    - the search returns at once to the depth where the two orderings
      part, since the rest of that subtree is the image of one already
      searched;
    - a node skips any child in the orbit of an explored child under
      the automorphisms found so far that fix its prefix.
    Orderings with the least code differ by an automorphism, so each
    gives the same canonical rows.
    """
    n = len(up)
    members: dict[int, int] = {}
    for i, c in enumerate(cls):
        members[c] = members.get(c, 0) | 1 << i
    if len(members) == n:
        # every class is one element: one class-respecting ordering
        return tuple(sorted(range(n), key=cls.__getitem__))
    slot = [members[c] for c in sorted(cls)]
    best: list[int] = []
    best_perm: list[int] = []
    code: list[int] = []
    perm: list[int] = []
    autos: list[tuple[int, list[int]]] = []  # (fixed points, images)

    def rec(placed: int, tight: bool) -> int:
        # tight: the prefix equals the best code's prefix, or there is no best
        # yet.  Returns n, or a smaller depth for the search to return to.
        t = len(perm)
        if t == n:
            if not (best and tight):
                best[:] = code
                best_perm[:] = perm
                return n
            image = list(range(n))
            fixed = 0
            for a, b in zip(best_perm, perm):
                image[a] = b
                fixed |= (a == b) << a
            autos.append((fixed, image))
            return next(k for k in range(n) if perm[k] != best_perm[k])
        steps = []
        for e in _bit_tuple(slot[t] & ~placed):
            step = 0
            for pos, q in enumerate(perm):
                step |= ((up[q] >> e) & 1) << (2 * pos)
                step |= ((up[e] >> q) & 1) << (2 * pos + 1)
            steps.append((step, e))
        steps.sort()
        explored = 0
        for step, e in steps:
            if tight and best and step > best[t]:
                break
            if explored and autos and _orbit(explored, [g for g in autos if not placed & ~g[0]]) >> e & 1:
                continue
            perm.append(e)
            code.append(step)
            back = rec(placed | 1 << e, tight and (not best or step == best[t]))
            code.pop()
            perm.pop()
            if back < t:
                return back
            # the subtree reached a leaf, so the best code now shares the prefix
            tight = True
            explored |= 1 << e
        return n

    rec(0, True)
    return tuple(best_perm)


def _orbit(mask: int, gens: list[tuple[int, list[int]]]) -> int:
    """Closure of a set of elements under permutations given by images."""
    while True:
        grown = mask
        for fixed, image in gens:
            for x in bits(mask & ~fixed):
                grown |= 1 << image[x]
        if grown == mask:
            return mask
        mask = grown


def _canonical(up: Sequence[int], cls: Sequence[int] | None = None) -> tuple[bytes, list[int]]:
    """Canonical code and the up-rows reordered canonically.

    Bit r*n + c of the code is set iff canonical element r <= element c,
    so the code is the reordered rows laid end to end.  cls, when given,
    is the refinement of up, already computed.
    """
    perm = _canonical_perm(up, _refined_classes(up) if cls is None else cls)
    n = len(up)
    inv = [0] * n
    for newpos, orig in enumerate(perm):
        inv[orig] = newpos
    rows = [sum(1 << inv[j] for j in _bit_tuple(up[orig])) for orig in perm]
    flat = sum(row << (r * n) for r, row in enumerate(rows))
    return bytes([n]) + flat.to_bytes((n * n + 7) // 8 or 1, "big"), rows


def _relabelled(rows: list[int]) -> Poset:
    return Poset(tuple(f"x{i}" for i in range(len(rows))), rows)


def canonical_form(p: Poset) -> bytes:
    """Canonical relation code; equal codes characterize isomorphism.  Kept on
    p once computed, as a cached_property is; a pickled or copied p has none."""
    code = p.__dict__.get("_code")
    if code is None:
        code = p.__dict__["_code"] = _canonical(p._up)[0]
    return code


def canonical_code(up: Sequence[int]) -> bytes:
    """canonical_form of the relation given by its up-rows, with no Poset built."""
    return _canonical(up)[0]


def code_rows(code: bytes) -> list[int]:
    """The up-rows a code lists: those of canonicalize(p) for every p with this code."""
    n = code[0]
    flat = int.from_bytes(code[1:], "big")
    return [flat >> (r * n) & ((1 << n) - 1) for r in range(n)]


def canonicalize(p: Poset) -> Poset:
    """Isomorphic copy relabelled x0..x(n-1) along the canonical ordering."""
    return _relabelled(_canonical(p._up)[1])


def component_classes(p: Poset, q: Poset) -> dict[bytes, list]:
    """The component classes of p and q: code -> [a component, count in p, count in q]."""
    classes: dict[bytes, list] = {}
    for side, t in enumerate((p, q), 1):
        for c in t.component_posets:
            classes.setdefault(canonical_form(c), [c, 0, 0])[side] += 1
    return classes


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """Whether every component class occurs as often in p as in q."""
    if p.n != q.n or p.relation_size != q.relation_size:
        return False
    return all(kp == kq for _, kp, kq in component_classes(p, q).values())


def iso_classes(relations: Iterable[Sequence[int]]) -> dict[bytes, Poset]:
    """Isomorphism classes of the given relations, in (size, code) order: each
    relation, a sequence of up-rows, is coded once, and each class's code
    maps to its canonical representative."""
    return representatives(map(canonical_code, relations))


def representatives(codes: Iterable[bytes]) -> dict[bytes, Poset]:
    """The canonical representative of each distinct code, built from the
    rows the code lists, in code order: byte 0 is the size."""
    return {c: _relabelled(code_rows(c)) for c in sorted(set(codes))}


@cache
def _classes_of_size(n: int) -> tuple[Poset, ...]:
    """All isomorphism classes of size n as canonical representatives."""
    if n == 0:
        return (Poset((), ()),)
    return tuple(representatives(_canonical(up, cls)[0] for up, cls in _extensions(n)).values())


@cache
def connected_of_size(n: int) -> tuple[Poset, ...]:
    """The connected classes of exactly n elements, in code order.

    n is not checked against the enumeration ceiling: a caller checks its
    bound once, as enumerate_connected does, and then reads each size here.
    """
    return tuple(p for p in _classes_of_size(n) if is_connected(p))


def _extensions(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """Rows and refinement of each accepted extension of a class of size n - 1.

    A candidate adds a new maximal element, index n - 1, over an ideal of
    the class; it is accepted when the new element is in the top
    refinement class.  Ids sort by strict-down-set size first and the
    old elements keep their down-sets, so an ideal smaller than the
    largest strict down-set of the class is rejected before any rows
    are built.
    """
    top = 1 << (n - 1)
    for base in _classes_of_size(n - 1):
        below = [base.downo_mask(i) for i in range(n - 1)]
        largest = max((m.bit_count() for m in below), default=0)
        ideals = [0]
        for i, m in enumerate(below):
            # the strict down-set of element i lies below index i
            ideals += [d | 1 << i for d in ideals if not m & ~d]
        for ideal in ideals:
            if ideal.bit_count() < largest:
                continue
            up = [row | top if (ideal >> i) & 1 else row for i, row in enumerate(base._up)] + [top]
            cls = _refined_classes(up, base._down + (ideal | top,))
            if cls[-1] == max(cls):
                yield up, cls


def enumerate_posets(n_max: int) -> Iterator[Poset]:
    """All isomorphism classes with 1..n_max elements, size then code order."""
    config.check_bound(n_max)
    for n in range(1, n_max + 1):
        yield from _classes_of_size(n)


def enumerate_connected(n_max: int) -> Iterator[Poset]:
    """Connected isomorphism classes with 1..n_max elements."""
    config.check_bound(n_max)
    for n in range(1, n_max + 1):
        yield from connected_of_size(n)
