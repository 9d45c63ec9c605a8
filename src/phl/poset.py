"""Finite partial orders and their basic arithmetic.

Conventions
-----------
A poset is a tuple of distinct string labels together with the full
order relation on their indices; the relation is kept as one bitmask row
per element (bit j of row i set iff element i <= element j).  Every
constructor validates reflexivity, antisymmetry and transitivity, so a
Poset in hand is always a genuine partial order.  Instances are
immutable and hashable; equality is by labels and relation, not by
isomorphism type.

Sums and products follow the usual definitions: the direct sum P + Q is
the disjoint union with no relation across the parts, the ordinal sum
puts every element of P below every element of Q, and the product
compares coordinatewise.  When two operands share labels, the colliding
labels are suffixed with /0 (left) and /1 (right); disjoint carriers
pass through unchanged.

Connectivity is zigzag connectivity: x and y are connected within a
subset S if a fence x = z0, z1, ..., zk = y runs inside S with each
consecutive pair comparable.  gamma(P, S, x) is the connected component
of x inside S under this relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ._bits import bits, mask_of
from .errors import (
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    InvalidParameter,
    NotAPartialOrder,
    UnknownLabel,
)


class Poset:
    """An immutable finite poset on an ordered carrier of labels."""

    __slots__ = ("labels", "n", "_up", "_down", "_index", "_hash", "__dict__")

    def __init__(self, labels: Sequence[str], up_rows: Sequence[int]):
        labels = tuple(labels)
        up_rows = tuple(int(r) for r in up_rows)
        if len(labels) != len(up_rows):
            raise InvalidParameter("labels and relation rows differ in length")
        seen = set()
        for lab in labels:
            if not isinstance(lab, str):
                raise InvalidParameter(f"labels must be strings, got {lab!r}")
            if lab in seen:
                raise DuplicateLabel(lab)
            seen.add(lab)
        n = len(labels)
        full = (1 << n) - 1
        for row in up_rows:
            if row & ~full:
                raise IndexOutOfRange("relation row references elements outside the carrier")
        _validate_axioms(labels, up_rows)
        self.labels = labels
        self.n = n
        self._up = up_rows
        down = [0] * n
        for i in range(n):
            row = up_rows[i]
            for j in bits(row):
                down[j] |= 1 << i
        self._down = tuple(down)
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._hash = hash((labels, up_rows))

    # -- lookups ---------------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def leq(self, i: int, j: int) -> bool:
        return bool((self._up[i] >> j) & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and bool((self._up[i] >> j) & 1)

    def leq_labels(self, a: str, b: str) -> bool:
        return self.leq(self.index(a), self.index(b))

    def up_mask(self, i: int) -> int:
        """Bitmask of all j with i <= j (including i)."""
        return self._up[i]

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def upo_mask(self, i: int) -> int:
        """Bitmask of the strict up-set of i."""
        return self._up[i] & ~(1 << i)

    def downo_mask(self, i: int) -> int:
        return self._down[i] & ~(1 << i)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- derived structure -----------------------------------------------

    @cached_property
    def relation_size(self) -> int:
        """Number of pairs (i, j) with i <= j."""
        return sum(r.bit_count() for r in self._up)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self._up[i])]

    @cached_property
    def cover_rows(self) -> tuple[int, ...]:
        """Row i holds the elements covering i (immediate successors)."""
        rows = []
        for i in range(self.n):
            strict = self.upo_mask(i)
            cov = strict
            for j in bits(strict):
                cov &= ~(self._up[j] & ~(1 << j))
            rows.append(cov)
        return tuple(rows)

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self.cover_rows[i])]

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Length of the longest chain strictly below each element."""
        h = [0] * self.n
        for i in sorted(range(self.n), key=lambda i: self._down[i].bit_count()):
            below = self.downo_mask(i)
            h[i] = 1 + max((h[j] for j in bits(below)), default=-1)
        return tuple(h)

    @cached_property
    def component_orders(self) -> tuple[tuple[int, ...], ...]:
        """Breadth-first orders of the zigzag components, by least element."""
        orders = []
        left = self.full_mask
        while left:
            start = (left & -left).bit_length() - 1
            order = [start]
            seen = 1 << start
            for x in order:
                new = (self._up[x] | self._down[x]) & ~seen
                seen |= new
                order.extend(bits(new))
            left &= ~seen
            orders.append(tuple(order))
        return tuple(orders)

    def is_antichain(self, subset: Iterable[int]) -> bool:
        idx = self._subset_indices(subset)
        return all(not self.leq(x, y) for x in idx for y in idx if x != y)

    def _subset_indices(self, subset: Iterable[int]) -> tuple[int, ...]:
        idx = tuple(subset)
        for i in idx:
            if not isinstance(i, int) or isinstance(i, bool) or not (0 <= i < self.n):
                raise IndexOutOfRange(f"index {i!r} outside carrier of size {self.n}")
        if len(set(idx)) != len(idx):
            raise InvalidParameter("subset contains repeated indices")
        return idx

    # -- protocol --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        rel = ",".join(
            f"{self.labels[i]}<{self.labels[j]}" for i, j in self.cover_pairs()
        )
        return f"Poset({list(self.labels)!r}; {rel})"


def _validate_axioms(labels: Sequence[str], rows: Sequence[int]) -> None:
    n = len(rows)
    for i in range(n):
        if not (rows[i] >> i) & 1:
            raise NotAPartialOrder("reflexivity", (labels[i],))
    for i in range(n):
        for j in bits(rows[i] & ~(1 << i)):
            if (rows[j] >> i) & 1:
                raise NotAPartialOrder("antisymmetry", (labels[i], labels[j]))
    for i in range(n):
        reach = 0
        for j in bits(rows[i]):
            reach |= rows[j]
        extra = reach & ~rows[i]
        if extra:
            # recover an explicit witness triple
            for j in bits(rows[i]):
                gap = rows[j] & extra
                if gap:
                    k = next(bits(gap))
                    raise NotAPartialOrder(
                        "transitivity", (labels[i], labels[j], labels[k])
                    )


def _transitive_hull(rows: list[int]) -> list[int]:
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        mask = 1 << k
        for i in range(n):
            if rows[i] & mask:
                rows[i] |= rk
    return rows


def from_pairs(labels: Sequence[str], pairs: Iterable[tuple[str, str]], mode: str = "covers") -> Poset:
    """Build a poset from labelled pairs.

    mode "covers" treats the pairs as generators and takes the
    reflexive-transitive hull; mode "full" requires the pairs to already
    list the complete order relation (reflexive pairs may be omitted
    only in covers mode).  A cycle, or a missing axiom in full mode,
    raises NotAPartialOrder naming the violated axiom and a witness.
    """
    labels = tuple(labels)
    seen = set()
    for lab in labels:
        if lab in seen:
            raise DuplicateLabel(lab)
        seen.add(lab)
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    rows = [1 << i for i in range(n)]
    pair_list = []
    for a, b in pairs:
        if a not in index:
            raise UnknownLabel(a)
        if b not in index:
            raise UnknownLabel(b)
        pair_list.append((index[a], index[b]))

    if mode == "covers":
        for i, j in pair_list:
            rows[i] |= 1 << j
        rows = _transitive_hull(rows)
        for i in range(n):
            for j in bits(rows[i] & ~(1 << i)):
                if (rows[j] >> i) & 1:
                    raise NotAPartialOrder("antisymmetry", (labels[i], labels[j]))
        return Poset(labels, rows)
    if mode == "full":
        rows = [0] * n
        for i, j in pair_list:
            rows[i] |= 1 << j
        return Poset(labels, rows)
    raise InvalidParameter(f"mode must be 'covers' or 'full', got {mode!r}")


# -- catalog ------------------------------------------------------------

def catalog(name: str, k: int | None = None) -> Poset:
    """Named building blocks.

    A k  antichain a1..ak (k >= 0); C k  chain 0 < 1 < ... < k-1;
    V k   one bottom b under tops t1..t(k-1); Lambda k  legs b1..b(k-1)
    under one top t; N  the four-element zigzag a < c > b < d;
    W  two bottoms b1, b2 under tops t1, t2, t3 with b1 < t1, t2 and
    b2 < t2, t3; N2  the four-element two-by-two crown a1, a2 < b1, b2.
    k is required for A, C, V and Lambda and ignored for N, W, N2.
    """
    if name in ("N", "W", "N2"):
        if name == "N":
            return from_pairs("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
        if name == "W":
            return from_pairs(
                ["b1", "b2", "t1", "t2", "t3"],
                [("b1", "t1"), ("b1", "t2"), ("b2", "t2"), ("b2", "t3")],
            )
        return from_pairs(
            ["a1", "a2", "b1", "b2"],
            [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")],
        )
    if name not in ("A", "C", "V", "Lambda"):
        raise InvalidParameter(f"unknown catalog name {name!r}")
    if k is None or isinstance(k, bool) or not isinstance(k, int):
        raise InvalidParameter(f"catalog {name} requires an integer size")
    if name == "A":
        if k < 0:
            raise InvalidParameter("antichain size must be non-negative")
        return from_pairs([f"a{i + 1}" for i in range(k)], [])
    if k < 1:
        raise InvalidParameter(f"catalog {name} requires size >= 1")
    if name == "C":
        labels = [str(i) for i in range(k)]
        return from_pairs(labels, [(str(i), str(i + 1)) for i in range(k - 1)])
    if name == "V":
        labels = ["b"] + [f"t{i + 1}" for i in range(k - 1)]
        return from_pairs(labels, [("b", t) for t in labels[1:]])
    labels = [f"b{i + 1}" for i in range(k - 1)] + ["t"]
    return from_pairs(labels, [(b, "t") for b in labels[:-1]])


# -- sums and products ---------------------------------------------------

def _disjoint_label_pair(l1: Sequence[str], l2: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    clash = set(l1) & set(l2)
    if not clash:
        return tuple(l1), tuple(l2)
    used = set(l1) | set(l2)

    def rename(lab: str, side: int) -> str:
        if lab not in clash:
            return lab
        cand = f"{lab}/{side}"
        while cand in used:
            cand += "'"
        used.add(cand)
        return cand

    return (
        tuple(rename(lab, 0) for lab in l1),
        tuple(rename(lab, 1) for lab in l2),
    )


def direct_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with no relation between the parts."""
    lp, lq = _disjoint_label_pair(p.labels, q.labels)
    rows = list(p._up) + [r << p.n for r in q._up]
    return Poset(lp + lq, rows)


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union with every element of p below every element of q."""
    lp, lq = _disjoint_label_pair(p.labels, q.labels)
    above = ((1 << q.n) - 1) << p.n
    rows = [r | above for r in p._up] + [r << p.n for r in q._up]
    return Poset(lp + lq, rows)


def product(p: Poset, q: Poset) -> Poset:
    """Componentwise order on pairs; labels are '(a,b)'."""
    labels = [f"({a},{b})" for a in p.labels for b in q.labels]
    n = p.n
    m = q.n
    rows = []
    for i in range(n):
        for j in range(m):
            row = 0
            for i2 in bits(p._up[i]):
                row |= q._up[j] << (i2 * m)
            rows.append(row)
    return Poset(labels, rows)


def induced(p: Poset, subset: Iterable[int]) -> Poset:
    """Induced subposet on the given indices, keeping carrier order."""
    idx = sorted(p._subset_indices(subset))
    pos = {orig: new for new, orig in enumerate(idx)}
    rows = []
    for orig in idx:
        row = 0
        for j in bits(p._up[orig]):
            if j in pos:
                row |= 1 << pos[j]
        rows.append(row)
    return Poset(tuple(p.labels[i] for i in idx), rows)


# -- connectivity --------------------------------------------------------

def _convexity_witness(p: Poset, subset: Iterable[int]) -> tuple[int, int, int] | None:
    """The first x <= z <= y with x, y in the subset and z outside, or None."""
    idx = p._subset_indices(subset)
    smask = mask_of(idx)
    for x in idx:
        for y in idx:
            gap = p.up_mask(x) & p.down_mask(y) & ~smask
            if gap:
                return x, next(bits(gap)), y
    return None


def is_convex(p: Poset, subset: Iterable[int]) -> bool:
    """True iff every x <= z <= y with x, y in the subset keeps z inside."""
    return _convexity_witness(p, subset) is None


def gamma(p: Poset, subset: Iterable[int], x: int) -> frozenset[int]:
    """Zigzag component of x inside the subset."""
    idx = p._subset_indices(subset)
    smask = mask_of(idx)
    if not isinstance(x, int) or isinstance(x, bool) or x < 0 or not (smask >> x) & 1:
        raise IndexOutOfRange(f"{x!r} is not a member of the subset")
    seen = 1 << x
    frontier = [x]
    while frontier:
        y = frontier.pop()
        nbrs = (p.up_mask(y) | p.down_mask(y)) & smask & ~seen
        for z in bits(nbrs):
            seen |= 1 << z
            frontier.append(z)
    return frozenset(bits(seen))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty index blocks covering a carrier."""

    blocks: tuple[frozenset[int], ...]

    def __len__(self) -> int:
        return len(self.blocks)


def components(p: Poset) -> Partition:
    """Zigzag components of the whole carrier, ordered by least element."""
    return Partition(tuple(frozenset(order) for order in p.component_orders))


def is_connected(p: Poset) -> bool:
    """True iff nonempty and a single zigzag component."""
    return p.n > 0 and len(p.component_orders) == 1


def require_nonempty(*posets: Poset) -> None:
    for p in posets:
        if p.n == 0:
            raise EmptyPoset("operation requires a nonempty poset")
