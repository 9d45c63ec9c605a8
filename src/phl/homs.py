"""Order-preserving maps between finite posets, by class.

Map classes ("kinds") are hom, strict, strict_onto, emb and aut:

  hom          x <= y implies f(x) <= f(y)
  strict       additionally x < y implies f(x) < f(y)
  strict_onto  strict and surjective
  emb          f(x) <= f(y) iff x <= y (implies injective and strict)
  aut          embedding of a poset onto itself

Three entry points share one search core: enumerate_maps streams
HomMap objects in lexicographic order, map_tuples streams bare value
tuples in no promised order (the fast way to visit every map), and
count_maps counts without visiting the maps one by one.

The core assigns domain indices in a given order, keeping for the next
index a bitmask of candidate values: the AND of the codomain up- or
down-rows (strict except for hom) of the images of its earlier
comparable indices, minus, for emb and aut, the comparability rows of
the images of its earlier incomparable ones.  Surjective kinds also
prune values that leave too few indices to cover the missing ones.
The core stops one level early and yields each partial assignment with
the candidate mask of the last index.

Every kind but hom is strict, so f(x) has at least as long a chain
below it (height) and above it (depth) as x has: each index starts from
the codomain values of large enough height and depth, and the search
ends at once when some index has none.  Its tables are built once per
poset and kept there: the codomain's strict and incomparability rows
and rank masks, and the domain's constraint plan per search order and
kind class.  A plan lists, per level, the earlier indices that constrain
it, each with the code of the codomain row table to AND in (up, down,
or, for emb and aut only, apart); the search reads it in place.

enumerate_maps runs it in index order.  map_tuples and count_maps walk
each zigzag component of the domain breadth-first, so every index
after the first has an assigned comparable neighbour and the search
stays inside one component of the codomain.  count_maps adds up the
last masks' bit counts, multiplied over the domain's components for
hom and strict (0 as soon as one component has no map).
brute_force_count filters the full value-tuple space through the
defining predicates and serves as the oracle.

Fibers, zigzag blocks and the quotient factorization: for a map f and
element x, gamma_block gives the zigzag component of x inside its fiber
f^-1(f(x)).  quotient collapses these blocks, orders them by the
transitive hull of "some member below some member", and factors f as a
quotient map followed by a strict inclusion.
"""

from __future__ import annotations

from typing import Iterator

from . import config
from ._bits import bits, mask_of
from ._record import record
from .errors import (
    DomainMismatch,
    InternalInvariantViolation,
    InvalidParameter,
    NotAPartialOrder,
    OracleTooLarge,
)
from .poset import Poset, _transitive_hull, _zigzag, gamma, require_indices, require_nonempty

KINDS = ("hom", "strict", "strict_onto", "emb", "aut")


# -- full-map predicates (the definitions; also the oracle's filter) ------

def tuple_is_hom(p: Poset, q: Poset, f: tuple[int, ...]) -> bool:
    return all(
        q.leq(f[i], f[j])
        for i in range(p.n)
        for j in bits(p.upo_mask(i))
    )


def tuple_is_strict(p: Poset, q: Poset, f: tuple[int, ...]) -> bool:
    return all(
        q.lt(f[i], f[j])
        for i in range(p.n)
        for j in bits(p.upo_mask(i))
    )


def tuple_is_onto(q: Poset, f: tuple[int, ...]) -> bool:
    return len(set(f)) == q.n


def tuple_is_embedding(p: Poset, q: Poset, f: tuple[int, ...]) -> bool:
    return all(
        q.leq(f[i], f[j]) == p.leq(i, j)
        for i in range(p.n)
        for j in range(p.n)
    )


def _lazy_flag(slot: str, compute) -> property:
    """Read-only flag computed on first access and kept in a slot."""

    def get(self):
        try:
            return getattr(self, slot)
        except AttributeError:
            value = compute(self)
            setattr(self, slot, value)
            return value

    return property(get)


class HomMap:
    """An arbitrary value map between two posets, classified on demand."""

    __slots__ = ("dom", "cod", "map", "_is_hom", "_is_strict", "_is_onto",
                 "_is_embedding", "_hash")

    def __init__(self, dom: Poset, cod: Poset, mapping):
        mapping = tuple(mapping)
        if len(mapping) != dom.n:
            raise DomainMismatch(
                f"map has {len(mapping)} entries for a domain of size {dom.n}"
            )
        require_indices(mapping, cod.n, "map value")
        self.dom = dom
        self.cod = cod
        self.map = mapping
        self._hash = hash((dom, cod, mapping))

    is_hom = _lazy_flag("_is_hom", lambda m: tuple_is_hom(m.dom, m.cod, m.map))
    is_strict = _lazy_flag(
        "_is_strict", lambda m: m.is_hom and tuple_is_strict(m.dom, m.cod, m.map))
    is_onto = _lazy_flag("_is_onto", lambda m: tuple_is_onto(m.cod, m.map))
    is_embedding = _lazy_flag(
        "_is_embedding", lambda m: tuple_is_embedding(m.dom, m.cod, m.map))

    @classmethod
    def from_labels(cls, dom: Poset, cod: Poset, assignment: dict) -> "HomMap":
        if set(assignment) != set(dom.labels):
            raise DomainMismatch("assignment keys must be exactly the domain labels")
        return cls(dom, cod, tuple(cod.index(assignment[lab]) for lab in dom.labels))

    def __call__(self, x):
        """Image of a domain index, or of a label as a label."""
        if isinstance(x, str):
            return self.cod.labels[self.map[self.dom.index(x)]]
        require_indices((x,), self.dom.n, "element")
        return self.map[x]

    def label_map(self) -> dict[str, str]:
        return {self.dom.labels[i]: self.cod.labels[v] for i, v in enumerate(self.map)}

    def after(self, inner: "HomMap") -> "HomMap":
        """Composite self o inner."""
        if inner.cod != self.dom:
            raise DomainMismatch("composition needs inner.cod == outer.dom")
        return HomMap(inner.dom, self.cod, tuple(self.map[v] for v in inner.map))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.map == other.map
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: the hash depends on the process's string hashing
        return HomMap, (self.dom, self.cod, self.map)

    def __repr__(self) -> str:
        arrows = ",".join(f"{a}>{b}" for a, b in self.label_map().items())
        return f"HomMap({arrows})"


# -- enumeration core ------------------------------------------------------

def _check_args(kind: str, p: Poset, q: Poset) -> None:
    if kind not in KINDS:
        raise InvalidParameter(f"kind must be one of {KINDS}, got {kind!r}")
    require_nonempty(p, q)
    if kind == "aut" and p != q:
        raise DomainMismatch("aut enumeration needs identical domain and codomain")


def _search(kind: str, p: Poset, q: Poset,
            order: tuple[int, ...]) -> Iterator[tuple[list[int], int]]:
    """Depth-first search over the indices of order, stopping one level early.

    Yields (assign, mask) for every feasible assignment of order[:-1],
    where assign is a shared list indexed by domain index and mask holds
    the feasible values of order[-1] (never zero).  Values are taken in
    ascending order at every level.
    """
    n, m = len(order), q.n
    onto = kind in ("strict_onto", "aut")
    if onto and m > n:
        return
    codes = 3 if kind in ("emb", "aut") else 2  # plan codes that pick a row table
    if kind == "hom":
        tables = (q._up, q._down)
        start = [(1 << m) - 1] * n
    else:
        # a strict map sends each chain to a chain of the same length
        tables = q._search_rows
        at_height, at_depth = q._rank_masks
        top = len(at_height)  # q's longest chain, counted in elements
        ph, pd = p.heights, p.depths
        start = []
        for i in order:
            h, d = ph[i], pd[i]
            cand = at_height[h] & at_depth[d] if h < top and d < top else 0
            if not cand:
                return
            start.append(cand)
    key = (order, codes)
    plan = p._plans.get(key)
    if plan is None:
        # per level k: (earlier index j, code) pairs, code 0, 1 or 2 when j
        # is below, above or apart from order[k] (apart for emb and aut
        # only); tables[code][assign[j]] is ANDed into order[k]'s candidates
        pup = p._up
        plan = p._plans[key] = tuple(
            tuple(pair for pair in (
                (j, 0 if (pup[j] >> i) & 1 else 1 if (pup[i] >> j) & 1 else 2)
                for j in order[:k]) if pair[1] < codes)
            for k, i in enumerate(order)
        )

    assign = [0] * p.n
    last = n - 1
    if last == 0:
        yield assign, start[0]
        return
    masks = [0] * last
    masks[0] = start[0]
    used = [0] * n  # onto kinds: values taken by order[:k]
    k = 0
    while k >= 0:
        mk = masks[k]
        if not mk:
            k -= 1
            continue
        low = mk & -mk
        masks[k] = mk ^ low
        assign[order[k]] = low.bit_length() - 1
        k1 = k + 1
        cand = start[k1]
        for j, c in plan[k1]:
            cand &= tables[c][assign[j]]
        if onto:
            taken = used[k1] = used[k] | low
            missing = m - taken.bit_count()
            if missing > n - k1:
                cand = 0
            elif missing == n - k1:
                cand &= ~taken
        if k1 < last:
            masks[k1] = cand
            k = k1
        elif cand:
            yield assign, cand


def _solutions(kind: str, p: Poset, q: Poset,
               order: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Value tuples of every map of the kind, lexicographic in order[0], order[1], ..."""
    last = order[-1]
    for assign, mask in _search(kind, p, q, order):
        for v in bits(mask):
            assign[last] = v
            yield tuple(assign)


def enumerate_maps(kind: str, p: Poset, q: Poset) -> Iterator[HomMap]:
    """Stream the maps of the given class in lexicographic order."""
    _check_args(kind, p, q)
    for sol in _solutions(kind, p, q, tuple(range(p.n))):
        yield HomMap(p, q, sol)


def map_tuples(kind: str, p: Poset, q: Poset) -> Iterator[tuple[int, ...]]:
    """Stream the value tuples of the maps of the given class, in no promised order."""
    _check_args(kind, p, q)
    yield from _solutions(kind, p, q, sum(p.component_orders, ()))


def count_maps(kind: str, p: Poset, q: Poset) -> int:
    """Number of maps of the given class, without materializing them."""
    _check_args(kind, p, q)
    orders = p.component_orders
    if kind in ("hom", "strict"):
        # a map is one map per component; none on one component means none
        total = 1
        for order in orders:
            count = 0
            for _, mask in _search(kind, p, q, order):
                count += mask.bit_count()
            if not count:
                return 0
            total *= count
        return total
    count = 0
    for _, mask in _search(kind, p, q, sum(orders, ())):
        count += mask.bit_count()
    return count


def brute_force_count(kind: str, p: Poset, q: Poset) -> int:
    """Oracle count: filter all |Q|^|P| value tuples through the definition."""
    _check_args(kind, p, q)
    total = q.n ** p.n
    if total > config.DEFAULT_ORACLE_CEILING:
        raise OracleTooLarge(
            f"{total} raw maps exceed the oracle ceiling {config.DEFAULT_ORACLE_CEILING}"
        )

    def accept(f: tuple[int, ...]) -> bool:
        if kind == "hom":
            return tuple_is_hom(p, q, f)
        if kind == "strict":
            return tuple_is_hom(p, q, f) and tuple_is_strict(p, q, f)
        if kind == "strict_onto":
            return (
                tuple_is_hom(p, q, f)
                and tuple_is_strict(p, q, f)
                and tuple_is_onto(q, f)
            )
        if kind == "emb":
            return tuple_is_embedding(p, q, f)
        return tuple_is_embedding(p, q, f) and tuple_is_onto(q, f)

    from itertools import product as iproduct

    return sum(1 for f in iproduct(range(q.n), repeat=p.n) if accept(f))


# -- pointwise order -------------------------------------------------------

def pointwise_leq(f: HomMap, g: HomMap) -> bool:
    """f <= g pointwise; both maps must share domain and codomain."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("pointwise comparison needs equal domains and codomains")
    return all(f.cod.leq(a, b) for a, b in zip(f.map, g.map))


# -- zigzag blocks and the quotient factorization --------------------------

def gamma_block(xi: HomMap, x: int) -> frozenset[int]:
    """Zigzag component of x inside its own fiber."""
    if not xi.is_hom:
        raise InvalidParameter("gamma blocks are defined for homomorphisms")
    require_indices((x,), xi.dom.n, "element")
    fiber = [y for y in range(xi.dom.n) if xi.map[y] == xi.map[x]]
    return gamma(xi.dom, fiber, x)


@record
class QuotientFactorization:
    """Blocks, quotient poset, quotient map pi and strict inclusion iota."""

    blocks: tuple[frozenset[int], ...]
    quotient: Poset
    pi: HomMap
    iota: HomMap


def quotient(xi: HomMap) -> QuotientFactorization:
    """Collapse zigzag fiber blocks and factor xi = iota o pi."""
    if not xi.is_hom:
        raise InvalidParameter("quotient factorization is defined for homomorphisms")
    p = xi.dom
    fibers: dict[int, int] = {}
    for x, v in enumerate(xi.map):
        fibers[v] = fibers.get(v, 0) | 1 << x
    blocks: list[frozenset[int]] = []
    block_of = [-1] * p.n
    for x in range(p.n):
        if block_of[x] >= 0:
            continue
        # the gamma_block of x, walked inside its fiber's mask
        blk = frozenset(bits(_zigzag(p, fibers[xi.map[x]], x)))
        for y in blk:
            block_of[y] = len(blocks)
        blocks.append(blk)

    rows = [mask_of(block_of[y] for x in blk for y in bits(p.up_mask(x))) for blk in blocks]
    _transitive_hull(rows)
    labels = tuple(
        "{" + ",".join(p.labels[i] for i in sorted(blk)) + "}" for blk in blocks
    )
    try:
        qposet = Poset(labels, rows)
    except NotAPartialOrder as exc:
        raise InternalInvariantViolation(
            f"quotient relation failed to be a partial order: {exc}"
        ) from exc

    pi = HomMap(p, qposet, tuple(block_of))
    iota = HomMap(qposet, xi.cod, tuple(xi.map[min(blk)] for blk in blocks))
    if not pi.is_hom:
        raise InternalInvariantViolation("quotient map is not a homomorphism")
    if not iota.is_strict:
        raise InternalInvariantViolation("inclusion of the quotient is not strict")
    if iota.after(pi).map != xi.map:
        raise InternalInvariantViolation("factorization does not recompose")
    return QuotientFactorization(tuple(blocks), qposet, pi, iota)


def gamma_class_count(xi: HomMap, t: Poset) -> int:
    """Number of homomorphisms sharing xi's block partition, valued in t.

    Equals the number of strict maps from the quotient into t.
    """
    require_nonempty(t)
    return count_maps("strict", quotient(xi).quotient, t)
