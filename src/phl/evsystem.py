"""Extended-vicinity systems.

The extended vicinity system of a poset P collects all points (x, D, U)
with D a subset of the strict down-set of x and U a subset of the
strict up-set.  Points compare by

    a <+ b   iff   anchor(a) in down(b)  and  anchor(b) in up(a),

which is irreflexive and antisymmetric but not transitive in general,
so the system is a relation structure, not a poset.  Fibers over a
common anchor are antichains, the anchor projection is strict, and
x -> (x, full down-set, full up-set) embeds P into its system.

A strict map xi: P -> Q induces the profile x -> (xi(x), xi(down), xi(up))
valued in the system of Q; profiles of strict maps are strict for <+.
check_ev_scheme verifies, over every connected P up to a bound, that a
strict system map eps transports strict maps P -> R to strict maps
P -> S injectively, with the fiber-recovery equation on a designated
anchor subset; this is the machinery behind certified scheme
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import config
from ._bits import bits, mask_of, submasks
from .canonical import enumerate_connected
from .errors import (
    EmptyPoset,
    IndexOutOfRange,
    InternalInvariantViolation,
    InvalidParameter,
    NotStrict,
    PreconditionFailed,
    SizeOverflow,
    UnknownElement,
)
from .homs import HomMap, map_tuples
from .poset import Poset


@dataclass(frozen=True)
class EVElement:
    """A vicinity point: anchor index, down mask, up mask over the base."""

    anchor: int
    down: int
    up: int

    def render(self, base: Poset) -> str:
        d = ",".join(base.labels[i] for i in bits(self.down))
        u = ",".join(base.labels[i] for i in bits(self.up))
        return f"({base.labels[self.anchor]};{{{d}}};{{{u}}})"

    def pushed(self, f) -> "EVElement":
        """The image point (f anchor, f down, f up) under a carrier map f."""
        return EVElement(
            f[self.anchor],
            mask_of(f[i] for i in bits(self.down)),
            mask_of(f[i] for i in bits(self.up)),
        )


class EVSystem:
    """All vicinity points of a base poset with the <+ relation."""

    __slots__ = ("base", "elements", "_pos", "_lt_rows")

    def __init__(self, base: Poset, elements: tuple[EVElement, ...]):
        self.base = base
        self.elements = elements
        self._pos = {e: i for i, e in enumerate(elements)}
        rows = []
        for a in elements:
            row = 0
            for j, b in enumerate(elements):
                if (b.down >> a.anchor) & 1 and (a.up >> b.anchor) & 1:
                    row |= 1 << j
            rows.append(row)
        self._lt_rows = tuple(rows)

    def __len__(self) -> int:
        return len(self.elements)

    def position(self, element: EVElement) -> int:
        try:
            return self._pos[element]
        except KeyError:
            raise UnknownElement(f"{element} is not a vicinity point of the base") from None

    def __contains__(self, element: EVElement) -> bool:
        return element in self._pos

    def lt(self, a, b) -> bool:
        """The <+ relation; accepts positions or the points themselves."""
        i = a if isinstance(a, int) else self.position(a)
        j = b if isinstance(b, int) else self.position(b)
        return bool((self._lt_rows[i] >> j) & 1)

    def fiber(self, x: int) -> tuple[EVElement, ...]:
        return tuple(e for e in self.elements if e.anchor == x)

    def __repr__(self) -> str:
        return f"EVSystem(base={self.base!r}, size={len(self.elements)})"


def ev_size(p: Poset) -> int:
    """Number of vicinity points, computed without materializing them."""
    return sum(
        1 << (p.downo_mask(x).bit_count() + p.upo_mask(x).bit_count())
        for x in range(p.n)
    )


@lru_cache(maxsize=64)
def _build_ev_cached(p: Poset, ceiling: int) -> EVSystem:
    total = ev_size(p)
    if total > ceiling:
        raise SizeOverflow(total, ceiling)
    elements = []
    for x in range(p.n):
        for d in submasks(p.downo_mask(x)):
            for u in submasks(p.upo_mask(x)):
                elements.append(EVElement(x, d, u))
    return EVSystem(p, tuple(elements))


def build_ev(p: Poset, ceiling: int | None = None) -> EVSystem:
    """The vicinity system of p, points ordered by (anchor, down, up)."""
    if p.n == 0:
        raise EmptyPoset("vicinity system of the empty poset")
    return _build_ev_cached(p, ceiling if ceiling is not None else config.DEFAULT_EV_CEILING)


def ev_at(system: EVSystem, x) -> tuple[EVElement, ...]:
    """Fiber of the system over an anchor given by index or label."""
    if isinstance(x, str):
        x = system.base.index(x)
    if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < system.base.n):
        raise IndexOutOfRange(f"anchor {x!r} outside base carrier")
    return system.fiber(x)


@dataclass(frozen=True)
class EVProfile:
    """The vicinity profile of a strict map: per-element (image, image of
    strict down-set, image of strict up-set), valued over the codomain."""

    dom: Poset
    cod: Poset
    triples: tuple[EVElement, ...]

    def __getitem__(self, x: int) -> EVElement:
        return self.triples[x]


def _profile(p: Poset, q: Poset, f) -> tuple[EVElement, ...]:
    """Each base point (x, down x, up x) of p pushed through f into q's system."""
    triples = tuple(
        EVElement(x, p.downo_mask(x), p.upo_mask(x)).pushed(f) for x in range(p.n)
    )
    for e in triples:
        if e.down & ~q.downo_mask(e.anchor) or e.up & ~q.upo_mask(e.anchor):
            raise InternalInvariantViolation("profile escapes the codomain vicinities")
    return triples


def ev_profile(xi: HomMap) -> EVProfile:
    """Profile of a strict map; raises NotStrict otherwise."""
    if not xi.is_strict:
        raise NotStrict("profiles are defined for strict maps")
    p, q = xi.dom, xi.cod
    triples = _profile(p, q, xi.map)
    for x in range(p.n):
        for y in bits(p.upo_mask(x)):
            a, b = triples[x], triples[y]
            if not ((b.down >> a.anchor) & 1 and (a.up >> b.anchor) & 1):
                raise InternalInvariantViolation("profile of a strict map is not <+-strict")
    return EVProfile(p, q, triples)


@dataclass(frozen=True)
class EVMap:
    """A point map between two vicinity systems (positions into target)."""

    source: EVSystem
    target: EVSystem
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != len(self.source):
            raise InvalidParameter("mapping length differs from source size")
        for v in self.mapping:
            if not (0 <= v < len(self.target)):
                raise IndexOutOfRange(f"target position {v} out of range")

    @classmethod
    def identity(cls, system: EVSystem) -> "EVMap":
        return cls(system, system, tuple(range(len(system))))

    @classmethod
    def pushforward(cls, source: EVSystem, target: EVSystem, base: HomMap) -> "EVMap":
        """Apply a base map pointwise: (x, D, U) -> (f x, f D, f U).

        Each image triple must be a point of the target system.
        """
        if base.dom != source.base or base.cod != target.base:
            raise InvalidParameter("base map does not connect the two systems")
        out = []
        for e in source.elements:
            img = e.pushed(base.map)
            if img not in target:
                raise InvalidParameter(f"pushforward leaves the target system at {e}")
            out.append(target.position(img))
        return cls(source, target, tuple(out))

    def image(self, i: int) -> EVElement:
        return self.target.elements[self.mapping[i]]


def is_strict_ev_hom(m: EVMap) -> bool:
    """True iff a <+ b always implies m(a) <+ m(b) with distinct images."""
    src, tgt = m.source, m.target
    for i in range(len(src)):
        mi = m.mapping[i]
        for j in bits(src._lt_rows[i]):
            mj = m.mapping[j]
            if mi == mj or not tgt.lt(mi, mj):
                return False
    return True


@dataclass(frozen=True)
class EVSchemeViolation:
    condition: str
    poset: Poset
    detail: str


@dataclass(frozen=True)
class EVSchemeReport:
    ok: bool
    bound: int
    posets_checked: int
    maps_checked: int
    violations: tuple[EVSchemeViolation, ...]


def check_ev_scheme(
    eps: EVMap,
    r: Poset,
    s: Poset,
    z_plus: Iterable,
    n_max: int | None = None,
) -> EVSchemeReport:
    """Bounded check that eps transports strict maps into R to strict maps
    into S, scheme-style.

    Preconditions (PreconditionFailed if violated): eps runs between the
    systems of r and s, is strict, identifies only points with a common
    anchor, and z_plus omits at most one anchor of r.  The scan then
    verifies, for every connected P up to n_max and every strict
    xi: P -> R with transported eta:

      * profile points of eta that lie in the image of eps come from the
        fiber over xi's value, and points outside the image anchor at
        the single element left out of z_plus;
      * for each v in z_plus the fiber xi^-1(v) is recovered from eta;
      * distinct xi yield distinct eta.
    """
    if n_max is None:
        n_max = config.DEFAULT_SCAN_BOUND
    config.check_bound(n_max)
    if eps.source.base != r or eps.target.base != s:
        raise PreconditionFailed("eps must map the system of r into the system of s")
    if not is_strict_ev_hom(eps):
        raise PreconditionFailed("eps is not strict")

    z_idx = set()
    for z in z_plus:
        z_idx.add(r.index(z) if isinstance(z, str) else int(z))
    for v in z_idx:
        if not (0 <= v < r.n):
            raise IndexOutOfRange(f"z_plus element {v} outside carrier")
    left_out = [v for v in range(r.n) if v not in z_idx]
    if len(left_out) > 1:
        raise PreconditionFailed("z_plus must omit at most one anchor")

    src = eps.source
    image_anchor: dict[EVElement, int] = {}
    for i, e in enumerate(src.elements):
        img = eps.image(i)
        prev = image_anchor.get(img)
        if prev is not None and prev != e.anchor:
            raise PreconditionFailed("eps identifies points with different anchors")
        image_anchor[img] = e.anchor

    src_pos = src._pos
    violations: list[EVSchemeViolation] = []
    posets_checked = 0
    maps_checked = 0
    for p in enumerate_connected(n_max):
        posets_checked += 1
        etas = set()
        count = 0
        for f in map_tuples("strict", p, r):
            count += 1
            maps_checked += 1
            # profile of xi over r, pushed through eps
            eta = tuple(eps.image(src_pos[pt]).anchor for pt in _profile(p, r, f))
            etas.add(eta)
            # profile of eta over s, checked against the image of eps
            recovered: dict[int, set[int]] = {v: set() for v in z_idx}
            ok_here = True
            for x, pt in enumerate(_profile(p, s, eta)):
                anc = image_anchor.get(pt)
                if anc is not None:
                    if anc != f[x]:
                        violations.append(EVSchemeViolation(
                            "fiber-membership", p,
                            f"profile point of eta at {p.labels[x]} comes from anchor "
                            f"{r.labels[anc]} instead of {r.labels[f[x]]}",
                        ))
                        ok_here = False
                    if anc in recovered:
                        recovered[anc].add(x)
                else:
                    if f[x] not in left_out:
                        violations.append(EVSchemeViolation(
                            "image-escape", p,
                            f"profile point of eta at {p.labels[x]} leaves the image "
                            f"while {r.labels[f[x]]} is designated",
                        ))
                        ok_here = False
            if ok_here:
                for v in z_idx:
                    actual = {x for x in range(p.n) if f[x] == v}
                    if recovered[v] != actual:
                        violations.append(EVSchemeViolation(
                            "fiber-recovery", p,
                            f"fiber over {r.labels[v]} not recovered",
                        ))
        if len(etas) != count:
            violations.append(EVSchemeViolation(
                "injectivity", p,
                f"{count} strict maps transported to {len(etas)} images",
            ))
    return EVSchemeReport(
        ok=not violations,
        bound=n_max,
        posets_checked=posets_checked,
        maps_checked=maps_checked,
        violations=tuple(violations[:16]),
    )
