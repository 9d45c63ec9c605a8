"""Extended-vicinity systems.

The extended vicinity system of a poset P collects all points (x, D, U)
with D a subset of the strict down-set of x and U a subset of the
strict up-set.  Points compare by

    a <+ b   iff   anchor(a) in down(b)  and  anchor(b) in up(a),

which is irreflexive and antisymmetric but not transitive in general,
so the system is a relation structure, not a poset.  Fibers over a
common anchor are antichains, the anchor projection is strict, and
x -> (x, full down-set, full up-set) embeds P into its system.  The
<+ rows are built per anchor, not per pair of points: the row of a is
the union, over y in up(a), of the points anchored at y whose
down-set contains anchor(a).

A strict map xi: P -> Q induces the profile x -> (xi(x), xi(down), xi(up))
valued in the system of Q; profiles of strict maps are strict for <+.
check_ev_scheme verifies, over every connected P up to a bound, that a
strict system map eps transports strict maps P -> R to strict maps
P -> S injectively, with the fiber-recovery equation on a designated
anchor subset; this is the machinery behind certified scheme
comparisons.
"""

from __future__ import annotations

from typing import Iterable

from . import config
from ._bits import bits, mask_of, submasks
from ._record import record
from .canonical import enumerate_connected
from .errors import (
    EmptyPoset,
    InternalInvariantViolation,
    InvalidParameter,
    NotStrict,
    PreconditionFailed,
    SizeOverflow,
    UnknownElement,
)
from .homs import HomMap, map_tuples
from .poset import Poset, require_indices


@record
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
    """All vicinity points of a base poset with the <+ relation.

    Two systems are equal when their bases and point tuples are; the
    relation rows follow from those, so copies rebuild them.
    """

    __slots__ = ("base", "elements", "_pos", "_lt_rows", "_hash")

    def __init__(self, base: Poset, elements: tuple[EVElement, ...]):
        self.base = base
        self.elements = elements
        self._pos = {e: i for i, e in enumerate(elements)}
        # over[x][y] holds the points anchored at y whose down-set contains x
        over = [[0] * base.n for _ in range(base.n)]
        for j, b in enumerate(elements):
            for x in bits(b.down):
                over[x][b.anchor] |= 1 << j
        # the row of a depends only on (anchor, up), so points sharing both
        # share one row object
        row_of: dict[tuple[int, int], int] = {}
        for a in elements:
            if (a.anchor, a.up) not in row_of:
                row = 0
                for y in bits(a.up):
                    row |= over[a.anchor][y]
                row_of[a.anchor, a.up] = row
        self._lt_rows = tuple(row_of[a.anchor, a.up] for a in elements)

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
        i, j = require_indices(
            (self.position(x) if isinstance(x, EVElement) else x for x in (a, b)),
            len(self.elements), "position",
        )
        return bool((self._lt_rows[i] >> j) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EVSystem):
            return NotImplemented
        return self is other or (self.base == other.base and self.elements == other.elements)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.base, self.elements))
            return self._hash

    def __reduce__(self):
        return EVSystem, (self.base, self.elements)

    def __repr__(self) -> str:
        return f"EVSystem(base={self.base!r}, size={len(self.elements)})"


def ev_size(p: Poset) -> int:
    """Number of vicinity points, computed without materializing them."""
    return sum(
        1 << (p.downo_mask(x).bit_count() + p.upo_mask(x).bit_count())
        for x in range(p.n)
    )


def build_ev(p: Poset) -> EVSystem:
    """The vicinity system of p, points ordered by (anchor, down, up)."""
    if p.n == 0:
        raise EmptyPoset("vicinity system of the empty poset")
    total = ev_size(p)
    if total > config.DEFAULT_EV_CEILING:
        raise SizeOverflow(total, config.DEFAULT_EV_CEILING)
    elements = tuple(
        EVElement(x, d, u)
        for x in range(p.n)
        for d in submasks(p.downo_mask(x))
        for u in submasks(p.upo_mask(x))
    )
    return EVSystem(p, elements)


def ev_at(system: EVSystem, x) -> tuple[EVElement, ...]:
    """Fiber of the system over an anchor given by index or label."""
    if isinstance(x, str):
        x = system.base.index(x)
    require_indices((x,), system.base.n, "anchor")
    return tuple(e for e in system.elements if e.anchor == x)


def _profile(p: Poset, q: Poset, f) -> tuple[EVElement, ...]:
    """Each base point (x, down x, up x) of p pushed through f into q's system."""
    triples = tuple(
        EVElement(x, p.downo_mask(x), p.upo_mask(x)).pushed(f) for x in range(p.n)
    )
    for e in triples:
        if e.down & ~q.downo_mask(e.anchor) or e.up & ~q.upo_mask(e.anchor):
            raise InternalInvariantViolation("profile escapes the codomain vicinities")
    return triples


def ev_profile(xi: HomMap) -> tuple[EVElement, ...]:
    """Profile of a strict map: per element x, the codomain point
    (xi x, xi of the strict down-set, xi of the strict up-set); raises
    NotStrict otherwise."""
    if not xi.is_strict:
        raise NotStrict("profiles are defined for strict maps")
    p, q = xi.dom, xi.cod
    triples = _profile(p, q, xi.map)
    for x in range(p.n):
        for y in bits(p.upo_mask(x)):
            a, b = triples[x], triples[y]
            if not ((b.down >> a.anchor) & 1 and (a.up >> b.anchor) & 1):
                raise InternalInvariantViolation("profile of a strict map is not <+-strict")
    return triples


@record
class EVMap:
    """A point map between two vicinity systems (positions into target)."""

    source: EVSystem
    target: EVSystem
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != len(self.source):
            raise InvalidParameter("mapping length differs from source size")
        require_indices(self.mapping, len(self.target), "target position")

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
            if mi == mj or not (tgt._lt_rows[mi] >> mj) & 1:
                return False
    return True


@record
class EVSchemeViolation:
    """One failed scheme condition, with the poset that shows it."""

    condition: str
    poset: Poset
    detail: str


@record
class EVSchemeReport:
    """check_ev_scheme's strict maps scanned and violations found."""

    maps_checked: int
    violations: tuple[EVSchemeViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


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

    The report holds the number of strict maps xi scanned and the first
    16 violations, in class order and then lexicographic map order.
    """
    n_max = config.check_bound(n_max, config.DEFAULT_SCAN_BOUND)
    if eps.source.base != r or eps.target.base != s:
        raise PreconditionFailed("eps must map the system of r into the system of s")
    if not is_strict_ev_hom(eps):
        raise PreconditionFailed("eps is not strict")

    z_idx = set(require_indices(
        (r.index(z) if isinstance(z, str) else z for z in z_plus), r.n, "z_plus element"
    ))
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
    maps_checked = 0
    for p in enumerate_connected(n_max):
        etas = set()
        count = 0
        # lexicographic order, so the violations kept below do not depend
        # on the search order of map_tuples
        for f in sorted(map_tuples("strict", p, r)):
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
    return EVSchemeReport(maps_checked, tuple(violations[:16]))
