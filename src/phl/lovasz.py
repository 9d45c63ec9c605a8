"""Factoring strict-map counts through embedded connected classes.

For connected P, every strict map P -> T factors uniquely as a strict
surjection onto its (connected) image Q followed by an induced copy of
Q, so with ind(Q, T) the number of induced copies of Q in T

    #strict(P, T) = sum over connected classes Q of #strict_onto(P, Q) * ind(Q, T).

Aut(Q) acts freely on embeddings of Q, so #emb(Q, T) = #aut(Q) * ind(Q, T),
and on strict surjections onto Q, so sro = #strict_onto / #aut is
integral: factor_matrices checks the identity as strict = sro . emb
column by column, and verify_factorization for one (P, T) pair.  The
copy vector of (R, S), d = ind(., S) - ind(., R) with level m on the
classes of m elements (copy_vector), gives #strict(P, S) - #strict(P, R)
as the sum of #strict_onto(P, Q) * d(Q) over the Q of at most |P| elements.

One bounded table keyed by canonical code keeps the data of each
connected class: its induced copies by level (induced_copies) and its
strict-count profile (strict_profile), which gscheme's scans fill.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import config
from ._bits import bits, down_rows, mask_of
from ._record import record
from .canonical import canonical_code, canonical_form, code_rows, component_classes, representatives
from .errors import (
    InternalInvariantViolation,
    InvalidParameter,
    SizeOverflow,
    UniverseMismatch,
)
from .homs import count_maps
from .poset import Poset, is_connected, require_nonempty


def embeddable_connected(*targets: Poset) -> MappingProxyType[bytes, Poset]:
    """Classes of connected posets embeddable into at least one target.

    Embeddings are exactly isomorphisms onto induced subposets, so the
    read-only table maps the code of each connected induced subposet of
    a target to its canonical representative, in (size, code) order: the
    codes with a copy on some level of induced_copies.  A target
    component of c elements has up to 2^c subsets to code; SizeOverflow
    refuses more than config.DEFAULT_SUBSET_CEILING before any is coded.
    """
    if not targets:
        raise InvalidParameter("embeddable classes need at least one target")
    require_nonempty(*targets)
    subsets = max(1 << len(order) for t in targets for order in t.component_orders)
    if subsets > config.DEFAULT_SUBSET_CEILING:
        raise SizeOverflow(subsets, config.DEFAULT_SUBSET_CEILING)
    return MappingProxyType(_embeddable_table(targets))


@lru_cache(maxsize=16)
def _embeddable_table(targets: tuple[Poset, ...]) -> dict[bytes, Poset]:
    codes: set[bytes] = set()
    for t in targets:
        groups = component_classes(Poset((), ()), t)
        for size in range(1, t.n + 1):
            codes.update(copy_vector(groups, size))
    return representatives(codes)


# Room for the 297 connected classes up to 6 elements.
_CLASS_CACHE_SIZE = 512


@lru_cache(maxsize=_CLASS_CACHE_SIZE)
def _class_data(code: bytes) -> tuple[dict[int, tuple[dict[bytes, int], list[int]]], dict[int, int]]:
    """For the connected class c with this code: its copy levels, where entry
    m holds ind(Q, c) by Q's code for the classes Q of m elements and the
    masks of the connected m-subsets of the rows the code lists; and its
    strict-count profile, where key i holds #strict(P_i, c) for the i-th
    connected class P_i (up to 1,947 keys at bound 7)."""
    return {}, {}


def strict_profile(code: bytes) -> dict[int, int]:
    """The strict-count profile of the connected class with this code, kept
    in the table of its copy levels; a scan stores each count once."""
    return _class_data(code)[1]


def induced_copies(code: bytes, size: int) -> dict[bytes, int]:
    """ind(Q, c), the number of induced copies of Q in c, by Q's code, for
    every connected class Q of size elements with a copy in c, where c is
    the connected class with the given code.

    The code keys a bounded table of the levels found so far, so the
    result must not be changed.  The levels are walked on the rows the
    code lists.  A connected set of m + 1 elements is a connected set of m
    elements plus a comparable element (take away a leaf of a spanning
    tree), so each level grows from the one below and no 2^|c| walk
    happens.
    """
    if size < 1:
        raise InvalidParameter(f"copy level {size} is below 1")
    return _copy_level(code, size)[0]


def copy_vector(groups: dict[bytes, list], m: int) -> dict[bytes, int]:
    """Level m of the copy vector d = ind(., S) - ind(., R) by class code,
    for groups = canonical.component_classes(R, S); an entry may be 0.
    Components add their copies, so a group with as many components in R
    as in S cancels.  ind(., T) is the copy vector of (Poset((), ()), T).
    """
    if m < 1:
        raise InvalidParameter(f"copy level {m} is below 1")
    d: dict[bytes, int] = {}
    for code, (c, mr, ms) in groups.items():
        if mr != ms and c.n >= m:
            for q, copies in induced_copies(code, m).items():
                d[q] = d.get(q, 0) + (ms - mr) * copies
    return d


def _copy_level(code: bytes, size: int) -> tuple[dict[bytes, int], list[int]]:
    levels = _class_data(code)[0]
    level = levels.get(size)
    if level is not None:
        return level
    up = code_rows(code)
    down = down_rows(up)
    if size == 1:
        masks = [1 << x for x in range(len(up))]
    else:
        grown = set()
        for m in _copy_level(code, size - 1)[1]:
            reach = 0
            for x in bits(m):
                reach |= up[x] | down[x]
            grown.update(m | 1 << y for y in bits(reach & ~m))
        masks = sorted(grown)
    counts: dict[bytes, int] = {}
    for m in masks:
        members = tuple(bits(m))
        q = canonical_code([mask_of(k for k, y in enumerate(members) if up[x] >> y & 1) for x in members])
        counts[q] = counts.get(q, 0) + 1
    # two threads may both grow this level: the first store wins, and both read it
    return levels.setdefault(size, (counts, masks))


def count_strict_onto_orbits(p: Poset, q: Poset) -> int:
    """Strict surjections p -> q counted up to automorphisms of q."""
    require_nonempty(p, q)
    onto = count_maps("strict_onto", p, q)
    auts = count_maps("aut", q, q)
    if onto % auts:
        raise InternalInvariantViolation(
            f"{onto} strict surjections not divisible by {auts} automorphisms"
        )
    return onto // auts


def image_class_count(qclass: Poset, p: Poset, t: Poset) -> int:
    """Strict maps p -> t whose image is an induced copy of qclass."""
    require_nonempty(qclass, p, t)
    if not is_connected(qclass):
        raise InvalidParameter("image class representative must be connected")
    return count_strict_onto_orbits(p, qclass) * count_maps("emb", qclass, t)


@record
class CountMatrix:
    """An integer matrix with named rows and columns."""

    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.col_names)]
        for name, row in zip(self.row_names, self.cells):
            lines.append(name + "," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_pretty(self) -> str:
        """Aligned table with zero entries left blank."""
        cols = [""] + list(self.col_names)
        body = [
            [name] + [str(v) if v else "" for v in row]
            for name, row in zip(self.row_names, self.cells)
        ]
        widths = [max(len(r[c]) for r in [cols] + body) for c in range(len(cols))]
        out = []
        for r in [cols] + body:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(out) + "\n"


@record
class FactorMatrices:
    """Strict-surjection-orbit, embedding and strict-map count matrices."""

    sro: CountMatrix
    emb: CountMatrix
    strict: CountMatrix


_CATALOG_NAMES = (
    "A1", "A2", "A3", "A4", "C2", "C3", "C4",
    "V3", "Lambda3", "V4", "Lambda4", "N", "W", "N2",
)
_NAME_OF_CODE: dict[bytes, str] = {}


def display_name(p: Poset) -> str:
    """Catalog name of p's class when it has one, else a tag of its whole code."""
    if not _NAME_OF_CODE:
        from .serialize import parse_catalog_ref

        for name in _CATALOG_NAMES:
            _NAME_OF_CODE[canonical_form(parse_catalog_ref(name))] = name
    code = canonical_form(p)
    return _NAME_OF_CODE.get(code) or f"P{p.n}#{code[1:].hex()}"


def factor_matrices(row_universe, targets, target_names=None) -> FactorMatrices:
    """The three count matrices over a shared row universe.

    The universe must consist of pairwise non-isomorphic connected
    posets and cover exactly the classes embeddable into at least one
    target; UniverseMismatch reports any defect.  Rows are named by
    display_name, columns by target_names (one per target, display_name
    by default).  The factorization identity strict = sro . emb is
    checked for every column.
    """
    universe = tuple(row_universe)
    targets = tuple(targets)
    if not universe or not targets:
        raise InvalidParameter("universe and targets must be nonempty")
    target_names = tuple(map(display_name, targets) if target_names is None else target_names)
    if len(target_names) != len(targets):
        raise InvalidParameter(f"{len(target_names)} target names for {len(targets)} targets")
    codes = [canonical_form(p) for p in universe]
    if len(set(codes)) != len(codes):
        raise UniverseMismatch("universe repeats an isomorphism class")
    for p in universe:
        if not is_connected(p):
            raise UniverseMismatch("universe members must be connected")
    needed = embeddable_connected(*targets)
    have = set(codes)
    if have != needed.keys():
        missing = sorted(display_name(needed[c]) for c in needed.keys() - have)
        extra_codes = have - needed.keys()
        extra = sorted(
            display_name(p) for p, c in zip(universe, codes) if c in extra_codes
        )
        parts = []
        if missing:
            parts.append(f"missing classes: {', '.join(missing)}")
        if extra:
            parts.append(f"classes embeddable in no target: {', '.join(extra)}")
        raise UniverseMismatch("; ".join(parts))

    row_names = tuple(map(display_name, universe))

    sro_cells = tuple(
        tuple(count_strict_onto_orbits(p, q) for q in universe) for p in universe
    )
    emb_cells = tuple(
        tuple(count_maps("emb", p, t) for t in targets) for p in universe
    )
    strict_cells = tuple(
        tuple(count_maps("strict", p, t) for t in targets) for p in universe
    )
    for i in range(len(universe)):
        for tj in range(len(targets)):
            total = sum(
                sro_cells[i][k] * emb_cells[k][tj] for k in range(len(universe))
            )
            if total != strict_cells[i][tj]:
                raise InternalInvariantViolation(
                    f"factorization identity fails at row {row_names[i]}, "
                    f"column {target_names[tj]}: {total} != {strict_cells[i][tj]}"
                )
    return FactorMatrices(
        CountMatrix(row_names, row_names, sro_cells),
        CountMatrix(row_names, target_names, emb_cells),
        CountMatrix(row_names, target_names, strict_cells),
    )


@record
class FactorizationTerm:
    """One class's term of #strict: strict-onto orbits times embeddings."""

    name: str
    orbit_count: int
    emb_count: int

    @property
    def product(self) -> int:
        return self.orbit_count * self.emb_count


@record
class FactorizationReport:
    """#strict(p, t), which equals the sum of its factorization terms."""

    strict_total: int
    terms: tuple[FactorizationTerm, ...]


def verify_factorization(p: Poset, t: Poset) -> FactorizationReport:
    """Check #strict(p, t) against the per-class factorization; p connected."""
    require_nonempty(p, t)
    if not is_connected(p):
        raise InvalidParameter("factorization requires a connected domain")
    terms = []
    total = 0
    for rep in embeddable_connected(t).values():
        term = FactorizationTerm(
            display_name(rep),
            count_strict_onto_orbits(p, rep),
            count_maps("emb", rep, t),
        )
        terms.append(term)
        total += term.product
    strict_total = count_maps("strict", p, t)
    if total != strict_total:
        raise InternalInvariantViolation(
            f"factorization identity fails: {total} != {strict_total}"
        )
    return FactorizationReport(strict_total, tuple(terms))
