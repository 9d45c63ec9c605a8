"""Factoring strict-map counts through embedded connected classes.

For connected P, every strict map P -> T factors uniquely as a strict
surjection onto its (connected) image followed by an embedding, so

    #strict(P, T) = sum over classes Q embeddable in T of
                    #strict_onto(P, Q) / #aut(Q) * #emb(Q, T).

The automorphism group of Q acts freely on strict surjections onto Q,
making the quotient integral.  factor_matrices assembles the three
count matrices over a shared row universe and checks the identity
column by column; verify_factorization checks a single (P, T) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._bits import bits
from .canonical import IsoClassTable, canonical_form
from .errors import (
    InternalInvariantViolation,
    InvalidParameter,
    NonIntegralQuotient,
    UniverseMismatch,
)
from .homs import count_maps
from .poset import Poset, gamma, induced, is_connected, require_nonempty


def embeddable_connected(*targets: Poset) -> IsoClassTable:
    """Classes of connected posets embeddable into at least one target.

    Embeddings are exactly isomorphisms onto induced subposets, so the
    table collects the connected induced subposets of the targets up to
    isomorphism, as canonical representatives.
    """
    require_nonempty(*targets)
    return _embeddable_table(targets)


@lru_cache(maxsize=16)
def _embeddable_table(targets: tuple[Poset, ...]) -> IsoClassTable:
    return IsoClassTable(
        induced(t, members)
        for t in targets
        for members in (tuple(bits(m)) for m in range(1, 1 << t.n))
        if gamma(t, members, members[0]) == frozenset(members)
    )


def count_strict_onto_orbits(p: Poset, q: Poset) -> int:
    """Strict surjections p -> q counted up to automorphisms of q."""
    require_nonempty(p, q)
    onto = count_maps("strict_onto", p, q)
    auts = count_maps("aut", q, q)
    if onto % auts:
        raise NonIntegralQuotient(
            f"{onto} strict surjections not divisible by {auts} automorphisms"
        )
    return onto // auts


def image_class_count(qclass: Poset, p: Poset, t: Poset) -> int:
    """Strict maps p -> t whose image is an induced copy of qclass."""
    require_nonempty(qclass, p, t)
    if not is_connected(qclass):
        raise InvalidParameter("image class representative must be connected")
    return count_strict_onto_orbits(p, qclass) * count_maps("emb", qclass, t)


@dataclass(frozen=True)
class CountMatrix:
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


@dataclass(frozen=True)
class FactorMatrices:
    """Strict-surjection-orbit, embedding and strict-map count matrices."""

    universe: tuple[Poset, ...]
    targets: tuple[Poset, ...]
    sro: CountMatrix
    emb: CountMatrix
    strict: CountMatrix


_CATALOG_NAMES = (
    "A1", "A2", "A3", "A4", "C2", "C3", "C4",
    "V3", "Lambda3", "V4", "Lambda4", "N", "W", "N2",
)
_NAME_OF_CODE: dict[bytes, str] = {}


def display_name(p: Poset) -> str:
    """Catalog name of p's class when it has one, else a code-based tag."""
    if not _NAME_OF_CODE:
        from .serialize import parse_catalog_ref

        for name in _CATALOG_NAMES:
            _NAME_OF_CODE[canonical_form(parse_catalog_ref(name))] = name
    code = canonical_form(p)
    return _NAME_OF_CODE.get(code) or f"P{p.n}#{code[1:3].hex()}"


def factor_matrices(
    row_universe,
    targets,
    row_names=None,
    target_names=None,
) -> FactorMatrices:
    """The three count matrices over a shared row universe.

    The universe must consist of pairwise non-isomorphic connected
    posets and cover exactly the classes embeddable into at least one
    target; UniverseMismatch reports any defect.  The factorization
    identity strict = sro . emb is checked for every column.
    """
    universe = tuple(row_universe)
    targets = tuple(targets)
    if not universe or not targets:
        raise InvalidParameter("universe and targets must be nonempty")
    codes = [canonical_form(p) for p in universe]
    if len(set(codes)) != len(codes):
        raise UniverseMismatch("universe repeats an isomorphism class")
    for p in universe:
        if not is_connected(p):
            raise UniverseMismatch("universe members must be connected")
    table = embeddable_connected(*targets)
    needed = dict(zip(table.codes, table.posets))
    have = set(codes)
    if have != set(needed):
        missing = sorted(display_name(needed[c]) for c in set(needed) - have)
        extra_codes = have - set(needed)
        extra = sorted(
            display_name(p) for p, c in zip(universe, codes) if c in extra_codes
        )
        parts = []
        if missing:
            parts.append(f"missing classes: {', '.join(missing)}")
        if extra:
            parts.append(f"classes embeddable in no target: {', '.join(extra)}")
        raise UniverseMismatch("; ".join(parts))

    if row_names is None:
        row_names = tuple(display_name(p) for p in universe)
    else:
        row_names = tuple(row_names)
    if target_names is None:
        target_names = tuple(display_name(t) for t in targets)
    else:
        target_names = tuple(target_names)

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
    uni_names = row_names
    return FactorMatrices(
        universe=universe,
        targets=targets,
        sro=CountMatrix(row_names, uni_names, sro_cells),
        emb=CountMatrix(row_names, target_names, emb_cells),
        strict=CountMatrix(row_names, target_names, strict_cells),
    )


@dataclass(frozen=True)
class FactorizationTerm:
    name: str
    orbit_count: int
    emb_count: int

    @property
    def product(self) -> int:
        return self.orbit_count * self.emb_count


@dataclass(frozen=True)
class FactorizationReport:
    ok: bool
    strict_total: int
    factored_total: int
    terms: tuple[FactorizationTerm, ...]


def verify_factorization(p: Poset, t: Poset) -> FactorizationReport:
    """Check #strict(p, t) against the per-class factorization; p connected."""
    require_nonempty(p, t)
    if not is_connected(p):
        raise InvalidParameter("factorization requires a connected domain")
    table = embeddable_connected(t)
    terms = []
    total = 0
    for rep in table.posets:
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
    return FactorizationReport(True, strict_total, total, tuple(terms))
