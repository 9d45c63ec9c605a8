"""Grafting a poset onto a convex piece of another.

Given P with a convex subset A, Q with a convex subset B, and an
isomorphism beta: P|A -> Q|B, the graft T lives on W + Y where
W = P minus A and Y is the carrier of Q.  Its order glues four parts:

    within W    the order of P;
    within Y    the order of Q;
    down pairs  y <= w  whenever some a in A has a <=_P w and
                y <=_Q beta(a);
    up pairs    w <= y  whenever some a in A has w <=_P a and
                beta(a) <=_Q y.

build_graft assembles T's relation rows directly: the rows of P
restricted to W, the rows of Q shifted past W, and for each gluing
pair (a, beta(a)) the W part of the up-set of a ORed into every row
of the down-set of beta(a), and the up-set of beta(a) into every W row
of the down-set of a.  The four families are read back from T's rows
by the side of each end.

The result is always a partial order; the carriers of P and Q must be
disjoint (construct specs through from_labels to namespace them).  The
map psi sending A to B via beta and fixing W embeds P into P|A + T, and
P + Q compares below P|A + T under the strict-count order: every
connected class embeddable in P + Q embeds at least as often into
P|A + T, which graft_pipeline checks exactly.  When A is an antichain,
antichain_ev_extension builds the stronger vicinity-level witness: an
injective strict point map from the system of P + Q into the system of
P|A + T that fixes the points of Q and of P|A.
"""

from __future__ import annotations

from typing import Iterable

from . import config
from ._bits import bits, mask_of
from ._record import record
from .canonical import is_isomorphic
from .errors import (
    CarriersNotDisjoint,
    EmptyPoset,
    InternalInvariantViolation,
    NotAntichain,
    NotAPartialOrder,
    NotConvex,
    NotIsomorphism,
)
from .evsystem import EVElement, EVMap, build_ev, is_strict_ev_hom
from .gscheme import WitnessReport, bounded_gle_check
from .homs import HomMap, count_maps
from .lovasz import display_name, embeddable_connected
from .poset import Poset, _convexity_witness, direct_sum, induced, require_indices


@record
class ConstructionSpec:
    """Ingredients of a graft: posets, convex index sets, the gluing map."""

    p: Poset
    q: Poset
    a: frozenset[int]
    b: frozenset[int]
    beta: tuple[tuple[int, int], ...]  # sorted (p-index, q-index) pairs

    @classmethod
    def from_indices(cls, p: Poset, q: Poset, a: Iterable[int], b: Iterable[int], beta: dict) -> "ConstructionSpec":
        pairs = tuple(beta.items())
        try:
            pairs = tuple(sorted(pairs))
        except TypeError:  # keys of mixed types: _validate_spec reports them by the index rule
            pass
        return cls(p, q, frozenset(a), frozenset(b), pairs)

    @classmethod
    def from_labels(cls, p: Poset, q: Poset, a_labels, b_labels, beta_labels: dict) -> "ConstructionSpec":
        """Resolve labels and namespace colliding carriers.

        When p and q share labels, both are rebuilt with /0 and /1
        suffixes on the collisions (matching direct-sum namespacing)
        before the index sets are resolved.
        """
        clash = set(p.labels) & set(q.labels)
        if clash:
            summed = direct_sum(p, q)
            p_new = induced(summed, range(p.n))
            q_new = induced(summed, range(p.n, p.n + q.n))
            p_map = dict(zip(p.labels, p_new.labels))
            q_map = dict(zip(q.labels, q_new.labels))
            a_labels = [p_map.get(x, x) for x in a_labels]
            b_labels = [q_map.get(x, x) for x in b_labels]
            beta_labels = {
                p_map.get(k, k): q_map.get(v, v) for k, v in beta_labels.items()
            }
            p, q = p_new, q_new
        a = [p.index(x) for x in a_labels]
        b = [q.index(x) for x in b_labels]
        beta = {p.index(k): q.index(v) for k, v in beta_labels.items()}
        return cls.from_indices(p, q, a, b, beta)


@record
class RelationParts:
    """The four disjoint label-pair families assembling the graft order."""

    within_w: tuple[tuple[str, str], ...]
    within_y: tuple[tuple[str, str], ...]
    down: tuple[tuple[str, str], ...]
    up: tuple[tuple[str, str], ...]


@record
class GraftResult:
    """The graft T, P|A, P|A + T, the embedding psi of P, and the pair families."""

    t: Poset
    a_prime: Poset
    extended: Poset  # a_prime + t
    psi: HomMap
    parts: RelationParts


def _validate_spec(spec: ConstructionSpec) -> dict[int, int]:
    p, q = spec.p, spec.q
    if set(p.labels) & set(q.labels):
        raise CarriersNotDisjoint(
            "carriers share labels; build the spec with from_labels to namespace them"
        )
    a = sorted(require_indices(spec.a, p.n, "A index"))
    b = sorted(require_indices(spec.b, q.n, "B index"))
    for which, poset, idx in (("A", p, a), ("B", q, b)):
        witness = _convexity_witness(poset, idx)
        if witness:
            raise NotConvex(which, tuple(poset.labels[i] for i in witness))
    beta = dict(spec.beta)
    require_indices(beta, p.n, "beta key")
    require_indices(beta.values(), q.n, "beta value")
    if sorted(beta) != a or sorted(set(beta.values())) != b or len(beta) != len(spec.a):
        raise NotIsomorphism("beta must be a bijection from A onto B")
    for x in a:
        for y in a:
            if p.leq(x, y) != q.leq(beta[x], beta[y]):
                raise NotIsomorphism(
                    f"beta does not preserve order at ({p.labels[x]}, {p.labels[y]})"
                )
    return beta


def build_graft(spec: ConstructionSpec) -> GraftResult:
    """Assemble the graft T, its inclusion data and the embedding psi."""
    beta = _validate_spec(spec)
    p, q = spec.p, spec.q
    w_idx = [i for i in range(p.n) if i not in spec.a]
    labels = tuple(p.labels[i] for i in w_idx) + q.labels
    nw = len(w_idx)
    n = nw + q.n
    wpos = {orig: k for k, orig in enumerate(w_idx)}

    def on_w(mask: int) -> int:
        """The W part of a mask over P, as a mask over T."""
        return mask_of(wpos[i] for i in bits(mask) if i in wpos)

    rows = [on_w(p.up_mask(i)) for i in w_idx] + [q.up_mask(j) << nw for j in range(q.n)]
    for a, b in beta.items():
        above_a = on_w(p.up_mask(a))
        for j in bits(q.down_mask(b)):
            rows[nw + j] |= above_a
        above_b = q.up_mask(b) << nw
        for k in bits(on_w(p.down_mask(a))):
            rows[k] |= above_b

    try:
        t = Poset(labels, rows)
    except NotAPartialOrder as exc:
        raise InternalInvariantViolation(
            f"graft relation failed to be a partial order: {exc}"
        ) from exc

    # each pair falls in the family named by the sides of its two ends
    w_mask = (1 << nw) - 1
    ws, ys = range(nw), range(nw, n)
    parts = RelationParts(
        tuple((labels[k], labels[i]) for k in ws for i in bits(t.up_mask(k) & w_mask)),
        tuple((labels[j], labels[i]) for j in ys for i in bits(t.up_mask(j) & ~w_mask)),
        tuple((labels[j], labels[k]) for j in ys for k in bits(t.up_mask(j) & w_mask)),
        tuple((labels[k], labels[j]) for j in ys for k in bits(t.down_mask(j) & w_mask)),
    )

    a_prime = induced(p, spec.a)
    extended = direct_sum(a_prime, t)
    if extended.labels != a_prime.labels + t.labels:
        raise InternalInvariantViolation("graft carriers were not disjoint")
    na = len(spec.a)
    psi_map = tuple(na + nw + beta[i] if i in beta else na + wpos[i] for i in range(p.n))
    psi = HomMap(p, extended, psi_map)
    if not psi.is_embedding:
        raise InternalInvariantViolation("psi is not an embedding")

    # the graft restricted to W plus the image of A is a copy of p,
    # and restricted to Y it is exactly q
    w_b = list(range(nw)) + [nw + j for j in sorted(beta.values())]
    if not is_isomorphic(induced(t, w_b), p):
        raise InternalInvariantViolation("graft does not restrict to a copy of P")
    if induced(t, range(nw, n)) != q:
        raise InternalInvariantViolation("graft does not restrict to Q")
    return GraftResult(t, a_prime, extended, psi, parts)


@record
class EmbRow:
    """Embedding counts of one connected class into P + Q and into P|A + T."""

    name: str
    count_sum: int
    count_graft: int


@record
class GraftReport:
    """The graft, per-class embedding counts and the optional scan."""

    result: GraftResult
    rows: tuple[EmbRow, ...]
    scan: WitnessReport | None


def graft_pipeline(spec: ConstructionSpec, n_max: int | None = None) -> GraftReport:
    """Build the graft and check the exact comparison obligation.

    For every connected class E embeddable in P + Q the embedding count
    into P|A + T must be at least the count into P + Q; this is exact
    and certifies the comparison on its own, so a class that violates it
    is a bug and raises InternalInvariantViolation.  The redundant
    bounded scan runs at n_max, defaulting to the package scan bound;
    pass the int 0 to skip it.  The bound is checked before the graft
    is built.
    """
    if n_max != 0 or type(n_max) is not int:  # so False and 0.0 are refused
        n_max = config.check_bound(n_max, config.DEFAULT_SCAN_BOUND)
    result = build_graft(spec)
    summed = direct_sum(spec.p, spec.q)
    extended = result.extended
    rows = []
    for rep in embeddable_connected(summed).values():
        c_sum = count_maps("emb", rep, summed)
        c_graft = count_maps("emb", rep, extended)
        rows.append(EmbRow(display_name(rep), c_sum, c_graft))
        if c_sum > c_graft:
            raise InternalInvariantViolation(
                f"class {rows[-1].name} embeds {c_sum} times into the sum but "
                f"{c_graft} into the graft"
            )
    scan = None
    if n_max:
        scan = bounded_gle_check(summed, extended, n_max)
        if not scan.holds:
            raise InternalInvariantViolation(
                "exact obligation passed but the redundant scan found a counterexample"
            )
    return GraftReport(result, tuple(rows), scan)


def antichain_ev_extension(spec: ConstructionSpec) -> EVMap:
    """Vicinity-level witness for an antichain gluing set.

    Builds the point map from the system of P + Q to the system of
    P|A + T that is the identity on points anchored in Q or equal to a
    bare point of P|A, and the psi-pushforward elsewhere; verifies it is
    injective and strict.  Requires A nonempty (EmptyPoset) and an
    antichain (NotAntichain).
    """
    if not spec.a:
        raise EmptyPoset("the gluing set is empty, so there is no system to extend")
    if not spec.p.is_antichain(spec.a):
        raise NotAntichain("the gluing set must be an antichain")
    result = build_graft(spec)
    p, q = spec.p, spec.q
    summed = direct_sum(p, q)
    extended = result.extended
    source = build_ev(summed)
    target = build_ev(extended)

    # summed = p then q; psi carries p into extended and q keeps its labels
    ext_index = {lab: i for i, lab in enumerate(extended.labels)}
    carrier = result.psi.map + tuple(ext_index[lab] for lab in q.labels)

    mapping = []
    for e in source.elements:
        if e.anchor in spec.a and e.down == 0 and e.up == 0:
            # a bare point of P|A: kept on the a_prime copy
            img = EVElement(ext_index[p.labels[e.anchor]], 0, 0)
        else:
            img = e.pushed(carrier)
        if img not in target:
            raise InternalInvariantViolation(
                f"extension leaves the target system at {e.render(summed)}"
            )
        mapping.append(target.position(img))

    ev_map = EVMap(source, target, tuple(mapping))
    if len(set(mapping)) != len(mapping):
        raise InternalInvariantViolation("extension is not injective")
    if not is_strict_ev_hom(ev_map):
        raise InternalInvariantViolation("extension is not strict")
    return ev_map
