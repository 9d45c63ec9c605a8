import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.construction import ConstructionSpec, build_graft
from phl.errors import (
    DomainMismatch,
    EmptyPoset,
    IndexOutOfRange,
    InvalidParameter,
    OracleTooLarge,
    UnknownLabel,
)
from phl.evsystem import EVMap, build_ev, check_ev_scheme, ev_at
from phl.homs import (
    KINDS,
    HomMap,
    brute_force_count,
    count_maps,
    enumerate_maps,
    gamma_block,
    gamma_class_count,
    map_tuples,
    pointwise_leq,
    quotient,
    tuple_is_embedding,
    tuple_is_hom,
    tuple_is_onto,
    tuple_is_strict,
)
from phl.canonical import enumerate_posets
from phl.poset import Poset, catalog, direct_sum, from_pairs, gamma, induced, is_convex
from phl.randgen import random_poset

from conftest import nonempty_posets


def test_hommap_classification(c2, c3):
    m = HomMap(c2, c3, (0, 2))
    assert m.is_hom and m.is_strict and m.is_embedding and not m.is_onto
    collapse = HomMap(c2, c3, (1, 1))
    assert collapse.is_hom and not collapse.is_strict
    backwards = HomMap(c2, c3, (2, 0))
    assert not backwards.is_hom


def test_hommap_from_labels(n_poset, c3):
    m = HomMap.from_labels(n_poset, c3, {"a": "1", "b": "0", "c": "2", "d": "1"})
    assert m.is_strict and m.is_onto
    assert m.label_map() == {"a": "1", "b": "0", "c": "2", "d": "1"}
    assert m("b") == "0"


def test_composition(c2, c3):
    inner = HomMap(c2, c3, (0, 1))
    outer = HomMap(c3, c3, (0, 2, 2))
    comp = outer.after(inner)
    assert comp.dom == c2 and comp.map == (0, 2)
    with pytest.raises(DomainMismatch):
        inner.after(outer)


def test_enumeration_is_lexicographic(n_poset, c3):
    maps = [m.map for m in enumerate_maps("strict_onto", n_poset, c3)]
    assert maps == sorted(maps)
    assert maps == [
        (0, 0, 1, 2),
        (0, 0, 2, 1),
        (0, 1, 2, 2),
        (1, 0, 2, 1),
        (1, 0, 2, 2),
    ]


# SHA-256 over (kind, count, maps in enumeration order) for every ordered
# pair of classes of size 1..4, aut on equal pairs only
ENUMERATION_DIGEST = "814efb8f679a5e521a7686b865fe168e8f835a7c1cd5a7f2a96b22d747ba054e"


def test_enumeration_digest_is_pinned():
    classes = list(enumerate_posets(4))
    digest = hashlib.sha256()
    for p in classes:
        for q in classes:
            for kind in KINDS:
                if kind == "aut" and p != q:
                    continue
                maps = [m.map for m in enumerate_maps(kind, p, q)]
                tuples = list(map_tuples(kind, p, q))
                count = count_maps(kind, p, q)
                assert count == len(maps) == len(tuples)
                assert sorted(tuples) == maps
                digest.update(repr((kind, count, maps)).encode())
    assert digest.hexdigest() == ENUMERATION_DIGEST


def test_strict_images_respect_ranks():
    """A strict map never sends x to a value with a shorter chain below or above."""
    doms = list(enumerate_posets(5))
    cods = [q for q in doms if q.n <= 4]
    for p in doms:
        for q in cods:
            for f in itertools.product(range(q.n), repeat=p.n):
                if tuple_is_hom(p, q, f) and tuple_is_strict(p, q, f):
                    for x, y in enumerate(f):
                        assert q.heights[y] >= p.heights[x]
                        assert q.depths[y] >= p.depths[x]


def test_counts_on_worked_cells(n_poset, c3, v3, lambda3):
    a1c3 = direct_sum(catalog("A", 1), c3)
    assert count_maps("strict", n_poset, n_poset) == 8
    assert count_maps("strict", v3, n_poset) == 5
    assert count_maps("strict", lambda3, n_poset) == 5
    assert count_maps("emb", v3, n_poset) == 2
    assert count_maps("emb", n_poset, a1c3) == 0
    assert count_maps("strict_onto", n_poset, c3) == 5
    assert count_maps("aut", n_poset, n_poset) == 1
    assert count_maps("aut", catalog("N2"), catalog("N2")) == 4


def test_empty_posets_are_rejected(c2):
    empty = from_pairs([], [])
    with pytest.raises(EmptyPoset):
        count_maps("hom", empty, c2)
    with pytest.raises(EmptyPoset):
        count_maps("hom", c2, empty)
    with pytest.raises(EmptyPoset):
        list(enumerate_maps("strict", empty, empty))


def test_unknown_kind_rejected(c2):
    with pytest.raises(InvalidParameter):
        count_maps("epi", c2, c2)


def test_oracle_ceiling(c2):
    big = catalog("A", 9)  # 9^9 raw maps, over the oracle ceiling
    with pytest.raises(OracleTooLarge):
        brute_force_count("hom", big, big)


@given(nonempty_posets(max_size=5), nonempty_posets(max_size=5),
       st.sampled_from(KINDS))
@settings(max_examples=120, deadline=None)
def test_count_matches_oracle(p, q, kind):
    if kind == "aut":
        q = p
    assert count_maps(kind, p, q) == brute_force_count(kind, p, q)


def satisfies(kind, p, q, f):
    if kind == "hom":
        return tuple_is_hom(p, q, f)
    if kind == "strict":
        return tuple_is_hom(p, q, f) and tuple_is_strict(p, q, f)
    if kind == "strict_onto":
        return tuple_is_strict(p, q, f) and tuple_is_onto(q, f)
    if kind == "emb":
        return tuple_is_embedding(p, q, f)
    return tuple_is_embedding(p, q, f) and tuple_is_onto(q, f)


@given(nonempty_posets(max_size=5), nonempty_posets(max_size=5),
       st.sampled_from(KINDS))
@settings(max_examples=120, deadline=None)
def test_enumeration_is_the_filtered_product(p, q, kind):
    if kind == "aut":
        q = p
    expected = [
        f for f in itertools.product(range(q.n), repeat=p.n)
        if satisfies(kind, p, q, f)
    ]
    assert [m.map for m in enumerate_maps(kind, p, q)] == expected


def assert_map_tuples_match(kind, p, q):
    tuples = list(map_tuples(kind, p, q))
    assert sorted(tuples) == [m.map for m in enumerate_maps(kind, p, q)]
    assert len(set(tuples)) == len(tuples) == count_maps(kind, p, q)


def test_map_tuples_match_enumeration_on_all_small_classes():
    classes = list(enumerate_posets(4))
    assert any(len(p.component_orders) > 1 for p in classes)
    for p in classes:
        assert_map_tuples_match("aut", p, p)
        for q in classes:
            for kind in KINDS[:-1]:
                assert_map_tuples_match(kind, p, q)


def test_map_tuples_match_enumeration_on_random_pairs():
    rng = random.Random(29)
    for _ in range(150):
        p = random_poset(rng, rng.randint(1, 6), rng.choice([0.1, 0.3, 0.6]))
        q = random_poset(rng, rng.randint(1, 6), rng.choice([0.1, 0.3, 0.6]))
        for kind in KINDS[:-1]:
            assert_map_tuples_match(kind, p, q)
        assert_map_tuples_match("aut", p, p)


def test_kinds_taking_turns_on_one_domain_match_the_oracle():
    """Each domain object keeps a search plan per order and kind class (emb
    and aut also constrain apart pairs), so kinds of both classes take turns
    on it, in two orders, and every count is checked against the oracle.
    The maps are then streamed from the plans the counts left behind."""
    rng = random.Random(15)
    turns = ("strict", "emb", "hom", "aut", "strict_onto")
    # several components, one without a strict map into the chains below:
    # count_maps stops at that component, which may come first or last
    domains = [direct_sum(catalog("C", 3), catalog("A", 1)),
               direct_sum(catalog("A", 1), catalog("C", 3)),
               direct_sum(catalog("V", 3), catalog("C", 3)),
               direct_sum(catalog("N"), catalog("C", 2))]
    codomains = [catalog("C", 2), catalog("C", 3), direct_sum(catalog("C", 2), catalog("A", 1))]
    assert count_maps("strict", domains[1], codomains[0]) == 0
    assert count_maps("strict", domains[2], codomains[0]) == 0
    domains += [random_poset(rng, rng.randint(1, 6), rng.choice([0.1, 0.3, 0.6]))
                for _ in range(30)]
    codomains += [random_poset(rng, rng.randint(1, 4), rng.choice([0.1, 0.3, 0.6]))
                  for _ in range(6)]
    assert sum(len(p.component_orders) > 1 for p in domains) >= 8
    oracle = {}
    for p in domains:
        for q in rng.sample(codomains, 2):
            for kinds in (turns, turns[::-1]):
                for kind in kinds:
                    target = p if kind == "aut" else q
                    key = kind, p, target
                    if key not in oracle:
                        oracle[key] = brute_force_count(kind, p, target)
                    assert count_maps(kind, p, target) == oracle[key], kind
        assert {codes for _, codes in p._plans} == {2, 3}
        if p.n == 6:
            continue  # the filtered product below is slow at this size
        for kind in turns:
            target = p if kind == "aut" else q
            expected = [f for f in itertools.product(range(target.n), repeat=p.n)
                        if satisfies(kind, p, target, f)]
            assert sorted(map_tuples(kind, p, target)) == expected
            assert [m.map for m in enumerate_maps(kind, p, target)] == expected


def test_map_tuples_checks_its_arguments(c2):
    with pytest.raises(InvalidParameter):
        list(map_tuples("epi", c2, c2))
    with pytest.raises(DomainMismatch):
        list(map_tuples("aut", c2, catalog("C", 3)))


def test_count_multiplies_over_domain_components():
    assert count_maps("strict", catalog("A", 7), catalog("C", 7)) == 7**7


@given(nonempty_posets(max_size=3), nonempty_posets(max_size=3))
@settings(max_examples=60, deadline=None)
def test_enumerated_maps_satisfy_their_class(p, q):
    embs = list(enumerate_maps("emb", p, q))
    for m in embs:
        assert m.is_embedding and m.is_strict and m.is_hom
    stricts = {m.map for m in enumerate_maps("strict", p, q)}
    assert {m.map for m in embs} <= stricts
    homs = {m.map for m in enumerate_maps("hom", p, q)}
    assert stricts <= homs


def test_pointwise_order(c2, c3):
    f = HomMap(c2, c3, (0, 1))
    g = HomMap(c2, c3, (1, 2))
    assert pointwise_leq(f, g)
    assert not pointwise_leq(g, f)
    with pytest.raises(DomainMismatch):
        pointwise_leq(f, HomMap(c3, c3, (0, 1, 2)))


def test_gamma_blocks_of_nonstrict_map(n_poset, c2):
    # collapse a,c,b to 0 and d to 1: fiber {a,b,c} is one zigzag block
    xi = HomMap.from_labels(n_poset, c2, {"a": "0", "b": "0", "c": "0", "d": "1"})
    assert gamma_block(xi, 0) == frozenset({0, 1, 2})
    assert gamma_block(xi, 3) == frozenset({3})


def test_integer_inputs_are_checked_not_coerced(n_poset, c2, c3):
    xi = HomMap(c2, c3, (0, 2))
    assert Poset(("x", "y"), (0b11, 0b10)).n == 2
    system = build_ev(c2)
    ident = EVMap.identity(system)
    assert check_ev_scheme(ident, c2, c2, [0], 2).ok
    p, q = Poset(("p0", "p1"), (0b11, 0b10)), Poset(("q0", "q1"), (0b11, 0b10))
    # every entry point taking an index from its caller: a call with index v,
    # the size v must stay below, and whether a string is read as a label
    entries = [
        (lambda v: HomMap(c2, c3, (v, 2)), c3.n, False),
        (lambda v: xi(v), c2.n, True),
        (lambda v: gamma_block(xi, v), c2.n, False),
        (lambda v: c3.is_antichain([v]), c3.n, False),
        (lambda v: induced(c3, [0, v]), c3.n, False),
        (lambda v: is_convex(c3, [v]), c3.n, False),
        (lambda v: gamma(c3, [v], 0), c3.n, False),
        (lambda v: gamma(c3, range(3), v), c3.n, False),
        (lambda v: ev_at(system, v), c2.n, True),
        (lambda v: system.lt(v, 0), len(system), False),
        (lambda v: system.lt(0, v), len(system), False),
        (lambda v: EVMap(system, system, (0, 1, 2, v)), len(system), False),
        (lambda v: check_ev_scheme(ident, c2, c2, [v], 2), c2.n, True),
        (lambda v: build_graft(ConstructionSpec.from_indices(p, q, [v], [0], {v: 0})), p.n, False),
        (lambda v: build_graft(ConstructionSpec.from_indices(p, q, [0], [v], {0: v})), q.n, False),
        (lambda v: build_graft(ConstructionSpec.from_indices(p, q, [1], [1], {v: 1})), p.n, False),
        (lambda v: build_graft(ConstructionSpec.from_indices(p, q, [1], [1], {1: v})), q.n, False),
    ]
    for call, size, takes_labels in entries:
        for bad in (0.0, 0.9, "0", True, False):
            if isinstance(bad, str) and takes_labels:
                continue
            with pytest.raises(InvalidParameter):
                call(bad)
        for outside in (-1, size):
            with pytest.raises(IndexOutOfRange):
                call(outside)
    for bad in (0.0, 0.9, "0", True, False):
        with pytest.raises(InvalidParameter):
            Poset(("x", "y"), (bad, 0b10))
    # z_plus takes strings as labels, so a numeric string is one only where
    # the poset has it: "0" names an element of C2 but not of N
    assert check_ev_scheme(ident, c2, c2, ["0"], 2).ok
    n_ident = EVMap.identity(build_ev(n_poset))
    with pytest.raises(UnknownLabel):
        check_ev_scheme(n_ident, n_poset, n_poset, ["a", "b", "c", "0"], 2)


def test_quotient_factorization_recomposes(n_poset, c2):
    xi = HomMap.from_labels(n_poset, c2, {"a": "0", "b": "0", "c": "0", "d": "1"})
    qf = quotient(xi)
    assert len(qf.blocks) == 2
    assert qf.quotient.labels == ("{a,b,c}", "{d}")
    assert qf.iota.is_strict
    assert qf.iota.after(qf.pi).map == xi.map
    # strict maps have singleton blocks and quotient isomorphic to the domain
    for m in enumerate_maps("strict", n_poset, c2):
        qf2 = quotient(m)
        assert all(len(b) == 1 for b in qf2.blocks)
        assert qf2.quotient.relation_size == n_poset.relation_size


def quotient_by_definition(xi):
    """Blocks, quotient labels and rows, pi and iota from element pairs."""
    p, f = xi.dom, xi.map
    block_of = [None] * p.n
    blocks = []
    for x in range(p.n):
        if block_of[x] is None:
            block, grown = {x}, True
            while grown:
                more = {
                    z for y in block for z in range(p.n)
                    if f[z] == f[x] and (p.leq(y, z) or p.leq(z, y))
                }
                grown = not more <= block
                block |= more
            for y in block:
                block_of[y] = len(blocks)
            blocks.append(frozenset(block))
    k = len(blocks)
    leq = [[any(p.leq(x, y) for x in a for y in b) for b in blocks] for a in blocks]
    for m in range(k):
        for a in range(k):
            for b in range(k):
                leq[a][b] = leq[a][b] or (leq[a][m] and leq[m][b])
    labels = tuple("{" + ",".join(p.labels[i] for i in sorted(b)) + "}" for b in blocks)
    rows = tuple(sum(1 << b for b in range(k) if leq[a][b]) for a in range(k))
    iota = tuple(f[min(b)] for b in blocks)
    return tuple(blocks), labels, rows, tuple(block_of), iota


def test_quotient_matches_its_definition():
    classes = [p for n in range(1, 5) for p in enumerate_posets(n)]
    for dom in classes:
        for cod in classes:
            for xi in enumerate_maps("hom", dom, cod):
                qf = quotient(xi)
                blocks, labels, rows, pi, iota = quotient_by_definition(xi)
                assert qf.blocks == blocks
                assert qf.quotient.labels == labels
                assert tuple(qf.quotient.up_mask(a) for a in range(len(blocks))) == rows
                assert (qf.pi.dom, qf.pi.cod, qf.pi.map) == (dom, qf.quotient, pi)
                assert (qf.iota.dom, qf.iota.cod, qf.iota.map) == (qf.quotient, cod, iota)


def brute_gamma_count(xi, t):
    part = frozenset(quotient(xi).blocks)
    return sum(
        1
        for g in enumerate_maps("hom", xi.dom, t)
        if frozenset(quotient(g).blocks) == part
    )


def test_gamma_class_count_has_partition_semantics(n_poset, c2, c3):
    for xi in enumerate_maps("hom", n_poset, c2):
        assert gamma_class_count(xi, c3) == brute_gamma_count(xi, c3)


def test_gamma_class_count_random_sweep():
    rng = random.Random(11)
    done = 0
    while done < 50:
        p = random_poset(rng, rng.randint(1, 4))
        q = random_poset(rng, rng.randint(1, 3))
        t = random_poset(rng, rng.randint(1, 3))
        homs = list(enumerate_maps("hom", p, q))
        if not homs:
            continue
        xi = rng.choice(homs)
        assert gamma_class_count(xi, t) == brute_gamma_count(xi, t)
        done += 1
