import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.errors import (
    DomainMismatch,
    EmptyPoset,
    InvalidParameter,
    OracleTooLarge,
)
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
from phl.poset import catalog, direct_sum, from_pairs
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
    big = catalog("A", 9)
    with pytest.raises(OracleTooLarge):
        brute_force_count("hom", big, big, ceiling=10**6)


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
    blk = gamma_block(xi, 0)
    assert blk.members == frozenset({0, 1, 2})
    assert gamma_block(xi, 3).members == frozenset({3})


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
