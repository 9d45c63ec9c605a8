import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.errors import (
    DuplicateLabel,
    EmptyPoset,
    IndexOutOfRange,
    InvalidParameter,
    NotAPartialOrder,
    UnknownLabel,
)
from phl.poset import (
    Poset,
    catalog,
    components,
    direct_sum,
    from_pairs,
    gamma,
    induced,
    is_connected,
    is_convex,
    ordinal_sum,
    product,
    require_nonempty,
)

from conftest import catalog_zoo, posets


def test_from_pairs_covers_takes_hull():
    p = from_pairs("abc", [("a", "b"), ("b", "c")])
    assert p.leq_labels("a", "c")
    assert p.relation_size == 6


def test_from_pairs_full_requires_explicit_relation():
    with pytest.raises(NotAPartialOrder) as exc:
        from_pairs("abc", [("a", "b"), ("b", "c")], mode="full")
    assert exc.value.axiom == "reflexivity"
    p = from_pairs(
        "ab", [("a", "a"), ("b", "b"), ("a", "b")], mode="full"
    )
    assert p.leq_labels("a", "b")


def test_cycle_rejected_with_witness():
    with pytest.raises(NotAPartialOrder) as exc:
        from_pairs("ab", [("a", "b"), ("b", "a")])
    assert exc.value.axiom == "antisymmetry"
    assert set(exc.value.witness) == {"a", "b"}


def test_duplicate_and_unknown_labels():
    with pytest.raises(DuplicateLabel):
        from_pairs(["x", "x"], [])
    with pytest.raises(UnknownLabel):
        from_pairs("ab", [("a", "z")])


def test_direct_constructor_validates_transitivity():
    # a<b, b<c present but a<c missing
    rows = [0b011, 0b110, 0b100]
    with pytest.raises(NotAPartialOrder) as exc:
        Poset(("a", "b", "c"), rows)
    assert exc.value.axiom == "transitivity"


def test_empty_poset_is_legal():
    p = from_pairs([], [])
    assert p.n == 0
    assert p.pairs() == []
    with pytest.raises(EmptyPoset):
        require_nonempty(p)


def test_covers_and_heights_on_chain():
    c4 = catalog("C", 4)
    assert c4.cover_pairs() == [(0, 1), (1, 2), (2, 3)]
    assert c4.heights == (0, 1, 2, 3)


def test_covers_skip_transitive_edges():
    p = from_pairs("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.cover_pairs() == [(0, 1), (1, 2)]


def test_catalog_shapes():
    assert catalog("A", 3).relation_size == 3
    assert catalog("C", 1).n == 1
    v = catalog("V", 3)
    assert v.leq_labels("b", "t1") and v.leq_labels("b", "t2")
    assert not v.leq_labels("t1", "t2")
    lam = catalog("Lambda", 4)
    assert [lam.labels[i] for i in range(lam.n)] == ["b1", "b2", "b3", "t"]
    n = catalog("N")
    assert n.leq_labels("a", "c") and n.leq_labels("b", "d")
    assert not n.leq_labels("a", "d")
    with pytest.raises(InvalidParameter):
        catalog("C", 0)
    with pytest.raises(InvalidParameter):
        catalog("Z", 2)
    with pytest.raises(InvalidParameter):
        catalog("V")


def test_direct_sum_no_cross_relations(c2, c3):
    s = direct_sum(c2, c3)
    assert s.n == 5
    for i in range(2):
        for j in range(2, 5):
            assert not s.leq(i, j) and not s.leq(j, i)


def test_ordinal_sum_all_cross_relations(c2, c3):
    s = ordinal_sum(c2, c3)
    for i in range(2):
        for j in range(2, 5):
            assert s.leq(i, j)
    assert s.heights == (0, 1, 2, 3, 4)


def test_sum_label_collisions_are_namespaced(c2):
    s = direct_sum(c2, c2)
    assert s.labels == ("0/0", "1/0", "0/1", "1/1")
    t = direct_sum(c2, catalog("N"))
    assert t.labels == ("0", "1", "a", "b", "c", "d")


def test_product_is_componentwise(c2):
    sq = product(c2, c2)
    assert sq.n == 4
    bot = sq.labels.index("(0,0)")
    top = sq.labels.index("(1,1)")
    assert sq.leq(bot, top)
    mid1 = sq.labels.index("(0,1)")
    mid2 = sq.labels.index("(1,0)")
    assert not sq.leq(mid1, mid2) and not sq.leq(mid2, mid1)


def test_induced_keeps_carrier_order(n_poset):
    sub = induced(n_poset, [3, 0, 2])
    assert sub.labels == ("a", "c", "d")
    assert sub.leq_labels("a", "c")
    assert not sub.leq_labels("a", "d")
    with pytest.raises(IndexOutOfRange):
        induced(n_poset, [9])
    with pytest.raises(InvalidParameter):
        induced(n_poset, [0, 0])


def test_convexity(c3, n_poset):
    assert is_convex(c3, [0, 1])
    assert not is_convex(c3, [0, 2])
    # both middles of the zigzag are minimal or maximal, so any pair is convex
    assert is_convex(n_poset, [0, 3])


def test_gamma_component(n_poset):
    full = range(4)
    assert gamma(n_poset, full, 0) == frozenset({0, 1, 2, 3})
    # dropping c disconnects a from b and d
    assert gamma(n_poset, [0, 1, 3], 0) == frozenset({0})
    assert gamma(n_poset, [0, 1, 3], 1) == frozenset({1, 3})
    with pytest.raises(IndexOutOfRange):
        gamma(n_poset, [0, 1], 3)


def test_components_and_connectivity(c2):
    s = direct_sum(c2, c2)
    part = components(s)
    assert len(part) == 2
    assert part.blocks[0] == frozenset({0, 1})
    assert is_connected(c2)
    assert not is_connected(s)
    assert not is_connected(from_pairs([], []))


@given(posets(max_size=6))
@settings(max_examples=80, deadline=None)
def test_components_match_gamma_scan(p):
    # the partition the breadth-first routine builds, against gamma's scan
    blocks, left = [], set(range(p.n))
    while left:
        block = gamma(p, range(p.n), min(left))
        blocks.append(block)
        left -= block
    assert components(p).blocks == tuple(blocks)
    assert is_connected(p) == (len(blocks) == 1)


def test_antichain_predicate(n_poset, c2):
    assert n_poset.is_antichain([0, 1])
    assert not c2.is_antichain([0, 1])
    assert c2.is_antichain([0])


def test_equality_is_literal_not_isomorphism(c2):
    other = from_pairs(["x", "y"], [("x", "y")])
    assert c2 != other
    assert c2 == from_pairs(["0", "1"], [("0", "1")])
    assert hash(c2) == hash(from_pairs(["0", "1"], [("0", "1")]))


@given(posets(max_size=5))
@settings(max_examples=60, deadline=None)
def test_axioms_hold_on_every_construction(p):
    for i in range(p.n):
        assert p.leq(i, i)
        for j in range(p.n):
            if i != j and p.leq(i, j):
                assert not p.leq(j, i)
            for k in range(p.n):
                if p.leq(i, j) and p.leq(j, k):
                    assert p.leq(i, k)


@given(posets(max_size=4), posets(max_size=4))
@settings(max_examples=40, deadline=None)
def test_sum_sizes_and_relation_counts(p, q):
    s = direct_sum(p, q)
    assert s.n == p.n + q.n
    assert s.relation_size == p.relation_size + q.relation_size
    o = ordinal_sum(p, q)
    assert o.relation_size == p.relation_size + q.relation_size + p.n * q.n


@given(posets(max_size=4))
@settings(max_examples=40, deadline=None)
def test_heights_strictly_increase_along_covers(p):
    for i, j in p.cover_pairs():
        assert p.heights[i] < p.heights[j]


def test_all_catalog_posets_validate():
    for p in catalog_zoo():
        assert p.n >= 1
