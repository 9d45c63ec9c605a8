import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.canonical import (
    all_isomorphisms,
    canonical_form,
    canonicalize,
    enumerate_connected,
    enumerate_posets,
    is_isomorphic,
)
from phl.errors import BoundTooLarge, InvalidParameter
from phl.poset import catalog, direct_sum, is_connected
from phl.randgen import random_poset

from conftest import catalog_zoo, posets


def shuffled_copy(p, seed):
    rng = random.Random(seed)
    perm = list(range(p.n))
    rng.shuffle(perm)
    labels = tuple(p.labels[perm[i]] for i in range(p.n))
    rows = [0] * p.n
    where = {perm[i]: i for i in range(p.n)}
    for a in range(p.n):
        for b in range(p.n):
            if p.leq(perm[a], perm[b]):
                rows[a] |= 1 << b
    return type(p)(labels, rows)


@given(posets(max_size=5), st.integers(min_value=0, max_value=999))
@settings(max_examples=80, deadline=None)
def test_canonical_form_is_isomorphism_invariant(p, seed):
    assert canonical_form(shuffled_copy(p, seed)) == canonical_form(p)


@given(posets(max_size=4), posets(max_size=4))
@settings(max_examples=60, deadline=None)
def test_equal_codes_mean_isomorphic(p, q):
    same = canonical_form(p) == canonical_form(q)
    assert same == is_isomorphic(p, q)


def test_is_isomorphic_agrees_with_permutation_search():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 4))
        q = random_poset(rng, rng.randint(1, 4))
        assert is_isomorphic(p, q) == bool(list(all_isomorphisms(p, q)))


def test_canonicalize_relabels_to_fixed_names(n_poset):
    c = canonicalize(n_poset)
    assert c.labels == ("x0", "x1", "x2", "x3")
    assert is_isomorphic(c, n_poset)
    assert canonical_form(c) == canonical_form(n_poset)


def test_named_small_posets_are_distinguished():
    zoo = catalog_zoo()
    codes = [canonical_form(p) for p in zoo]
    # the only repeat is the singleton: one-point antichain = one-point chain
    assert len(set(codes)) == len(zoo) - 1
    assert canonical_form(catalog("A", 1)) == canonical_form(catalog("C", 1))


def test_enumeration_counts_match_known_values():
    per_size = {}
    for p in enumerate_posets(7):
        per_size[p.n] = per_size.get(p.n, 0) + 1
    # OEIS A000112
    assert per_size == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def test_connected_enumeration_counts_match_known_values():
    per_size = {}
    for p in enumerate_connected(7):
        per_size[p.n] = per_size.get(p.n, 0) + 1
    # OEIS A000608
    assert per_size == {1: 1, 2: 1, 3: 3, 4: 10, 5: 44, 6: 238, 7: 1650}


def test_enumerated_classes_are_canonical_and_distinct():
    seen = set()
    for p in enumerate_posets(4):
        code = canonical_form(p)
        assert code not in seen
        seen.add(code)
        assert canonicalize(p) == p


def test_connected_enumeration_is_the_connected_slice():
    conn = {canonical_form(p) for p in enumerate_connected(4)}
    expected = {canonical_form(p) for p in enumerate_posets(4) if is_connected(p)}
    assert conn == expected


def test_enumeration_respects_bound_ceiling(monkeypatch):
    monkeypatch.setenv("PHL_MAX_BOUND", "3")
    with pytest.raises(BoundTooLarge):
        list(enumerate_posets(4))
    assert sum(1 for _ in enumerate_posets(3)) == 8


def test_enumeration_rejects_bad_bounds():
    with pytest.raises(InvalidParameter):
        list(enumerate_posets(-1))


def test_catalog_members_appear_in_enumeration():
    codes4 = {canonical_form(p) for p in enumerate_posets(4)}
    for name in ("N", "N2"):
        assert canonical_form(catalog(name)) in codes4
    assert canonical_form(catalog("V", 3)) in codes4
    assert canonical_form(direct_sum(catalog("C", 2), catalog("C", 2))) in codes4
