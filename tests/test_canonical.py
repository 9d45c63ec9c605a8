import copy
import hashlib
import pickle
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl import canonical
from phl._bits import bits
from phl.canonical import (
    _canonical,
    _classes_of_size,
    _extensions,
    _refined_classes,
    canonical_code,
    canonical_form,
    canonicalize,
    code_rows,
    connected_of_size,
    enumerate_connected,
    enumerate_posets,
    is_isomorphic,
    iso_classes,
    representatives,
)
from phl.errors import BoundTooLarge, InvalidParameter
from phl.poset import Poset, catalog, direct_sum, is_connected
from phl.randgen import random_poset

from canonical_reference import all_isomorphisms
from conftest import catalog_zoo, posets


def rows(p):
    return [p.up_mask(i) for i in range(p.n)]


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


# (labels, up-rows) of every class, in enumeration order, and the codes
# of the catalog zoo: any change to the canonical search shows here
CLASSES_6_SHA256 = "bdbd62ed39193f43a0a1278fe49378244574c19ac090f4a7e0288b38f6227836"
ZOO_CODES = [
    "0101", "0209", "030111", "048421",
    "0101", "020b", "030137", "048cef",
    "030117", "04842f", "030135", "048ca9",
    "0484e9", "0501041355", "0484ed",
]


def test_class_sequence_is_pinned():
    h = hashlib.sha256()
    for p in enumerate_posets(6):
        h.update(repr((p.labels, [p.up_mask(i) for i in range(p.n)])).encode())
    assert h.hexdigest() == CLASSES_6_SHA256
    assert [canonical_form(p).hex() for p in catalog_zoo()] == ZOO_CODES


def least_step_rows(p):
    """Rows of the least step code over every class-respecting ordering."""
    cls = _refined_classes(rows(p))
    slots = sorted(cls)
    best = None
    for perm in permutations(range(p.n)):
        if any(cls[e] != c for e, c in zip(perm, slots)):
            continue
        code = [
            sum(
                (p.leq(perm[s], perm[t]) << (2 * s)) | (p.leq(perm[t], perm[s]) << (2 * s + 1))
                for s in range(t)
            )
            for t in range(p.n)
        ]
        if best is None or code < best[0]:
            best = (code, perm)
    perm = best[1]
    return [
        sum(1 << c for c in range(p.n) if p.leq(perm[r], perm[c])) for r in range(p.n)
    ]


@given(posets(max_size=6))
@settings(max_examples=60, deadline=None)
def test_canonical_rows_are_the_least_class_respecting_code(p):
    assert _canonical(rows(p))[1] == least_step_rows(p)


def crown(k, prefix):
    """k minimal elements, each below its own and the next maximal one."""
    labels = tuple(f"{prefix}b{i}" for i in range(k)) + tuple(f"{prefix}t{i}" for i in range(k))
    rows = [1 << i | 1 << (k + i) | 1 << (k + (i + 1) % k) for i in range(k)]
    rows += [1 << (k + i) for i in range(k)]
    return Poset(labels, rows)


def test_canonical_form_is_invariant_beyond_refinement():
    # every minimal element of the 4-crown plus the 6-crown gets one
    # refinement class, yet the two crowns are different orbits
    p = direct_sum(crown(2, "a"), crown(3, "c"))
    assert len(set(_refined_classes(rows(p)))) == 2
    codes = {canonical_form(shuffled_copy(p, seed)) for seed in range(12)}
    assert codes == {canonical_form(p)}


def test_is_isomorphic_compares_disjoint_crowns_by_component():
    """Two disjoint 12-element crowns, whose whole code takes minutes, are
    compared by how often each component class occurs, in well under a
    second."""
    almost = crown(6, "d")
    # still 12 strict relations, but b0 lies below t3 instead of t1: a cycle of 8 with a tail
    almost = Poset(almost.labels, [rows(almost)[0] ^ 1 << 7 | 1 << 9] + rows(almost)[1:])
    assert is_connected(almost) and almost.relation_size == crown(6, "d").relation_size
    p = direct_sum(crown(6, "a"), crown(6, "c"))
    for q, same in ((direct_sum(shuffled_copy(crown(6, "c"), 1), crown(6, "a")), True),
                    (direct_sum(crown(6, "a"), almost), False)):
        start = time.perf_counter()
        assert is_isomorphic(p, q) is same
        assert time.perf_counter() - start < 1
    # the same component classes, sizes and relation counts, but not as often
    a1, c2, c3 = catalog("A", 1), catalog("C", 2), catalog("C", 3)
    p = direct_sum(direct_sum(a1, direct_sum(direct_sum(c2, c2), direct_sum(c2, c2))), c3)
    q = direct_sum(direct_sum(catalog("A", 4), c2), direct_sum(c3, c3))
    assert (p.n, p.relation_size) == (q.n, q.relation_size) and not is_isomorphic(p, q)


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


def test_class_table_of_shuffled_copies_is_the_enumeration():
    classes = list(enumerate_posets(4))
    copies = [shuffled_copy(p, seed) for seed in range(3) for p in reversed(classes)]
    table = iso_classes(rows(p) for p in copies)
    assert len(table) == len(classes)
    assert tuple(table.values()) == tuple(classes)
    assert tuple(table) == tuple(canonical_form(p) for p in classes)


def test_representatives_of_codes_are_the_class_table():
    classes = list(enumerate_posets(5))
    codes = [canonical_form(p) for p in reversed(classes)]
    table = representatives(codes + codes[:7])
    assert table == iso_classes(map(code_rows, codes))
    assert tuple(table.values()) == tuple(classes)


def test_canonical_form_codes_each_poset_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _canonical(*args)

    monkeypatch.setattr(canonical, "_canonical", counted)
    n = catalog("N")
    p, q = Poset(n.labels, rows(n)), shuffled_copy(n, 3)
    code = canonical_form(p)
    assert [canonical_form(p), canonical_form(p), canonical_form(q)] == [code] * 3
    assert is_isomorphic(p, q)
    # once per Poset object, not per relation: q is another object
    assert len(calls) == 2


def test_copied_posets_recompute_an_equal_code():
    n = catalog("N")
    p = Poset(n.labels, rows(n))
    code = canonical_form(p)
    for other in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert other == p and other is not p
        assert "_code" not in other.__dict__
        assert canonical_form(other) == code


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


def test_representatives_list_elements_along_a_linear_extension():
    for p in enumerate_posets(7):
        assert all(p.up_mask(i) >> i << i == p.up_mask(i) for i in range(p.n))


def ideals_by_definition(p):
    """Every down-closed mask of p, by filtering all 2^n masks."""
    return [
        m for m in range(1 << p.n)
        if all(not (p.downo_mask(i) & ~m) for i in bits(m))
    ]


def test_extensions_are_the_down_closed_candidates():
    # every down-closed ideal, kept when the new element is in the top class
    for n in range(1, 7):
        expected = []
        for base in _classes_of_size(n - 1):
            for ideal in ideals_by_definition(base):
                up = [row | (1 << (n - 1)) * ((ideal >> i) & 1) for i, row in enumerate(rows(base))]
                up.append(1 << (n - 1))
                cls = _refined_classes(up)
                if cls[-1] == max(cls):
                    expected.append((tuple(up), tuple(cls)))
        assert sorted((tuple(up), tuple(cls)) for up, cls in _extensions(n)) == sorted(expected)


def test_generation_builds_one_poset_per_class(monkeypatch):
    init, built = Poset.__init__, []

    def counting_init(self, labels, up_rows):
        built.append(len(up_rows))
        init(self, labels, up_rows)

    monkeypatch.setattr(Poset, "__init__", counting_init)
    canonical._classes_of_size.cache_clear()
    canonical.connected_of_size.cache_clear()
    try:
        classes = list(enumerate_posets(6))
        list(enumerate_connected(6))
    finally:
        canonical._classes_of_size.cache_clear()
        canonical.connected_of_size.cache_clear()
    # one per class, and one for the empty base of size 0
    assert sorted(built) == [0] + [p.n for p in classes]


@given(posets(max_size=6))
@settings(max_examples=60, deadline=None)
def test_codes_of_rows_and_the_rows_of_codes(p):
    code = canonical_form(p)
    assert canonical_code(rows(p)) == code
    assert code_rows(code) == rows(canonicalize(p))


def test_connected_of_size_holds_the_levels_of_enumerate_connected():
    levels = [connected_of_size(n) for n in range(1, 7)]
    assert [len(level) for level in levels] == [1, 1, 3, 10, 44, 238]  # OEIS A000608
    assert [p for level in levels for p in level] == list(enumerate_connected(6))
    assert all(p.n == n for n, level in enumerate(levels, 1) for p in level)
