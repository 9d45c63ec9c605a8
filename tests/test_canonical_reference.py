"""The canonical kernel and class generation against the unpruned kernel.

canonical_reference keeps the kernel as it was before candidate
filtering and automorphism pruning; codes, canonical rows, refinement
ids and class tables must not have moved.
"""

import random

import pytest

import canonical_reference as ref
from phl import canonical
from phl._bits import bits
from phl.canonical import (
    _canonical,
    _classes_of_size,
    _refined_classes,
    canonical_form,
    enumerate_connected,
    enumerate_posets,
    iso_classes,
)
from phl.lovasz import embeddable_connected
from phl.poset import catalog
from phl.randgen import random_poset


def rows(p):
    return [p.up_mask(i) for i in range(p.n)]


def shuffled_rows(up, seed):
    rng = random.Random(seed)
    perm = list(range(len(up)))
    rng.shuffle(perm)
    where = {old: new for new, old in enumerate(perm)}
    return [sum(1 << where[j] for j in bits(up[old])) for old in perm]


def test_every_class_up_to_size_6_codes_as_the_reference():
    for p in enumerate_posets(6):
        for up in (rows(p), shuffled_rows(rows(p), p.n)):
            assert _canonical(up) == ref.canonical(up)
            assert _refined_classes(up) == ref.refined_classes(up)


def test_random_posets_code_and_refine_as_the_reference():
    rng = random.Random(20261018)
    for _ in range(400):
        up = rows(random_poset(rng, rng.randint(0, 9), rng.choice([0.1, 0.3, 0.5, 0.8])))
        assert _canonical(up) == ref.canonical(up)
        assert _refined_classes(up) == ref.refined_classes(up)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_tables_match_every_ideal_coded(n):
    table = _classes_of_size(n)
    assert [(canonical_form(p), tuple(rows(p))) for p in table] == list(ref.class_table(n))
    # every ideal of every class of size n - 1, through iso_classes
    top = 1 << (n - 1)
    every = iso_classes(
        [row | top if (ideal >> i) & 1 else row for i, row in enumerate(rows(base))] + [top]
        for base in _classes_of_size(n - 1)
        for ideal in range(1 << (n - 1))
        if all(not (base.downo_mask(i) & ~ideal) for i in bits(ideal))
    )
    assert tuple(every.values()) == table


def code_of(up):
    """The code of rows already in canonical order, from its definition."""
    n = len(up)
    flat = sum(1 << (r * n + c) for r in range(n) for c in range(n) if (up[r] >> c) & 1)
    return bytes([n]) + flat.to_bytes((n * n + 7) // 8 or 1, "big")


@pytest.mark.parametrize(
    "name, canonical_rows",
    [
        # all elements alike: any ordering
        ("A", [1 << i for i in range(12)]),
        # the bottom comes first, then the eleven tops
        ("V", [(1 << 12) - 1] + [1 << i for i in range(1, 12)]),
        # the eleven legs come first, then the top
        ("Lambda", [1 << i | 1 << 11 for i in range(11)] + [1 << 11]),
    ],
)
def test_wide_symmetric_shapes_code_by_definition(name, canonical_rows):
    # the unpruned search tries every ordering of the 11 or 12 alike
    # elements here; automorphism pruning makes it a few hundred steps
    p = catalog(name, 12)
    assert canonical_form(p) == code_of(canonical_rows)
    assert canonical.canonicalize(p).up_mask(0) == canonical_rows[0]


def test_wide_target_class_table_is_every_width():
    table = list(embeddable_connected(catalog("V", 12)).values())
    assert [p.n for p in table] == list(range(1, 13))
    assert table[-1] == canonical.canonicalize(catalog("V", 12))


def test_size_7_codes_only_accepted_candidates(monkeypatch):
    # the filter refines 2,986 and codes 2,773 of the 5,439 candidates
    _classes_of_size(6)
    counts = {"refine": 0, "backtrack": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(canonical, "_refined_classes", counted("refine", canonical._refined_classes))
    monkeypatch.setattr(canonical, "_canonical_perm", counted("backtrack", canonical._canonical_perm))
    assert len(_classes_of_size.__wrapped__(7)) == 2045
    assert counts["refine"] <= 2986
    assert counts["backtrack"] <= 2773


def test_counts_at_size_8_match_known_values(monkeypatch):
    monkeypatch.setenv("PHL_MAX_BOUND", "8")
    try:
        # OEIS A000112 and A000608
        assert len(_classes_of_size(8)) == 16999
        assert sum(1 for p in enumerate_connected(8) if p.n == 8) == 14512
    finally:
        # the size-8 table is large; later tests regenerate smaller sizes
        canonical._classes_of_size.cache_clear()
        canonical.connected_of_size.cache_clear()
