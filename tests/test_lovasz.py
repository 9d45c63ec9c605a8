import random

import pytest

from phl.canonical import canonical_form, canonicalize, enumerate_posets, is_isomorphic
from phl.errors import InvalidParameter, UniverseMismatch
from phl.homs import count_maps
from phl.lovasz import (
    CountMatrix,
    count_strict_onto_orbits,
    display_name,
    embeddable_connected,
    factor_matrices,
    image_class_count,
    verify_factorization,
)
from phl.poset import catalog, direct_sum, from_pairs, induced
from phl.randgen import random_connected_poset, random_poset

from conftest import catalog_zoo


def brute_embeddable(t):
    """Connected classes with at least one embedding into t, by inclusion scan."""
    seen = {}
    for mask in range(1, 1 << t.n):
        idx = [i for i in range(t.n) if (mask >> i) & 1]
        sub = induced(t, idx)
        from phl.poset import is_connected

        if is_connected(sub):
            seen[canonical_form(sub)] = sub
    return seen


def test_embeddable_classes_of_worked_targets(n_poset):
    table = embeddable_connected(n_poset)
    names = [display_name(p) for p in table.posets]
    assert names == ["A1", "C2", "V3", "Lambda3", "N"]
    a1c3 = direct_sum(catalog("A", 1), catalog("C", 3))
    names2 = [display_name(p) for p in embeddable_connected(a1c3).posets]
    assert names2 == ["A1", "C2", "C3"]


def test_embeddable_matches_inclusion_scan():
    rng = random.Random(3)
    for _ in range(20):
        t = random_poset(rng, rng.randint(1, 5))
        if t.n == 0:
            continue
        table = embeddable_connected(t)
        assert set(table.codes) == set(brute_embeddable(t))
        # table is sorted by (size, code) and deduplicated
        keys = [(p.n, c) for p, c in zip(table.posets, table.codes)]
        assert keys == sorted(keys)
        assert len(set(table.codes)) == len(table.codes)


def test_orbit_counts_divide_exactly(n_poset, v3, c3):
    assert count_strict_onto_orbits(n_poset, c3) == 5
    assert count_strict_onto_orbits(v3, c3) == 2
    assert count_strict_onto_orbits(v3, v3) == 1
    crown = catalog("N2")
    # 16 strict-onto self-maps fall into 4 orbits under the 4 automorphisms
    assert count_strict_onto_orbits(crown, crown) == (
        count_maps("strict_onto", crown, crown) // 4
    )


def test_image_class_count_identity(n_poset):
    # summing #I_Q over the embeddable classes Q recovers the strict count
    for t in (n_poset, direct_sum(catalog("A", 1), catalog("C", 3))):
        table = embeddable_connected(t)
        total = sum(image_class_count(q, n_poset, t) for q in table.posets)
        assert total == count_maps("strict", n_poset, t)


def test_image_class_count_worked_cells(n_poset, w_poset, v3):
    a1c3 = direct_sum(catalog("A", 1), catalog("C", 3))
    assert image_class_count(catalog("C", 3), n_poset, a1c3) == 5
    assert image_class_count(v3, w_poset, w_poset) == 12


def test_image_class_count_requires_connected_class(n_poset):
    disconnected = direct_sum(catalog("A", 1), catalog("A", 1))
    with pytest.raises(InvalidParameter):
        image_class_count(disconnected, n_poset, n_poset)


def test_factorization_identity_on_catalog():
    zoo = catalog_zoo()
    for p in zoo:
        from phl.poset import is_connected

        if not is_connected(p) or p.n > 5:
            continue
        for t in zoo:
            if t.n > 5:
                continue
            report = verify_factorization(p, t)
            assert report.strict_total == count_maps("strict", p, t)


def test_factorization_identity_random_sweep():
    rng = random.Random(17)
    for _ in range(60):
        p = random_connected_poset(rng, rng.randint(1, 4))
        t = random_poset(rng, rng.randint(1, 5))
        if t.n == 0:
            continue
        report = verify_factorization(p, t)
        assert report.strict_total == count_maps("strict", p, t)
        for term in report.terms:
            assert term.orbit_count >= 0 and term.emb_count >= 0


def test_factor_matrices_validate_universe(n_poset):
    rows = embeddable_connected(n_poset).posets
    mats = factor_matrices(list(rows), [n_poset])
    assert mats.strict.cells == tuple(
        (count_maps("strict", p, n_poset),) for p in rows
    )
    with pytest.raises(UniverseMismatch):
        factor_matrices(list(rows[:-1]), [n_poset])
    extra = rows + (catalog("C", 4),)
    with pytest.raises(UniverseMismatch):
        factor_matrices(list(extra), [n_poset])
    with pytest.raises(UniverseMismatch):
        factor_matrices(list(rows) + [rows[0]], [n_poset])


def test_display_names():
    assert display_name(catalog("A", 1)) == "A1"
    assert display_name(catalog("C", 4)) == "C4"
    assert display_name(catalog("V", 4)) == "V4"
    assert display_name(catalog("Lambda", 3)) == "Lambda3"
    assert display_name(catalog("N")) == "N"
    assert display_name(catalog("W")) == "W"
    assert display_name(catalog("N2")) == "N2"
    odd = from_pairs("abcde", [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")])
    assert display_name(odd).startswith("P5#")


CATALOG_REFS = (
    ("A1", "A", 1), ("A2", "A", 2), ("A3", "A", 3), ("A4", "A", 4),
    ("C2", "C", 2), ("C3", "C", 3), ("C4", "C", 4),
    ("V3", "V", 3), ("Lambda3", "Lambda", 3), ("V4", "V", 4), ("Lambda4", "Lambda", 4),
    ("N", "N", None), ("W", "W", None), ("N2", "N2", None),
)


def test_display_name_matches_isomorphism_scan():
    named = [
        (name, catalog(shape) if k is None else catalog(shape, k))
        for name, shape, k in CATALOG_REFS
    ]
    for p in list(enumerate_posets(5)) + catalog_zoo():
        matches = [name for name, rep in named if is_isomorphic(rep, p)]
        if matches:
            assert display_name(p) == matches[0]
        else:
            assert display_name(p).startswith(f"P{p.n}#")


def test_embeddable_over_two_targets_is_the_union():
    rng = random.Random(11)
    for _ in range(20):
        t1 = random_poset(rng, rng.randint(1, 5))
        t2 = random_poset(rng, rng.randint(1, 5))
        if t1.n == 0 or t2.n == 0:
            continue
        table = embeddable_connected(t1, t2)
        union = set(embeddable_connected(t1).codes) | set(embeddable_connected(t2).codes)
        assert list(table.codes) == sorted(union)
        for code, rep in zip(table.codes, table.posets):
            assert canonicalize(rep) == rep
            assert canonical_form(rep) == code


def test_matrix_rendering():
    m = CountMatrix(("r1", "r2"), ("c1",), ((1,), (0,)))
    csv = m.to_csv()
    assert "r1,1" in csv and "r2,0" in csv
    pretty = m.to_pretty()
    # zero cells are left blank in the aligned rendering
    row2 = [line for line in pretty.splitlines() if line.strip().startswith("r2")][0]
    assert "0" not in row2
