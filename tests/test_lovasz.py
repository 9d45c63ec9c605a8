import random

import pytest

from phl.canonical import (
    canonical_form,
    canonicalize,
    component_classes,
    enumerate_connected,
    enumerate_posets,
    is_isomorphic,
    iso_classes,
)
from phl.errors import InvalidParameter, SizeOverflow, UniverseMismatch
from phl.homs import count_maps
from phl.lovasz import (
    CountMatrix,
    copy_vector,
    count_strict_onto_orbits,
    display_name,
    embeddable_connected,
    factor_matrices,
    image_class_count,
    induced_copies,
    verify_factorization,
)
from phl.poset import Poset, catalog, direct_sum, from_pairs, induced
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
    names = [display_name(p) for p in table.values()]
    assert names == ["A1", "C2", "V3", "Lambda3", "N"]
    a1c3 = direct_sum(catalog("A", 1), catalog("C", 3))
    names2 = [display_name(p) for p in embeddable_connected(a1c3).values()]
    assert names2 == ["A1", "C2", "C3"]


def test_embeddable_matches_inclusion_scan():
    rng = random.Random(3)
    for _ in range(20):
        t = random_poset(rng, rng.randint(1, 5))
        if t.n == 0:
            continue
        table = embeddable_connected(t)
        assert set(table) == set(brute_embeddable(t))
        # table is sorted by (size, code) and deduplicated
        keys = [(p.n, c) for c, p in table.items()]
        assert keys == sorted(keys)
        assert len(set(table)) == len(table)


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
        total = sum(image_class_count(q, n_poset, t) for q in table.values())
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
    rows = tuple(embeddable_connected(n_poset).values())
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


def test_factor_matrices_name_each_target_once():
    targets = [catalog("N"), direct_sum(catalog("A", 1), catalog("C", 3))]
    rows = embeddable_connected(*targets).values()
    mats = factor_matrices(rows, targets, target_names=("x", "y"))
    assert mats.emb.col_names == mats.strict.col_names == ("x", "y")
    assert mats.sro.row_names == mats.emb.row_names == tuple(map(display_name, rows))
    assert factor_matrices(rows, targets).emb.col_names == tuple(map(display_name, targets))
    for names in (("x",), ("x", "y", "z"), ()):
        with pytest.raises(InvalidParameter, match=f"{len(names)} target names for 2 targets"):
            factor_matrices(rows, targets, target_names=names)


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


def test_display_names_tell_classes_apart():
    names = [display_name(p) for p in enumerate_posets(6)]
    assert len(set(names)) == len(names)


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
        union = set(embeddable_connected(t1)) | set(embeddable_connected(t2))
        assert list(table) == sorted(union)
        for code, rep in table.items():
            assert canonicalize(rep) == rep
            assert canonical_form(rep) == code


def test_embeddable_table_matches_the_all_subsets_definition():
    rng = random.Random(12)
    cases = [(p,) for n in range(1, 6) for p in enumerate_posets(n)]
    cases += [
        tuple(random_poset(rng, rng.randint(1, 6)) for _ in range(rng.randint(1, 3)))
        for _ in range(30)
    ]
    for targets in cases:
        expected = iso_classes(
            [sub.up_mask(i) for i in range(sub.n)]
            for t in targets
            for sub in brute_embeddable(t).values()
        )
        table = embeddable_connected(*targets)
        assert list(table.items()) == list(expected.items())


def test_induced_copies_count_embeddings_up_to_automorphism():
    """ind(Q, c) = #emb(Q, c) / #aut(Q) on every level, for every connected
    class c up to 5 elements and a few larger random ones."""
    rng = random.Random(33)
    components = list(enumerate_connected(5)) + [random_connected_poset(rng, 7, 0.3) for _ in range(4)]
    classes = list(enumerate_connected(6))
    for c in components:
        code = canonical_form(c)
        for size in range(1, 7):
            expected = {}
            for q in classes:
                emb = count_maps("emb", q, c) if q.n == size else 0
                if emb:
                    expected[canonical_form(q)] = emb // count_maps("aut", q, q)
            assert induced_copies(code, size) == expected, (c, size)


def onto_row(p):
    """#strict_onto(p, Q) by Q's code, for the connected Q of at most |p| elements."""
    return {canonical_form(q): count_maps("strict_onto", p, q) for q in enumerate_connected(p.n)}


def whole_copy_vector(r, s):
    """Every level of the copy vector of (r, s), by class code."""
    groups = component_classes(r, s)
    return {q: v for m in range(1, max(r.n, s.n) + 1) for q, v in copy_vector(groups, m).items()}


def test_copy_vector_carries_the_count_differences_in_induced_copies():
    """sum over Q of #strict_onto(P, Q) * d(Q) = #strict(P, S) - #strict(P, R)
    for every connected P up to 5 elements and each of the 552 ordered pairs
    of distinct posets up to 4 elements; d scaled by #aut(Q) fails it."""
    classes = list(enumerate_connected(5))
    posets = list(enumerate_posets(4))
    rows = [onto_row(p) for p in classes]
    strict = [[count_maps("strict", p, t) for p in classes] for t in posets]
    pairs = 0
    for r, counts_r in zip(posets, strict):
        for s, counts_s in zip(posets, strict):
            if r is s:
                continue
            pairs += 1
            d = whole_copy_vector(r, s)
            for p, row, cr, cs in zip(classes, rows, counts_r, counts_s):
                assert sum(row.get(q, 0) * v for q, v in d.items()) == cs - cr, (p, r, s)
    assert (len(classes), pairs) == (59, 552)


def test_embeddings_are_automorphisms_times_induced_copies():
    """#emb(Q, T) = #aut(Q) * ind(Q, T), with ind(., T) the copy vector of
    (empty, T), for the 59 connected Q and the 87 posets T up to 5 elements."""
    classes = list(enumerate_connected(5))
    posets = list(enumerate_posets(5))
    assert (len(classes), len(posets)) == (59, 87)
    for t in posets:
        groups = component_classes(Poset((), ()), t)
        for q in classes:
            ind = copy_vector(groups, q.n).get(canonical_form(q), 0)
            assert count_maps("emb", q, t) == count_maps("aut", q, q) * ind, (q, t)


def test_copy_levels_below_1_are_refused(n_poset):
    code = canonical_form(n_poset)
    for size in (0, -2):
        with pytest.raises(InvalidParameter):
            induced_copies(code, size)
        for groups in (component_classes(n_poset, catalog("C", 3)), {}):
            with pytest.raises(InvalidParameter):
                copy_vector(groups, size)


def test_embeddable_classes_need_a_target():
    with pytest.raises(InvalidParameter):
        embeddable_connected()


def test_embeddable_table_cannot_be_changed_through_a_result(n_poset):
    # the tables are cached, so a result a caller changed would be the next call's
    table = embeddable_connected(n_poset)
    before = list(table.items())
    with pytest.raises(TypeError):
        table[b"\x01\x01"] = n_poset
    with pytest.raises(TypeError):
        del table[before[0][0]]
    with pytest.raises(AttributeError):
        table.clear()
    copied = dict(table)
    copied.clear()
    assert list(embeddable_connected(n_poset).items()) == before
    assert [display_name(p) for p in embeddable_connected(n_poset).values()] == [
        "A1", "C2", "V3", "Lambda3", "N",
    ]


def test_embeddable_refuses_a_component_with_too_many_subsets(monkeypatch):
    from phl import config, lovasz

    def no_scan(*args):
        raise AssertionError("a subset was scanned")

    monkeypatch.setattr(lovasz, "_copy_level", no_scan)
    with pytest.raises(SizeOverflow) as exc:
        embeddable_connected(catalog("A", 1), catalog("C", 25))
    assert (exc.value.size, exc.value.ceiling) == (2**25, config.DEFAULT_SUBSET_CEILING)
    monkeypatch.undo()
    # the ceiling is per component: 25 one-element components pass
    assert len(embeddable_connected(catalog("A", 25))) == 1
    monkeypatch.setattr(config, "DEFAULT_SUBSET_CEILING", 8)
    assert len(embeddable_connected(catalog("C", 3))) == 3
    with pytest.raises(SizeOverflow):
        embeddable_connected(catalog("C", 4))


def test_matrix_rendering():
    m = CountMatrix(("r1", "r2"), ("c1",), ((1,), (0,)))
    csv = m.to_csv()
    assert "r1,1" in csv and "r2,0" in csv
    pretty = m.to_pretty()
    # zero cells are left blank in the aligned rendering
    row2 = [line for line in pretty.splitlines() if line.strip().startswith("r2")][0]
    assert "0" not in row2
