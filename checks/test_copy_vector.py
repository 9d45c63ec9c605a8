"""Deep check: the copy-vector rules of gscheme against scans with no skip.

Statements checked, from the rules in the gscheme module docstring:
  * rule 2: for each of the 163,620 ordered pairs of distinct posets
    among the 405 of 1..6 elements (OEIS A000112), witness_search returns
    the witness, counts included, of a reference scan that counts strict
    maps into the whole posets, class by class in class order, up to
    max(|R|, |S|) elements, with no level skipped;
  * rule 1: for each of the 7,482 ordered pairs among the 87 posets of
    1..5 elements, bounded_gle_check at bound 7 reports the verdict,
    classes_checked and witness of such a reference scan over the 1,947
    connected classes up to 7 elements (OEIS A000608); the 1,594 pairs
    with no negative level of the copy vector are reported so without
    counting;
  * the identity of the lovasz docstring, in induced copies: for each
    of the 297 connected P up to 6 elements and each of the 7,482 ordered
    pairs up to 5 elements, the sum over Q of #strict_onto(P, Q) * d(Q),
    with d from lovasz.copy_vector, is #strict(P, S) - #strict(P, R).
"""

from phl import gscheme
from phl.canonical import canonical_form, component_classes, enumerate_connected, enumerate_posets
from phl.gscheme import bounded_gle_check, witness_search
from phl.homs import count_maps
from phl.lovasz import copy_vector


def strict_counts(posets, classes):
    return [[count_maps("strict", p, t) for p in classes] for t in posets]


def test_witness_search_matches_a_scan_with_no_skip_on_all_pairs_up_to_size_6():
    posets = list(enumerate_posets(6))
    classes = list(enumerate_connected(6))
    assert (len(posets), len(classes)) == (405, 297)
    counts = strict_counts(posets, classes)
    pairs = 0
    for r, counts_r in zip(posets, counts):
        for s, counts_s in zip(posets, counts):
            if r is s:
                continue
            pairs += 1
            expected = next((p, (cr, cs)) for p, cr, cs in zip(classes, counts_r, counts_s)
                            if p.n <= max(r.n, s.n) and cr != cs)
            assert witness_search(r, s) == expected, (r, s)
    assert pairs == 163620


def dominated(r, s, n_max):
    """Whether the copy vector of (r, s) has no negative entry up to n_max."""
    return (all(cr <= cs for cr, cs in gscheme._low_counts(r, s, n_max))
            and gscheme._start_level(component_classes(r, s), n_max, True) > n_max)


def test_bounded_scans_of_pairs_up_to_size_5_match_direct_counting_at_bound_7(monkeypatch):
    posets = list(enumerate_posets(5))
    classes = list(enumerate_connected(7))
    assert len(classes) == 1947
    counts = strict_counts(posets, classes)

    def no_count(*args):
        raise AssertionError("a copy-dominated pair was counted")

    pairs = copy_dominated = 0
    for r, counts_r in zip(posets, counts):
        for s, counts_s in zip(posets, counts):
            if r is s:
                continue
            pairs += 1
            expected = next((("counterexample", i + 1, (p, (cr, cs)))
                             for i, (p, cr, cs) in enumerate(zip(classes, counts_r, counts_s)) if cr > cs),
                            ("holds_up_to_bound", 1947, None))
            with monkeypatch.context() as patched:
                if dominated(r, s, 7):
                    copy_dominated += 1
                    assert expected[0] == "holds_up_to_bound", (r, s)
                    patched.setattr(gscheme, "count_maps", no_count)
                report = bounded_gle_check(r, s, 7)
            assert (report.verdict, report.classes_checked, report.witness) == expected, (r, s)
    assert (pairs, copy_dominated) == (7482, 1594)


def test_copy_vectors_carry_the_count_differences_for_p_up_to_size_6():
    classes = list(enumerate_connected(6))
    posets = list(enumerate_posets(5))
    rows = [{canonical_form(q): count_maps("strict_onto", p, q) for q in enumerate_connected(p.n)}
            for p in classes]
    counts = strict_counts(posets, classes)
    pairs = 0
    for r, counts_r in zip(posets, counts):
        for s, counts_s in zip(posets, counts):
            if r is s:
                continue
            pairs += 1
            groups = component_classes(r, s)
            d = [(q, v) for m in range(1, max(r.n, s.n) + 1) for q, v in copy_vector(groups, m).items()]
            for row, cr, cs in zip(rows, counts_r, counts_s):
                assert sum(row.get(q, 0) * v for q, v in d) == cs - cr, (r, s)
    assert (len(classes), pairs) == (297, 7482)
