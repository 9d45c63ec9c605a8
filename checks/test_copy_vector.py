"""Deep check: the copy-vector rules of gscheme against scans with no skip.

Statements checked, from the rules in the gscheme module docstring:
  * rule 3: for each of the 163,620 ordered pairs of distinct posets
    among the 405 of 1..6 elements (OEIS A000112), witness_search returns
    the witness, counts included, of a reference scan that counts strict
    maps into the whole posets, class by class in class order, up to
    max(|R|, |S|) elements, with no level skipped;
  * rule 1: every pair among the 87 posets of 1..5 elements whose copy
    vector is >= 0 (1,594 pairs) holds by direct counting on all 1,947
    connected classes up to 7 elements (OEIS A000608), and
    bounded_gle_check reports it so at bound 7 without counting.
"""

from phl import gscheme
from phl.canonical import component_classes, enumerate_connected, enumerate_posets
from phl.gscheme import bounded_gle_check, witness_search
from phl.homs import count_maps


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


def test_copy_dominated_pairs_up_to_size_5_hold_at_bound_7(monkeypatch):
    posets = list(enumerate_posets(5))
    classes = list(enumerate_connected(7))
    assert len(classes) == 1947
    counts = strict_counts(posets, classes)

    def no_count(*args):
        raise AssertionError("a copy-dominated pair was counted")

    monkeypatch.setattr(gscheme, "count_maps", no_count)
    dominated = 0
    for r, counts_r in zip(posets, counts):
        for s, counts_s in zip(posets, counts):
            if r is s or gscheme._start_level(gscheme._low_counts(r, s, 7), component_classes(r, s), 7, True) <= 7:
                continue
            dominated += 1
            assert all(cr <= cs for cr, cs in zip(counts_r, counts_s)), (r, s)
            report = bounded_gle_check(r, s, 7)
            assert (report.verdict, report.classes_checked) == ("holds_up_to_bound", 1947), (r, s)
    assert dominated == 1594
