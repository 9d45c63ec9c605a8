"""Deep check: the bounded scan on every ordered pair of posets up to size 5.

Statement checked: the definition of R <=_G S restricted to connected P,
that is #strict(P, R) <= #strict(P, S) for every connected P, here for
every connected class P up to 6 elements.  For each of the 7,482
ordered pairs of distinct posets among the 87 of 1..5 elements (OEIS
A000112), bounded_gle_check at bound 6 must give the verdict,
classes_checked and witness of a reference scan that counts strict maps into the whole posets, one class
at a time in class order, with no component rule and no kept profile.
Each pair is scanned twice, on copies that share no caches, with the
kept profiles emptied before the first scan: first cold, then warm from
the counts the first scan kept.
"""

from phl import lovasz
from phl.canonical import enumerate_connected, enumerate_posets
from phl.gscheme import bounded_gle_check
from phl.homs import count_maps
from phl.poset import Poset

BOUND = 6


def reference(counts_r, counts_s, classes):
    """(verdict, classes checked, witness) of the definition, scanned in class order."""
    for checked, (p, cr, cs) in enumerate(zip(classes, counts_r, counts_s), 1):
        if cr > cs:
            return "counterexample", checked, (p, (cr, cs))
    return "holds_up_to_bound", len(classes), None


def test_bounded_scan_matches_the_definition_on_all_pairs_up_to_size_5():
    posets = list(enumerate_posets(5))
    classes = list(enumerate_connected(BOUND))
    assert (len(posets), len(classes)) == (87, 297)
    counts = [[count_maps("strict", p, t) for p in classes] for t in posets]
    holding = pairs = 0
    for r, counts_r in zip(posets, counts):
        for s, counts_s in zip(posets, counts):
            if r is s:
                continue
            pairs += 1
            expected = reference(counts_r, counts_s, classes)
            holding += expected[0] == "holds_up_to_bound"
            rc, sc = Poset(r.labels, r._up), Poset(s.labels, s._up)
            lovasz._class_data.cache_clear()
            for _ in ("cold", "warm"):
                report = bounded_gle_check(rc, sc, BOUND)
                assert (report.verdict, report.classes_checked, report.witness) == expected, (r, s)
    assert pairs == 7482
    # the holding count that an earlier, separate tabulation of these
    # pairs found at bound 6 (ROADMAP, item 8)
    assert holding == 2676
