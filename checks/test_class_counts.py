"""Deep check: the number of isomorphism classes per size through size 9.

Statements checked: the number of posets on n unlabeled elements is OEIS
A000112, and the number of connected ones is OEIS A000608, for n = 1..9.
Tier-1 checks the same sequences through size 7.  Size 9 alone is
183,231 classes, so generation takes about half a minute and a few
hundred MB; PHL_MAX_BOUND lifts the enumeration ceiling to 9 for it.
The cumulative table of connected counts that the scans read instead of
generating must equal both.
"""

from collections import Counter

from phl.canonical import enumerate_connected, enumerate_posets
from phl.gscheme import _CLASSES_BELOW

A000112 = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045, 8: 16999, 9: 183231}
A000608 = {1: 1, 2: 1, 3: 3, 4: 10, 5: 44, 6: 238, 7: 1650, 8: 14512, 9: 163341}


def test_class_counts_through_size_9_are_oeis_a000112_and_a000608(monkeypatch):
    monkeypatch.setenv("PHL_MAX_BOUND", "9")
    assert Counter(p.n for p in enumerate_posets(9)) == A000112
    table = {n: _CLASSES_BELOW[n + 1] - _CLASSES_BELOW[n] for n in range(1, 10)}
    assert Counter(p.n for p in enumerate_connected(9)) == A000608 == table
