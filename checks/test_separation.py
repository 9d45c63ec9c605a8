"""Deep check: the paper's separation theorem on every pair up to size 6.

Statement checked: #strict(P, R) = #strict(P, S) for every connected P
holds only when R and S are isomorphic, and a separating P then exists
with at most max(|R|, |S|) elements.  For each of the 163,620 ordered
pairs of non-isomorphic posets among the 405 of 1..6 elements (OEIS
A000112), witness_search, which scans up to max(|R|, |S|) elements,
must return a connected P with different counts into R and into S,
equal to the counts of count_maps into the whole posets, and must never
raise InternalInvariantViolation (its report that no witness exists
within that size).
"""

from phl.canonical import enumerate_posets
from phl.gscheme import witness_search
from phl.homs import count_maps
from phl.poset import is_connected


def test_every_pair_of_non_isomorphic_posets_up_to_size_6_is_separated():
    posets = list(enumerate_posets(6))
    assert len(posets) == 405
    pairs = 0
    largest = 0
    for r in posets:
        for s in posets:
            if r is s:
                continue
            p, (cr, cs) = witness_search(r, s)
            pairs += 1
            assert cr != cs and p.n <= max(r.n, s.n) and is_connected(p), (r, s)
            # the reported counts are direct whole-poset counts
            assert (cr, cs) == (count_maps("strict", p, r), count_maps("strict", p, s)), (r, s)
            largest = max(largest, p.n)
    assert pairs == 163620
    assert largest <= 4
