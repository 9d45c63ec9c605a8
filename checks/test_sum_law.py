"""Deep check: a common summand moves no witness, on every pair up to size 5.

Statement checked: a connected P maps into one component at a time, so
#strict(P, R + C4) = #strict(P, R) + #strict(P, C4).  Adding C4 to both
sides therefore shifts both counts by the same amount and leaves the
first separating class where it was.  For each of the 7,482 ordered
pairs of distinct posets among the 87 of 1..5 elements (OEIS A000112),
witness_search(R + C4, S + C4) must return the class that
witness_search(R, S) returns, with both counts shifted by
#strict(P, C4).  The sums reach 9 elements, past the enumeration
ceiling, so the witness search scans up to the ceiling there.
"""

from phl.canonical import enumerate_posets
from phl.gscheme import witness_search
from phl.homs import count_maps
from phl.poset import catalog, direct_sum


def test_a_common_summand_shifts_both_counts_of_the_same_witness():
    c4 = catalog("C", 4)
    posets = list(enumerate_posets(5))
    summed = [direct_sum(t, c4) for t in posets]
    assert len(posets) == 87 and max(t.n for t in summed) == 9
    pairs = 0
    for r, r4 in zip(posets, summed):
        for s, s4 in zip(posets, summed):
            if r is s:
                continue
            pairs += 1
            p, (cr, cs) = witness_search(r, s)
            shift = count_maps("strict", p, c4)
            assert witness_search(r4, s4) == (p, (cr + shift, cs + shift)), (r, s)
    assert pairs == 7482
