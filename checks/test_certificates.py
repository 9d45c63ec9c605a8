"""Deep check: both bundled transport certificates at bound 7.

Statement checked: the paper's sufficient condition for R <=_G S (the
embeddable classes, the covering assignment, distributing families that
stay disjoint on every connected poset up to the bound, and the exact
count inequality) holds for the zigzag-to-chain and fence-to-crown
certificates, and the independent scan of R against S finds no
counterexample among the 1,947 connected classes up to 7 elements
(OEIS A000608).  Tier-1 checks them at bound 6.
"""

import pytest

from phl.examples import fence_to_crown_certificate, zigzag_to_chain_certificate
from phl.gscheme import verify_certificate


@pytest.mark.parametrize("make", [zigzag_to_chain_certificate, fence_to_crown_certificate])
def test_bundled_certificate_certifies_at_bound_7(make):
    report = verify_certificate(make(), 7)
    assert report.certified, report.failure
    assert report.scan.holds and report.scan.classes_checked == 1947
