import dataclasses
import random

import pytest

from phl.canonical import enumerate_connected, is_isomorphic
from phl.errors import (
    InvalidParameter,
    MalformedCertificate,
    NotADistributor,
    NotStrictOnto,
)
from phl.examples import (
    fence_to_crown_certificate,
    zigzag_to_chain_certificate,
)
from phl.gscheme import (
    DistributorSpec,
    bounded_gle_check,
    check_distributing,
    check_distributor,
    suggest_distributing,
    verify_certificate,
    witness_search,
)
from phl.homs import HomMap, enumerate_maps
from phl.poset import catalog, direct_sum


def a1c3():
    return direct_sum(catalog("A", 1), catalog("C", 3))


def test_bounded_scan_holds_forward(n_poset):
    report = bounded_gle_check(n_poset, a1c3(), 5)
    assert report.holds
    assert report.classes_checked == 59
    assert report.witness is None


def test_bounded_scan_refutes_backward(n_poset):
    report = bounded_gle_check(a1c3(), n_poset, 5)
    assert not report.holds
    p, (cr, cs) = report.witness
    assert p.n == 3 and cr == 1 and cs == 0


def test_bounded_scan_reflexive(c3):
    assert bounded_gle_check(c3, c3, 4).holds


def test_distributing_criterion_on_zigzag_chain(n_poset, c3):
    verdicts = {
        m.map: check_distributing(m)
        for m in enumerate_maps("strict_onto", n_poset, c3)
    }
    proved = [m for m, v in verdicts.items() if v == "proved"]
    # exactly one of the five strict surjections passes: a,d onto the middle
    assert proved == [(1, 0, 2, 1)]


def test_distributing_requires_strict_surjection(c2, c3):
    with pytest.raises(NotStrictOnto):
        check_distributing(HomMap(c2, c3, (0, 2)))
    with pytest.raises(NotStrictOnto):
        check_distributing(HomMap(c2, c2, (0, 0)))


def test_identity_is_distributing(c3, v3):
    for p in (c3, v3):
        ident = HomMap(p, p, tuple(range(p.n)))
        assert check_distributing(ident) == "proved"


def test_suggest_scan_recovers_crown_family(n_poset, w_poset, crown):
    cert = fence_to_crown_certificate()
    family = cert.distributors[-1].sources
    assert len(family) == 3
    suggested_n = {m.map for m in suggest_distributing(n_poset, crown)}
    suggested_w = {m.map for m in suggest_distributing(w_poset, crown)}
    for tau in family[:2]:
        assert tau.map in suggested_n
    assert family[2].map in suggested_w


def test_suggest_lists_maps_in_value_order():
    # the canonical copy of W is one domain whose unordered map search
    # finds its proved maps out of value order
    for q in enumerate_connected(5):
        for qp in enumerate_connected(4):
            maps = [m.map for m in suggest_distributing(q, qp)]
            assert maps == sorted(maps)


def test_distributor_spec_validation(n_poset, c3, c2):
    tau = HomMap.from_labels(n_poset, c3, {"a": "1", "b": "0", "c": "2", "d": "1"})
    DistributorSpec((tau,), c3)
    with pytest.raises(InvalidParameter):
        DistributorSpec((tau,), c2)
    with pytest.raises(NotStrictOnto):
        DistributorSpec((HomMap(c3, c3, (0, 0, 1)),), c3)


def test_single_distributing_map_is_a_distributor(n_poset, c3):
    tau = HomMap.from_labels(n_poset, c3, {"a": "1", "b": "0", "c": "2", "d": "1"})
    report = check_distributor(DistributorSpec((tau,), c3), 4)
    assert report.source_count == 1
    assert report.classes_checked == 15


def test_distributor_family_of_three(v3, lambda3, n_poset, c3):
    cert = zigzag_to_chain_certificate()
    spec = cert.distributors[-1]
    assert {tau.dom.labels for tau in spec.sources} == {
        v3.labels, lambda3.labels, n_poset.labels
    }
    report = check_distributor(spec, 5)
    assert report.source_count == 3


def test_distributor_rejects_source_isomorphic_to_target(c3, n_poset):
    ident = HomMap(c3, c3, (0, 1, 2))
    tau = HomMap.from_labels(n_poset, c3, {"a": "1", "b": "0", "c": "2", "d": "1"})
    with pytest.raises(NotADistributor) as exc:
        check_distributor(DistributorSpec((ident, tau), c3), 4)
    assert exc.value.reason == "source-isomorphic-to-target"


def test_distributor_rejects_unprovable_source(n_poset, c3):
    bad = HomMap.from_labels(n_poset, c3, {"a": "0", "b": "0", "c": "1", "d": "2"})
    with pytest.raises(NotADistributor) as exc:
        check_distributor(DistributorSpec((bad,), c3), 4)
    assert exc.value.reason == "not-provably-distributing"


def test_distributor_rejects_overlap(n_poset, c3):
    tau = HomMap.from_labels(n_poset, c3, {"a": "1", "b": "0", "c": "2", "d": "1"})
    with pytest.raises(NotADistributor) as exc:
        check_distributor(DistributorSpec((tau, tau), c3), 4)
    assert exc.value.reason == "overlap"
    assert exc.value.witness is not None


def reference_overlap(spec, n_max):
    """(poset, later source) of the first overlap of composition sets,
    found through the ordered enumeration; None when all are disjoint."""
    for p in enumerate_connected(n_max):
        reached = set()
        for k, tau in enumerate(spec.sources):
            mine = {tau.after(s).map for s in enumerate_maps("strict_onto", p, tau.dom)}
            if mine & reached:
                return p, k
            reached |= mine
    return None


def distributor_overlap(spec, n_max):
    try:
        check_distributor(spec, n_max)
    except NotADistributor as exc:
        assert exc.reason == "overlap"
        p, other, k, witness = exc.witness
        assert other < k and exc.index == (other, k)
        assert witness.cod == spec.target and witness.is_strict and witness.is_onto
        for j in (other, k):
            tau = spec.sources[j]
            assert any(
                tau.after(s) == witness for s in enumerate_maps("strict_onto", p, tau.dom)
            )
        return p, k
    return None


def random_families(seed, count):
    """Seeded families of provably distributing maps, two or three per
    family, into connected targets of size 2 to 4."""
    rng = random.Random(seed)
    pools = []
    for qp in enumerate_connected(4):
        pool = [
            tau
            for q in enumerate_connected(5)
            if not is_isomorphic(q, qp)
            for tau in suggest_distributing(q, qp)
        ]
        if len(pool) >= 2:
            pools.append((qp, pool))
    for _ in range(count):
        qp, pool = rng.choice(pools)
        yield DistributorSpec(tuple(rng.choices(pool, k=rng.choice((2, 3)))), qp)


def test_distributor_matches_reference_on_bundled_families():
    for cert in (zigzag_to_chain_certificate(), fence_to_crown_certificate()):
        for spec in cert.distributors:
            assert distributor_overlap(spec, 6) is None
            assert reference_overlap(spec, 6) is None


def test_distributor_matches_reference_on_random_families():
    rng = random.Random(5)
    verdicts = set()
    for spec in random_families(17, 60):
        n_max = rng.randint(3, 6)
        found = distributor_overlap(spec, n_max)
        assert found == reference_overlap(spec, n_max)
        verdicts.add(found is None)
    assert verdicts == {True, False}


def test_zigzag_chain_certificate_verifies():
    report = verify_certificate(zigzag_to_chain_certificate(), 5)
    assert report.certified
    final = report.inequalities[-1]
    assert final.lhs == 1 and final.rhs == 1
    assert report.scan.holds


def test_fence_crown_certificate_verifies():
    report = verify_certificate(fence_to_crown_certificate(), 5)
    assert report.certified
    assert report.inequalities[-1].lhs == 1
    assert report.scan.holds


def test_certificate_fails_on_wrong_class_list():
    cert = zigzag_to_chain_certificate()
    swapped = cert.q_classes[:-1] + (catalog("C", 4),)
    broken = dataclasses.replace(cert, q_classes=swapped)
    report = verify_certificate(broken, 4)
    assert not report.certified
    assert report.failure == (
        "hypothesis (i): R classes differ from the classes embeddable in R"
    )
    repeated = cert.q_classes[:-1] + (cert.q_classes[0],)
    report = verify_certificate(dataclasses.replace(cert, q_classes=repeated), 4)
    assert report.failure == "hypothesis (i): R classes repeat"
    # V3, Lambda3 and N do not embed in A1+C3, and C3 does not embed in N
    report = verify_certificate(dataclasses.replace(cert, s=cert.r), 4)
    assert report.failure == (
        "hypothesis (i): S classes differ from the classes embeddable in S"
    )


def test_certificate_fails_on_uncovered_class():
    cert = zigzag_to_chain_certificate()
    trimmed = DistributorSpec(cert.distributors[2].sources[:2], cert.distributors[2].target)
    broken = dataclasses.replace(
        cert,
        nu=(1, 1, 2),
        lam=(cert.lam[0], cert.lam[1], cert.lam[2][:2]),
        distributors=(cert.distributors[0], cert.distributors[1], trimmed),
    )
    report = verify_certificate(broken, 4)
    assert not report.certified
    assert "hypothesis (iii)" in report.failure and "N" in report.failure


def test_certificate_fails_on_count_inequality(c3):
    cert = zigzag_to_chain_certificate()
    # same data against the bare chain: the antichain column is too small
    broken = dataclasses.replace(cert, s=c3)
    report = verify_certificate(broken, 4)
    assert not report.certified
    assert "count inequality" in report.failure and "A1" in report.failure


def test_certificate_structural_validation():
    cert = zigzag_to_chain_certificate()
    with pytest.raises(MalformedCertificate):
        dataclasses.replace(cert, nu=(1, 1))
    with pytest.raises(MalformedCertificate):
        dataclasses.replace(cert, lam=((0,), (1,), (2, 3)))
    with pytest.raises(MalformedCertificate):
        dataclasses.replace(cert, lam=((0,), (1,), (2, 3, 99)))


def test_certificate_mismatched_distributor_raises():
    cert = zigzag_to_chain_certificate()
    # assign the wrong source classes to the final target
    broken = dataclasses.replace(
        cert, lam=(cert.lam[0], cert.lam[1], (0, 1, 2))
    )
    with pytest.raises(MalformedCertificate, match="source 0 is not isomorphic"):
        verify_certificate(broken, 4)
    # the C2 distributor also stands for target class A1
    dists = (cert.distributors[1],) + cert.distributors[1:]
    with pytest.raises(MalformedCertificate, match="distributor 0 targets"):
        verify_certificate(dataclasses.replace(cert, distributors=dists), 4)


def test_witness_search(c2, c3, v3):
    with pytest.raises(InvalidParameter):
        witness_search(c3, c3)
    p, (cr, cs) = witness_search(c2, v3)
    assert cr != cs
    assert p.n <= 3


def test_witness_search_separates_same_size_pair(v3, lambda3):
    p, (cr, cs) = witness_search(v3, lambda3)
    assert cr != cs
    assert p.n <= 3
