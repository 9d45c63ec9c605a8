import operator
import random
import sys
import threading
from fractions import Fraction

import pytest

from phl import canonical, gscheme, lovasz
from phl.canonical import (
    canonical_form,
    component_classes,
    connected_of_size,
    enumerate_connected,
    enumerate_posets,
    is_isomorphic,
)
from phl.cli import main
from phl.errors import (
    BoundTooLarge,
    InternalInvariantViolation,
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
from phl.homs import HomMap, brute_force_count, count_maps, enumerate_maps
from phl.lovasz import display_name
from phl.poset import Poset, catalog, direct_sum, from_pairs, ordinal_sum
from phl.randgen import random_connected_poset, random_poset
from phl.serialize import parse_catalog_ref

from conftest import clear_count_tables


def a1c3():
    return direct_sum(catalog("A", 1), catalog("C", 3))


def start_level(r, s, n_max, one_sided):
    """gscheme's start level for the pair (r, s) up to n_max: the first of
    levels 1 and 2 whose closed-form counts differ (with the count into r
    the larger when one_sided), else the copy vector's level from 3 on."""
    for m, (cr, cs) in enumerate(gscheme._low_counts(r, s, n_max), 1):
        if cr > cs or cr != cs and not one_sided:
            return m
    return gscheme._start_level(component_classes(r, s), n_max, one_sided)


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
    assert check_distributor(DistributorSpec((tau,), c3), 4) is None


def test_distributor_family_of_three(v3, lambda3, n_poset, c3):
    cert = zigzag_to_chain_certificate()
    spec = cert.distributors[-1]
    assert {tau.dom.labels for tau in spec.sources} == {
        v3.labels, lambda3.labels, n_poset.labels
    }
    assert check_distributor(spec, 5) is None


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


def replace(cert, **changes):
    """A copy of the record cert with some fields changed."""
    return type(cert)(**{**vars(cert), **changes})


def test_fence_crown_certificate_verifies():
    report = verify_certificate(fence_to_crown_certificate(), 5)
    assert report.certified
    assert report.inequalities[-1].lhs == 1
    assert report.scan.holds


def embedding_form_inequalities(cert):
    """(target name, terms, lhs, rhs) of each used target class's count
    inequality, with ind(Q, T) read as #emb(Q, T) / #aut(Q)."""
    used = [j for j, count in enumerate(cert.nu) if count]
    r_of = [sum(i in cert.lam[j] for j in used) for i in range(len(cert.q_classes))]
    found = []
    for j in used:
        qp = cert.qprime_classes[j]
        terms = []
        for i in sorted(set(cert.lam[j])):
            q = cert.q_classes[i]
            weight = cert.lam[j].count(i) * r_of[i] * count_maps("aut", q, q)
            terms.append((display_name(q), Fraction(count_maps("emb", q, cert.r), weight)))
        rhs = Fraction(count_maps("emb", qp, cert.s), count_maps("aut", qp, qp))
        found.append((display_name(qp), tuple(terms), max(v for _, v in terms), rhs))
    return found


def test_certificate_inequalities_match_the_embedding_form(monkeypatch):
    """verify_certificate reads induced copies, searching for no embedding
    or automorphism, and reports the inequalities of the emb / aut form."""

    def no_emb_or_aut(kind, p, q):
        assert kind not in ("emb", "aut"), kind
        return count_maps(kind, p, q)

    monkeypatch.setattr(gscheme, "count_maps", no_emb_or_aut)
    for cert in (zigzag_to_chain_certificate(), fence_to_crown_certificate()):
        expected = embedding_form_inequalities(cert)
        for n_max in (4, 5, 6):
            report = verify_certificate(cert, n_max)
            assert report.certified
            assert [(q.target_name, q.terms, q.lhs, q.rhs) for q in report.inequalities] == expected


def test_certificate_fails_on_wrong_class_list():
    cert = zigzag_to_chain_certificate()
    swapped = cert.q_classes[:-1] + (catalog("C", 4),)
    broken = replace(cert, q_classes=swapped)
    report = verify_certificate(broken, 4)
    assert not report.certified
    assert report.failure == (
        "hypothesis (i): R classes differ from the classes embeddable in R"
    )
    repeated = cert.q_classes[:-1] + (cert.q_classes[0],)
    report = verify_certificate(replace(cert, q_classes=repeated), 4)
    assert report.failure == "hypothesis (i): R classes repeat"
    # V3, Lambda3 and N do not embed in A1+C3, and C3 does not embed in N
    report = verify_certificate(replace(cert, s=cert.r), 4)
    assert report.failure == (
        "hypothesis (i): S classes differ from the classes embeddable in S"
    )


def test_certificate_fails_on_uncovered_class():
    cert = zigzag_to_chain_certificate()
    trimmed = DistributorSpec(cert.distributors[2].sources[:2], cert.distributors[2].target)
    broken = replace(
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
    broken = replace(cert, s=c3)
    report = verify_certificate(broken, 4)
    assert not report.certified
    assert "count inequality" in report.failure and "A1" in report.failure


def test_certificate_structural_validation():
    cert = zigzag_to_chain_certificate()
    with pytest.raises(MalformedCertificate):
        replace(cert, nu=(1, 1))
    with pytest.raises(MalformedCertificate):
        replace(cert, lam=((0,), (1,), (2, 3)))
    for bad in (99, -1, True, 0.5, "2"):
        with pytest.raises(MalformedCertificate):
            replace(cert, lam=((0,), (1,), (2, 3, bad)))


def test_certificate_mismatched_distributor_raises():
    cert = zigzag_to_chain_certificate()
    # assign the wrong source classes to the final target
    broken = replace(
        cert, lam=(cert.lam[0], cert.lam[1], (0, 1, 2))
    )
    with pytest.raises(MalformedCertificate, match="source 0 is not isomorphic"):
        verify_certificate(broken, 4)
    # the C2 distributor also stands for target class A1
    dists = (cert.distributors[1],) + cert.distributors[1:]
    with pytest.raises(MalformedCertificate, match="distributor 0 targets"):
        verify_certificate(replace(cert, distributors=dists), 4)


def test_repeated_scans_keep_one_plan_per_order_and_kind_class():
    """The map-search plans a scan leaves on the class representatives are
    bounded: one per (search order, kind class), and a second scan over the
    same pair reads them without adding any."""
    # not copy-dominated, so the scan counts every class from level 3 on
    r = catalog("N")
    s = direct_sum(a1c3(), catalog("A", 1))
    assert start_level(r, s, 5, True) == 3
    classes = list(enumerate_connected(5))
    assert bounded_gle_check(r, s, 5).holds
    after_first = [dict(p._plans) for p in classes]
    assert bounded_gle_check(r, s, 5).holds
    for p, plans in zip(classes, after_first):
        assert p._plans == plans
        assert all(p._plans[key] is plan for key, plan in plans.items())
        keys = [(tuple(order), codes) for order, codes in p._plans]
        assert len(set(keys)) == len(keys)
        assert all(sorted(order) == list(range(p.n)) and codes in (2, 3) for order, codes in keys)
        # every class is counted (strict) into some component of r and s
        # as long as its longest chain fits
        if p.longest_chain <= 2:
            assert (p.component_orders[0], 2) in p._plans


def created_profiles(*targets):
    """The strict-count profiles that scans created for the classes of the
    targets' components (a class with none reads as empty and is left out)."""
    codes = {canonical_form(c) for t in targets for c in t.component_posets}
    return [prof for prof in map(lovasz.strict_profile, codes) if prof]


def no_search(*args):
    raise AssertionError("a warm scan searched")


def n_pair():
    """C2 + N against C2 + A1 + C3: equal copy vectors on levels 1 and 2,
    and on level 3 one copy of C3 against one each of V3 and Lambda3, so
    the scans start counting at level 3 (2 classes below it); the pair
    holds, as N <=_G A1 + C3 does."""
    c2 = catalog("C", 2)
    return direct_sum(c2, catalog("N")), direct_sum(c2, a1c3())


def test_warm_scan_searches_nothing(monkeypatch):
    """A cold scan counts each class from the start level on once per
    component class whose chain fits, in class order; a repeat counts
    nothing, and neither does a copy-dominated pair."""
    r, s = n_pair()
    calls = []

    def recording(kind, p, q):
        calls.append((kind, p, q._up))
        return count_maps(kind, p, q)

    monkeypatch.setattr(gscheme, "count_maps", recording)
    report = bounded_gle_check(r, s, 5)
    assert (report.verdict, report.classes_checked) == ("holds_up_to_bound", 59)
    rows = {c._up: c.longest_chain for t in (r, s) for c in t.component_posets}
    assert calls == [("strict", p, up) for p in list(enumerate_connected(5))[2:]
                     for up, top in rows.items() if p.longest_chain <= top]

    monkeypatch.setattr(gscheme, "count_maps", no_search)
    assert bounded_gle_check(r, s, 5) == report
    assert bounded_gle_check(r, s, 4).classes_checked == 15
    p, (cr, cs) = witness_search(r, s)
    assert cr != cs and p.n == 3
    # S = R + X is copy-dominated: it holds with every class checked and none counted
    report = bounded_gle_check(r, direct_sum(r, catalog("V", 3)), 6)
    assert (report.verdict, report.classes_checked) == ("holds_up_to_bound", 297)


def test_scans_share_profiles_by_class(monkeypatch):
    """The counts a scan left for a component class serve every later scan
    with a component of that class, on either side and under any labels."""
    r, s = n_pair()
    assert bounded_gle_check(r, s, 6).holds
    monkeypatch.setattr(gscheme, "count_maps", no_search)
    report = bounded_gle_check(s, r, 5)
    assert (report.verdict, report.classes_checked, report.witness[1]) == ("counterexample", 5, (1, 0))
    # a 2-chain under other labels and other relation rows
    c2 = from_pairs(["y", "x"], [("x", "y")])
    assert c2._up != catalog("C", 2)._up
    assert created_profiles(c2) == created_profiles(catalog("C", 2))
    assert set(created_profiles(c2)[0]) == set(range(2, 297))
    assert bounded_gle_check(direct_sum(c2, catalog("N")), direct_sum(c2, a1c3()), 6).holds


def test_refuted_scan_fills_only_the_classes_it_checked(v3, lambda3):
    # V3 and Lambda3 first differ in copies on level 3
    report = bounded_gle_check(v3, lambda3, 6)
    below = len(list(enumerate_connected(2)))
    assert not report.holds and report.classes_checked > below
    profiles = created_profiles(v3, lambda3)
    assert profiles and all(set(prof) == set(range(below, report.classes_checked))
                            for prof in profiles)
    # N2 and A2 + C2 first differ on level 2, in closed form: no class-table entry is made
    entries = lovasz._class_data.cache_info().currsize
    report = bounded_gle_check(catalog("N2"), direct_sum(catalog("A", 2), catalog("C", 2)), 6)
    assert (report.classes_checked, report.witness[0].n, report.witness[1]) == (2, 2, (4, 1))
    assert lovasz._class_data.cache_info().currsize == entries


def test_profiles_grow_with_the_bound_only():
    r, s = catalog("N"), a1c3()
    assert bounded_gle_check(r, s, 5).holds
    assert {frozenset(prof) for prof in created_profiles(r, s)} == {frozenset(range(2, 59))}
    assert bounded_gle_check(r, s, 6).holds
    assert bounded_gle_check(r, s, 5).holds
    assert {frozenset(prof) for prof in created_profiles(r, s)} == {frozenset(range(2, 297))}
    r, s = catalog("N"), a1c3()
    assert bounded_gle_check(r, s, 6).holds
    assert bounded_gle_check(r, s, 5).holds
    assert {frozenset(prof) for prof in created_profiles(r, s)} == {frozenset(range(2, 297))}


def test_threads_filling_one_profile_agree():
    """Scans of one pair in more threads than cores, switching often, leave
    one entry per class counted and the verdict of a single scan."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            clear_count_tables()
            r, s = n_pair()
            reports = []
            threads = [threading.Thread(target=lambda: reports.append(bounded_gle_check(r, s, 5)))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert {(rep.verdict, rep.classes_checked) for rep in reports} == {("holds_up_to_bound", 59)}
            assert {frozenset(prof) for prof in created_profiles(r, s)} == {frozenset(range(2, 59))}
    finally:
        sys.setswitchinterval(interval)


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


def relabelled(p, rng):
    """p with its elements in a random order under fresh labels."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    place = {old: new for new, old in enumerate(perm)}
    rows = [sum(1 << place[j] for j in range(p.n) if p.leq(i, j)) for i in perm]
    return Poset([f"e{k}" for k in range(p.n)], rows)


def test_witness_search_refuses_isomorphic_inputs_by_their_components(monkeypatch):
    """Equal component classes, equally often on both sides, are refused
    with no canonical form of either whole poset."""
    c2, a1 = catalog("C", 2), catalog("A", 1)
    rng = random.Random(39)
    parts = direct_sum(direct_sum(catalog("N"), catalog("V", 3)), direct_sum(c2, catalog("N")))
    for r, s in ((direct_sum(c2, a1), direct_sum(a1, c2)), (parts, relabelled(parts, rng))):
        assert r != s

        def part_only(p, whole=(r, s), code=canonical.canonical_form):
            if any(p is t for t in whole):
                raise AssertionError("a whole poset was coded")
            return code(p)

        with monkeypatch.context() as patched:
            for owner in (canonical, gscheme):
                patched.setattr(owner, "canonical_form", part_only)
            with pytest.raises(InvalidParameter, match="non-isomorphic"):
                witness_search(r, s)
    # one component class more often on one side is no isomorphism
    p, (cr, cs) = witness_search(parts, direct_sum(parts, a1))
    assert (p.n, cr, cs) == (1, 13, 14)


def test_missing_witness_is_a_bug_only_at_full_bound(monkeypatch, capsys, n_poset):
    # N and A1 + C3 agree on A1 and C2, and equal counts everywhere would
    # make them isomorphic, so within max(|r|, |s|) = 4 elements only a
    # wrong count can miss a witness
    monkeypatch.setattr(gscheme, "count_maps", lambda kind, p, q: 0)
    with pytest.raises(InternalInvariantViolation, match="within max"):
        witness_search(n_poset, a1c3())
    assert main(["witness", "--r", "catalog:N", "--s", "catalog:A1+C3"]) == 4
    err = capsys.readouterr().err
    assert "error: InternalInvariantViolation" in err and "bug in phl" in err
    # a ceiling below max(|r|, |s|) may hide the witness: a refusal, not a bug
    monkeypatch.setenv("PHL_MAX_BOUND", "3")
    with pytest.raises(BoundTooLarge, match="bound 4 exceeds ceiling 3"):
        witness_search(n_poset, a1c3())
    assert main(["witness", "--r", "catalog:N", "--s", "catalog:A1+C3"]) == 2
    assert "error: BoundTooLarge" in capsys.readouterr().err


# -- the component-additive scan against direct counting ----------------------

def reference_scan(r, s, n_max, separates):
    """First (classes checked, (p, counts)) whose direct counts separate, else None."""
    for checked, p in enumerate(enumerate_connected(n_max), 1):
        counts = count_maps("strict", p, r), count_maps("strict", p, s)
        if separates(*counts):
            return checked, (p, counts)
    return checked, None


def relaid(p, rng):
    """An isomorphic copy of p with its carrier shuffled and relabelled."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    rows = [0] * p.n
    for i in range(p.n):
        rows[perm[i]] = sum(1 << perm[j] for j in range(p.n) if p.leq(i, j))
    return Poset([f"y{k}" for k in range(p.n)], rows)


def scan_cases():
    rng = random.Random(2026)
    cases = []
    for _ in range(30):
        r, s = (rng.choice((random_poset, random_connected_poset))(
            rng, rng.randint(1, 6), rng.choice((0.2, 0.4))) for _ in range(2))
        cases.append((r, s, 5))
    for _ in range(15):
        # equal sizes, so the first class (A1) does not separate them
        n = rng.randint(3, 6)
        cases.append(tuple(random_poset(rng, n, rng.choice((0.2, 0.4))) for _ in range(2)) + (5,))
    for _ in range(12):
        r = random_poset(rng, rng.randint(1, 4), 0.3)
        x = random_poset(rng, rng.randint(1, 2), 0.3)
        cases.append((r, direct_sum(r, x), 5))
        cases.append((r, direct_sum(x, relaid(r, rng)), 5))
        cases.append((direct_sum(r, x), r, 5))
    named = [("A3", "A1+C2"), ("A1+C2", "A3"), ("C2+C2+A1", "C2+A2"),
             ("A2+C2", "C2+C2+A1"), ("N", "A1+C3"), ("A1+C3", "N"), ("W", "A1+N2"),
             ("V3", "Lambda3"), ("C3+V3", "V3+Lambda3")]
    cases += [(parse_catalog_ref(a), parse_catalog_ref(b), 6) for a, b in named]
    return cases


def fresh(p):
    """A copy of p that shares none of its caches; the count tables are
    emptied too, so the profiles of its component classes start empty."""
    clear_count_tables()
    return Poset(p.labels, p._up)


def test_strict_scans_match_direct_counting():
    """Cold scans, warm repeats and scans that extend a prefix left by a
    smaller bound all agree with direct counting."""
    verdicts = set()
    for r0, s0, n_max in scan_cases():
        checked, witness = reference_scan(r0, s0, n_max, operator.gt)
        r, s = fresh(r0), fresh(s0)
        for _ in ("cold", "warm"):
            report = bounded_gle_check(r, s, n_max)
            assert (report.classes_checked, report.witness) == (checked, witness)
        verdicts.add(report.verdict)
        r, s = fresh(r0), fresh(s0)
        bounded_gle_check(r, s, 3)
        report = bounded_gle_check(r, s, n_max)
        assert (report.classes_checked, report.witness) == (checked, witness)
        if not is_isomorphic(r, s):
            expected = reference_scan(r, s, max(r.n, s.n), operator.ne)[1]
            assert witness_search(r, s) == expected
            assert witness_search(fresh(r0), fresh(s0)) == expected
    assert verdicts == {"holds_up_to_bound", "counterexample"}


def test_copy_vector_skips_only_equal_counts_on_all_pairs_up_to_size_5():
    """Rules 1 and 2 of gscheme against direct counting, on the 7,482 ordered
    pairs of distinct posets up to 5 elements (OEIS A000112) at bound 5."""
    posets = list(enumerate_posets(5))
    classes = list(enumerate_connected(5))
    counts = [[count_maps("strict", p, t) for p in classes] for t in posets]
    below = [len(list(enumerate_connected(k - 1))) if k > 1 else 0 for k in range(7)]
    pairs = dominated = later = 0
    for r, counts_r in zip(posets, counts):
        for s, counts_s in zip(posets, counts):
            if r is s:
                continue
            pairs += 1
            # rule 1: no class below the first negative level is a counterexample
            start = start_level(r, s, 5, one_sided=True)
            assert all(cr <= cs for cr, cs in zip(counts_r[:below[start]], counts_s)), (r, s)
            # rule 2: the first separating class lies on the first nonzero level
            k = start_level(r, s, 5, one_sided=False)
            if start > 5:
                # no negative level: no count is made
                dominated += 1
            elif start > max(k, 3):
                later += 1
            first = next(i for i, (cr, cs) in enumerate(zip(counts_r, counts_s)) if cr != cs)
            assert below[k] <= first < below[k + 1], (r, s)
            reference = next(((i + 1, (classes[i], (cr, cs)))
                              for i, (cr, cs) in enumerate(zip(counts_r, counts_s)) if cr > cs),
                             (59, None))
            report = bounded_gle_check(r, s, 5)
            assert (report.classes_checked, report.witness) == reference, (r, s)
    # the pairs that are not dominated and count from past the first nonzero level
    assert (pairs, dominated, later) == (7482, 1594, 343)


def closed_form_only(patched):
    """Make a scan fail that groups components, reads a class table or counts maps."""
    def fail(*args):
        raise AssertionError("a scan went past the closed form")

    for owner, name in ((gscheme, "component_classes"), (gscheme, "count_maps"), (lovasz, "_class_data")):
        patched.setattr(owner, name, fail)


def test_closed_form_levels_match_direct_counting(monkeypatch):
    """#strict(A1, T) = |T| and #strict(C2, T) is T's number of strict
    relations, on every T up to 5 elements.  On the 520 ordered pairs of
    posets up to 4 elements that differ on level 1 or 2, both scans agree
    with direct counting, and where those levels decide, with no
    component grouped, no class table read and no map counted."""
    a1, c2 = catalog("A", 1), catalog("C", 2)
    for t in enumerate_posets(5):
        expected = ((count_maps("strict", a1, t), 1), (count_maps("strict", c2, t), 0))
        assert gscheme._low_counts(t, a1, 5) == expected
        assert gscheme._low_counts(t, a1, 1) == expected[:1]
    posets = list(enumerate_posets(4))
    pairs = [(r, s) for r in posets for s in posets if (r.n, r.relation_size) != (s.n, s.relation_size)]
    assert len(pairs) == 520
    for r, s in pairs:
        witness = reference_scan(r, s, max(r.n, s.n), operator.ne)[1]
        with monkeypatch.context() as patched:
            closed_form_only(patched)
            assert witness_search(r, s) == witness and witness[0].n <= 2
        for n_max in range(1, 6):
            expected = reference_scan(r, s, n_max, operator.gt)
            with monkeypatch.context() as patched:
                if n_max <= 2 or expected[1] and expected[1][0].n <= 2:
                    closed_form_only(patched)
                report = bounded_gle_check(r, s, n_max)
            assert (report.classes_checked, report.witness) == expected, (r, s, n_max)


def test_closed_form_edges(monkeypatch):
    """Bound 1 reads A1 alone, and a ceiling of 1 keeps every refusal and
    its precedence."""
    monkeypatch.setattr(gscheme, "count_maps", no_search)
    monkeypatch.setattr(lovasz, "_class_data", no_search)
    a1, a2, c2 = catalog("A", 1), catalog("A", 2), catalog("C", 2)
    first, second = (connected_of_size(k)[0] for k in (1, 2))
    # C2 has a strict relation A2 lacks, past bound 1
    report = bounded_gle_check(c2, a2, 1)
    assert (report.verdict, report.classes_checked, report.witness) == ("holds_up_to_bound", 1, None)
    assert bounded_gle_check(c2, a2, 2).witness == (second, (1, 0))
    assert bounded_gle_check(a2, a1, 1).witness == (first, (2, 1))
    monkeypatch.setenv("PHL_MAX_BOUND", "1")
    assert witness_search(a2, a1) == (first, (2, 1))
    with pytest.raises(BoundTooLarge, match="bound 2 exceeds ceiling 1"):
        witness_search(c2, a2)
    with pytest.raises(BoundTooLarge):
        bounded_gle_check(a2, a1)
    assert bounded_gle_check(a2, a1, 1).witness == (first, (2, 1))
    # isomorphic inputs are refused before the ceiling is read
    monkeypatch.setenv("PHL_MAX_BOUND", "x")
    with pytest.raises(InvalidParameter, match="non-isomorphic"):
        witness_search(c2, catalog("C", 2))
    with pytest.raises(InvalidParameter, match="PHL_MAX_BOUND"):
        witness_search(c2, a2)


def test_a_dropped_copy_changes_a_verdict(monkeypatch):
    """The scans trust the copy table: with one copy of V3 dropped from V3's
    table, the refuted pair (V3, Lambda3) reads as copy-dominated, and the
    scan no longer agrees with direct counting."""
    v3, lambda3 = catalog("V", 3), catalog("Lambda", 3)
    expected = reference_scan(v3, lambda3, 5, operator.gt)
    report = bounded_gle_check(v3, lambda3, 5)
    assert (report.classes_checked, report.witness) == expected
    clear_count_tables()
    code = canonical_form(v3)
    level = lovasz.induced_copies(code, 3)
    monkeypatch.setitem(level, code, level[code] - 1)
    report = bounded_gle_check(v3, lambda3, 5)
    assert report.holds and (report.classes_checked, report.witness) != expected


def test_a_component_past_the_subset_ceiling_starts_at_level_3():
    """Two 13-element components of equal size and relation count: their
    2^13 subsets are not walked, so the scans count from level 3 on."""
    top, bottom = catalog("A", 2), catalog("A", 2)
    r = ordinal_sum(catalog("C", 11), top)
    s = ordinal_sum(bottom, catalog("C", 11))
    assert (r.n, r.relation_size) == (s.n, s.relation_size)
    assert start_level(r, s, 4, True) == 3
    report = bounded_gle_check(r, s, 4)
    assert (report.classes_checked, report.witness) == reference_scan(r, s, 4, operator.gt)
    assert witness_search(r, s) == reference_scan(r, s, 4, operator.ne)[1]


def disjoint_union(parts):
    """The direct sum of parts, built in one step."""
    labels, rows = [], []
    for k, p in enumerate(parts):
        offset = len(rows)
        labels += [f"{k}.{x}" for x in p.labels]
        rows += [p.up_mask(i) << offset for i in range(p.n)]
    return Poset(labels, rows)


def test_the_class_table_stays_within_its_size():
    """A scan over more component classes than the table holds leaves it
    full and no fuller, and its verdict is the direct count's."""
    size = lovasz._CLASS_CACHE_SIZE
    big = disjoint_union(list(enumerate_connected(7))[:size + 1])
    # equal on levels 1 and 2, so the scan counts level 3 into every group
    r, s = direct_sum(big, catalog("V", 3)), direct_sum(big, catalog("Lambda", 3))
    assert len(component_classes(r, s)) == size + 1
    report = bounded_gle_check(r, s, 3)
    assert (report.classes_checked, report.witness) == reference_scan(r, s, 3, operator.gt)
    assert report.classes_checked == 3
    assert lovasz._class_data.cache_info().currsize == size


def test_class_counts_are_the_generated_ones(monkeypatch):
    """_classes_below reads the partial sums of A000608 where its table
    reaches and generates past it; both agree with generation through
    size 7."""
    generated = [0] + [len(list(enumerate_connected(n))) for n in range(1, 8)]
    assert [gscheme._classes_below(size) for size in range(1, 9)] == generated
    monkeypatch.setattr(gscheme, "_CLASSES_BELOW", gscheme._CLASSES_BELOW[:4])
    assert [gscheme._classes_below(size) for size in range(1, 9)] == generated


def test_interleaved_scans_share_one_profile():
    """Two count walks of one pair advanced in lockstep, the second started
    level with the first or ten classes behind it, read the counts the first
    filled and yield the direct counts."""
    for lead in (0, 10):
        r = direct_sum(catalog("N"), catalog("C", 2))
        s = direct_sum(catalog("N"), catalog("V", 3))
        expected = [(i, p, count_maps("strict", p, r), count_maps("strict", p, s))
                    for i, p in enumerate(enumerate_connected(5))]
        groups = component_classes(r, s)
        ahead = gscheme._strict_count_pairs(groups, 1, 5)
        first = [next(ahead) for _ in range(lead)]
        behind = gscheme._strict_count_pairs(groups, 1, 5)
        pairs = list(zip(ahead, behind))
        assert first + [a for a, _ in pairs] == expected
        assert [b for _, b in pairs] == expected[:len(pairs)]


def dual(p):
    return Poset(p.labels, [p.down_mask(i) for i in range(p.n)])


def test_order_duality_keeps_verdicts_and_witness_sizes():
    """#strict(P, T) = #strict(P^op, T^op), and duality permutes the
    connected classes of each size, so on the 7,482 ordered pairs of
    distinct posets up to 5 elements the duals get the same bound-5 verdict
    and a witness of the same size, whose dual separates r and s with the
    counts reported for the duals."""
    posets = list(enumerate_posets(5))
    duals = [dual(p) for p in posets]
    pairs = 0
    for r, r_op in zip(posets, duals):
        for s, s_op in zip(posets, duals):
            if r is s:
                continue
            pairs += 1
            assert bounded_gle_check(r_op, s_op, 5).verdict == bounded_gle_check(r, s, 5).verdict, (r, s)
            w, (cr, cs) = witness_search(r_op, s_op)
            assert w.n == witness_search(r, s)[0].n, (r, s)
            assert cr != cs and (count_maps("strict", dual(w), r), count_maps("strict", dual(w), s)) == (cr, cs)
    assert pairs == 7482


def test_longer_chain_admits_no_strict_map():
    """The scans skip a component whose longest chain is shorter than p's."""
    small = list(enumerate_posets(4))
    doms = small + [p for p in enumerate_connected(5) if p.n == 5]
    for p in doms:
        for q in small:
            if p.longest_chain > q.longest_chain:
                assert brute_force_count("strict", p, q) == 0
