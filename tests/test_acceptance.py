"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each test prints its verdict straight to the terminal (bypassing
capture) so a full run reads as a ten-line scoreboard.  All counts are
exact; the only tolerances are the wall-clock ceilings pinned below.
"""

import random
import time
from fractions import Fraction

import pytest

from phl.canonical import enumerate_posets, is_isomorphic
from phl.construction import antichain_ev_extension, build_graft, graft_pipeline
from phl.evsystem import EVElement, build_ev, is_strict_ev_hom
from phl.examples import (
    chain_graft_spec,
    fence_to_crown_certificate,
    zigzag_to_chain_certificate,
)
from phl.gscheme import suggest_distributing, verify_certificate, witness_search
from phl.homs import (
    KINDS,
    brute_force_count,
    count_maps,
    enumerate_maps,
    gamma_class_count,
    quotient,
)
from phl.lovasz import factor_matrices, verify_factorization
from phl.poset import catalog, direct_sum, is_connected
from phl.randgen import (
    random_connected_poset,
    random_construction_spec,
    random_poset,
)

SIX_CLASS_NAMES = ("A1", "C2", "V3", "Lambda3", "N", "C3")
SIX_CLASS_SRO = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 2),
    (0, 1, 0, 1, 0, 2),
    (0, 1, 1, 1, 1, 5),
    (0, 0, 0, 0, 0, 1),
)
SIX_CLASS_EMB = ((4, 4), (3, 3), (2, 0), (2, 0), (1, 0), (0, 1))
SIX_CLASS_STRICT = ((4, 4), (3, 3), (5, 5), (5, 5), (8, 8), (0, 1))

SEVEN_CLASS_NAMES = ("A1", "C2", "V3", "Lambda3", "N", "W", "N2")
SEVEN_CLASS_SRO = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0, 0),
    (0, 1, 1, 1, 1, 0, 1),
    (0, 1, 3, 1, 2, 1, 3),
    (0, 1, 1, 1, 0, 0, 1),
)
SEVEN_CLASS_EMB = ((5, 5), (4, 4), (4, 4), (2, 4), (2, 0), (2, 0), (0, 4))
SEVEN_CLASS_STRICT = (
    (5, 5),
    (4, 4),
    (8, 8),
    (6, 8),
    (12, 16),
    (24, 32),
    (10, 16),
)


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def run_criterion(announce, num, label, body, limit=None):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {limit:g}s ceiling")
    except BaseException as exc:
        announce(f"criterion {num:02d}: FAIL {label}: {exc}")
        raise
    clock = f"{elapsed:.2f}s < {limit:g}s" if limit is not None else f"{elapsed:.2f}s"
    announce(f"criterion {num:02d}: PASS {label} [{clock}]")


def named_catalog(names):
    out = []
    for name in names:
        if name in ("N", "W", "N2"):
            out.append(catalog(name))
        elif name.startswith("Lambda"):
            out.append(catalog("Lambda", int(name[-1])))
        else:
            out.append(catalog(name[0], int(name[1:])))
    return tuple(out)


def catalog_zoo():
    zoo = [catalog("A", k) for k in (1, 2, 3, 4)]
    zoo += [catalog("C", k) for k in (1, 2, 3, 4)]
    zoo += [catalog("V", 3), catalog("V", 4), catalog("Lambda", 3), catalog("Lambda", 4)]
    zoo += [catalog("N"), catalog("W"), catalog("N2")]
    return zoo


def test_criterion_01_six_class_count_matrices(announce):
    def body():
        universe = named_catalog(SIX_CLASS_NAMES)
        targets = (catalog("N"), direct_sum(catalog("A", 1), catalog("C", 3)))
        mats = factor_matrices(universe, targets)
        assert mats.sro.row_names == SIX_CLASS_NAMES
        assert mats.sro.cells == SIX_CLASS_SRO
        assert mats.emb.cells == SIX_CLASS_EMB
        assert mats.strict.cells == SIX_CLASS_STRICT

    run_criterion(announce, 1, "six-class count matrices exact", body, limit=5.0)


def test_criterion_02_seven_class_count_matrices(announce):
    def body():
        universe = named_catalog(SEVEN_CLASS_NAMES)
        targets = (catalog("W"), direct_sum(catalog("A", 1), catalog("N2")))
        mats = factor_matrices(universe, targets)
        assert mats.sro.row_names == SEVEN_CLASS_NAMES
        assert mats.sro.cells == SEVEN_CLASS_SRO
        assert mats.emb.cells == SEVEN_CLASS_EMB
        assert mats.strict.cells == SEVEN_CLASS_STRICT

    run_criterion(announce, 2, "seven-class count matrices exact", body, limit=10.0)


def test_criterion_03_zigzag_chain_certificate(announce):
    def body():
        cert = zigzag_to_chain_certificate()
        chain_dist = cert.distributors[-1]
        assert is_isomorphic(chain_dist.target, catalog("C", 3))
        doms = [tau.dom for tau in chain_dist.sources]
        assert [is_isomorphic(d, e) for d, e in zip(doms, named_catalog(("V3", "Lambda3", "N")))] == [True] * 3
        report = verify_certificate(cert, 6)
        assert report.certified
        assert report.bound == 6
        by_target = {ineq.target_name: ineq for ineq in report.inequalities}
        chain_ineq = by_target["C3"]
        assert chain_ineq.lhs == Fraction(1) and chain_ineq.rhs == Fraction(1)
        assert all(value == Fraction(1) for _, value in chain_ineq.terms)
        for ineq in report.inequalities:
            assert isinstance(ineq.lhs, Fraction) and ineq.lhs <= ineq.rhs

    run_criterion(announce, 3, "zigzag-below-point-plus-chain certificate", body)


def test_criterion_04_fence_crown_certificate(announce):
    def body():
        cert = fence_to_crown_certificate()
        crown = catalog("N2")
        crown_dist = cert.distributors[-1]
        assert is_isomorphic(crown_dist.target, crown)
        zigzag_sources = [
            tau for tau in crown_dist.sources if is_isomorphic(tau.dom, catalog("N"))
        ]
        assert len(zigzag_sources) == 2
        report = verify_certificate(cert, 6)
        assert report.certified
        by_target = {ineq.target_name: ineq for ineq in report.inequalities}
        crown_ineq = by_target["N2"]
        assert crown_ineq.lhs == Fraction(1) and crown_ineq.rhs == Fraction(1)
        assert ("N", Fraction(1)) in crown_ineq.terms
        # the experimental scan rediscovers every member of the family
        for tau in crown_dist.sources:
            proved = {m.map for m in suggest_distributing(tau.dom, crown)}
            assert tau.map in proved

    run_criterion(announce, 4, "fence-below-point-plus-crown certificate", body)


def test_criterion_05_counts_match_oracle(announce):
    def body():
        classes = list(enumerate_posets(4))
        assert len(classes) == 24
        checks = 0
        for p in classes:
            for q in classes:
                for kind in KINDS:
                    cod = p if kind == "aut" else q
                    assert count_maps(kind, p, cod) == brute_force_count(kind, p, cod)
                    checks += 1
        assert checks == 24 * 24 * len(KINDS)

    run_criterion(announce, 5, "counts equal the brute-force oracle (size <= 4, 5 kinds)", body, limit=120.0)


def test_criterion_06_factorization_identity(announce):
    def body():
        rng = random.Random(6)
        for _ in range(500):
            p = random_connected_poset(rng, rng.randint(1, 5))
            t = random_poset(rng, rng.randint(1, 6))
            verify_factorization(p, t)
        zoo = catalog_zoo()
        for p in zoo:
            if not is_connected(p):
                continue
            for t in zoo:
                verify_factorization(p, t)

    run_criterion(announce, 6, "strict-count factorization identity (500 random + catalog)", body)


def brute_gamma_count(xi, t):
    part = frozenset(quotient(xi).blocks)
    return sum(
        1
        for g in enumerate_maps("hom", xi.dom, t)
        if frozenset(quotient(g).blocks) == part
    )


def test_criterion_07_quotient_gamma_counts(announce):
    def body():
        rng = random.Random(7)
        done = 0
        while done < 200:
            p = random_poset(rng, rng.randint(1, 4))
            q = random_poset(rng, rng.randint(1, 4))
            t = random_poset(rng, rng.randint(1, 3))
            homs = list(enumerate_maps("hom", p, q))
            if not homs:
                continue
            xi = rng.choice(homs)
            assert gamma_class_count(xi, t) == brute_gamma_count(xi, t)
            done += 1

    run_criterion(announce, 7, "quotient route equals brute-force block counting (200 random)", body)


def test_criterion_08_witness_search_complete(announce):
    def body():
        classes = list(enumerate_posets(4))
        pairs = 0
        for i, r in enumerate(classes):
            for s in classes[i + 1:]:
                p, (cr, cs) = witness_search(r, s)
                assert cr != cs
                assert is_connected(p)
                assert p.n <= max(r.n, s.n)
                pairs += 1
        assert pairs == 24 * 23 // 2

    run_criterion(announce, 8, "separating witness found for every non-isomorphic pair (size <= 4)", body)


def test_criterion_09_graft_soundness(announce):
    def body():
        rng = random.Random(9)
        for _ in range(300):
            spec = random_construction_spec(rng, max_p=4, max_q=4)
            report = graft_pipeline(spec, 0)
            for row in report.rows:
                assert row.count_sum <= row.count_graft

        spec = chain_graft_spec()
        result = build_graft(spec)
        assert is_isomorphic(
            result.extended, direct_sum(catalog("A", 1), catalog("C", 3))
        )
        report = graft_pipeline(spec, 4)
        assert report.scan is not None and report.scan.holds
        ev_map = antichain_ev_extension(spec)
        assert (len(ev_map.source), len(ev_map.target)) == (8, 13)
        assert len(set(ev_map.mapping)) == len(ev_map.mapping)
        assert is_strict_ev_hom(ev_map)

    run_criterion(announce, 9, "graft construction sound (300 random specs + chain fixture)", body)


def test_criterion_10_vicinity_system_pins(announce):
    def body():
        c3 = catalog("C", 3)
        assert len(build_ev(c3)) == 12

        n = catalog("N")
        summed = build_ev(direct_sum(n, c3))
        assert len(summed) == len(build_ev(n)) + len(build_ev(c3))
        for i in range(len(summed)):
            for j in range(len(summed)):
                if i != j and summed.lt(i, j):
                    assert (summed.elements[i].anchor < n.n) == (
                        summed.elements[j].anchor < n.n
                    )

        system = build_ev(c3)
        bottom = EVElement(0, 0, 0b010)
        middle = EVElement(1, 0b001, 0b100)
        top = EVElement(2, 0b010, 0)
        assert system.lt(bottom, middle)
        assert system.lt(middle, top)
        assert not system.lt(bottom, top)

    run_criterion(announce, 10, "vicinity-system pins (size 12, sum split, non-transitive triple)", body)
