import pytest
from hypothesis import given, settings

from phl._bits import mask_of
from phl.errors import (
    EmptyPoset,
    NotStrict,
    PreconditionFailed,
    SizeOverflow,
    UnknownElement,
)
from phl.evsystem import (
    EVElement,
    EVMap,
    build_ev,
    check_ev_scheme,
    ev_at,
    ev_profile,
    ev_size,
    is_strict_ev_hom,
)
from phl.homs import HomMap, enumerate_maps
from phl.poset import catalog, direct_sum, from_pairs

from conftest import nonempty_posets


def point(system, anchor, down, up):
    e = EVElement(anchor, mask_of(down), mask_of(up))
    assert e in system
    return e


def test_sizes_on_chains(c2, c3):
    assert len(build_ev(c2)) == 4
    assert ev_size(c2) == 4
    assert len(build_ev(c3)) == 12
    assert ev_size(c3) == 12


def test_middle_fiber_of_three_chain(c3):
    system = build_ev(c3)
    assert len(ev_at(system, "1")) == 4
    assert len(ev_at(system, 1)) == 4
    # fibers partition the system
    assert sum(len(ev_at(system, x)) for x in range(3)) == len(system)


def test_bottom_fiber_of_two_chain(c2):
    system = build_ev(c2)
    fiber = ev_at(system, "0")
    assert set(fiber) == {EVElement(0, 0, 0), EVElement(0, 0, 0b10)}


def test_points_are_ordered_and_unique(c3):
    system = build_ev(c3)
    keys = [(e.anchor, e.down, e.up) for e in system.elements]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_sum_decomposes_with_no_cross_relation(c2, c3):
    s = direct_sum(catalog("A", 1), c3)
    system = build_ev(s)
    assert len(system) == ev_size(catalog("A", 1)) + ev_size(c3)
    # no <+ pair crosses the summands: anchor 0 is isolated
    for i, a in enumerate(system.elements):
        for j, b in enumerate(system.elements):
            if system.lt(i, j):
                assert (a.anchor == 0) == (b.anchor == 0)


def test_nontransitivity_witness(c3):
    system = build_ev(c3)
    e0 = point(system, 0, [], [1])
    e1 = point(system, 1, [0], [2])
    e2 = point(system, 2, [1], [])
    assert system.lt(e0, e1)
    assert system.lt(e1, e2)
    assert not system.lt(e0, e2)


def test_relation_is_irreflexive_antisymmetric(c3, n_poset):
    for base in (c3, n_poset):
        system = build_ev(base)
        k = len(system)
        for i in range(k):
            assert not system.lt(i, i)
            for j in range(k):
                if system.lt(i, j):
                    assert not system.lt(j, i)


def test_empty_base_rejected():
    with pytest.raises(EmptyPoset):
        build_ev(from_pairs([], []))


def test_size_ceiling():
    big = catalog("C", 20)
    with pytest.raises(SizeOverflow):
        build_ev(big, ceiling=1000)


def test_unknown_fiber_element(c2):
    system = build_ev(c2)
    with pytest.raises(Exception):
        ev_at(system, "zz")
    with pytest.raises(UnknownElement):
        system.position(EVElement(0, 0b10, 0))


def test_profile_of_identity(c2):
    ident = HomMap(c2, c2, (0, 1))
    prof = ev_profile(ident)
    assert prof[0] == EVElement(0, 0, 0b10)
    assert prof[1] == EVElement(1, 0b01, 0)


def test_profile_requires_strict(c2):
    collapse = HomMap(c2, c2, (0, 0))
    with pytest.raises(NotStrict):
        ev_profile(collapse)


def test_profile_of_distributing_map(n_poset, c3):
    tau = HomMap.from_labels(n_poset, c3, {"a": "1", "b": "0", "c": "2", "d": "1"})
    prof = ev_profile(tau)
    a, d = n_poset.index("a"), n_poset.index("d")
    assert prof[a] == EVElement(1, 0, 0b100)
    assert prof[d] == EVElement(1, 0b001, 0)
    assert prof[a].down & prof[d].down == 0
    assert prof[a].up & prof[d].up == 0


def test_base_embedding_into_system_is_strict(c3):
    system = build_ev(c3)
    full = tuple(
        system.position(EVElement(x, c3.downo_mask(x), c3.upo_mask(x)))
        for x in range(c3.n)
    )
    for x in range(c3.n):
        for y in range(c3.n):
            if c3.lt(x, y):
                assert system.lt(full[x], full[y])


@given(nonempty_posets(max_size=4))
@settings(max_examples=40, deadline=None)
def test_profiles_of_strict_maps_are_strict(p):
    t = catalog("C", 3)
    for xi in enumerate_maps("strict", p, t):
        prof = ev_profile(xi)
        for x in range(p.n):
            for y in range(p.n):
                if p.lt(x, y):
                    a, b = prof[x], prof[y]
                    assert (b.down >> a.anchor) & 1 and (a.up >> b.anchor) & 1


def test_pushforward_identity_roundtrip(c3):
    system = build_ev(c3)
    ident = EVMap.identity(system)
    assert is_strict_ev_hom(ident)
    emb = HomMap(catalog("C", 2), c3, (0, 2))
    pushed = EVMap.pushforward(build_ev(catalog("C", 2)), system, emb)
    assert is_strict_ev_hom(pushed)


def test_collapse_is_not_strict():
    a2 = catalog("A", 2)
    c2 = catalog("C", 2)
    system2 = build_ev(c2)
    # send both points of the chain system fiberwise onto one anchor
    collapse = EVMap(system2, system2, (0, 0, 0, 0))
    assert not is_strict_ev_hom(collapse)
    # on an antichain nothing is <+ related, so any map is vacuously strict
    sys_a = build_ev(a2)
    assert is_strict_ev_hom(EVMap(sys_a, sys_a, (0, 0)))


def test_scheme_identity_passes(c3):
    system = build_ev(c3)
    report = check_ev_scheme(EVMap.identity(system), c3, c3, ["0", "1", "2"], 4)
    assert report.ok
    assert report.posets_checked == 15
    assert report.violations == ()


def test_scheme_embedding_pushforward_passes(c2, c3):
    emb = HomMap(c2, c3, (0, 2))
    eps = EVMap.pushforward(build_ev(c2), build_ev(c3), emb)
    report = check_ev_scheme(eps, c2, c3, ["0", "1"], 4)
    assert report.ok


def test_scheme_reports_fiber_and_injectivity_failures(c2, c3):
    # the point (1;{};{}) of C2 goes to (0;{};{2}) of C3, so both strict
    # maps from the one-element poset are transported to anchor 0
    eps = EVMap(build_ev(c2), build_ev(c3), (0, 1, 2, 6))
    assert is_strict_ev_hom(eps)
    report = check_ev_scheme(eps, c2, c3, ["0", "1"], 3)
    assert not report.ok
    assert (report.posets_checked, report.maps_checked) == (5, 5)
    point = from_pairs(["x0"], [])
    assert {(v.condition, v.poset, v.detail) for v in report.violations} == {
        ("fiber-membership", point,
         "profile point of eta at x0 comes from anchor 0 instead of 1"),
        ("injectivity", point, "2 strict maps transported to 1 images"),
    }


def test_scheme_anchor_collision_rejected():
    a2 = catalog("A", 2)
    system = build_ev(a2)
    collapse = EVMap(system, system, (0, 0))
    with pytest.raises(PreconditionFailed):
        check_ev_scheme(collapse, a2, a2, ["a1", "a2"], 3)


def test_scheme_z_plus_budget(c2):
    system = build_ev(c2)
    ident = EVMap.identity(system)
    with pytest.raises(PreconditionFailed):
        check_ev_scheme(ident, c2, c2, [], 3)
    report = check_ev_scheme(ident, c2, c2, ["0"], 3)
    assert report.ok
