import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phl._bits import bits
from phl.canonical import is_isomorphic
from phl.construction import (
    ConstructionSpec,
    antichain_ev_extension,
    build_graft,
    graft_pipeline,
)
from phl.errors import (
    CarriersNotDisjoint,
    EmptyPoset,
    IndexOutOfRange,
    InvalidParameter,
    NotAntichain,
    NotConvex,
    NotIsomorphism,
)
from phl.evsystem import build_ev, is_strict_ev_hom
from phl.examples import chain_graft_spec
from phl.homs import count_maps
from phl.poset import Poset, catalog, direct_sum, induced
from phl.randgen import random_construction_spec


def two_chain(prefix):
    return Poset((prefix + "0", prefix + "1"), (0b11, 0b10))


def test_from_labels_namespaces_collisions():
    p = catalog("C", 2)
    q = catalog("C", 2)
    spec = ConstructionSpec.from_labels(p, q, ["1"], ["0"], {"1": "0"})
    assert spec.p.labels == ("0/0", "1/0")
    assert spec.q.labels == ("0/1", "1/1")
    assert spec.a == frozenset({1})
    assert spec.b == frozenset({0})
    assert spec.beta == ((1, 0),)
    # the namespaced spec builds without complaint
    assert build_graft(spec).t.n == 3


def test_shared_carrier_rejected():
    p = catalog("C", 2)
    spec = ConstructionSpec.from_indices(p, p, [1], [0], {1: 0})
    with pytest.raises(CarriersNotDisjoint):
        build_graft(spec)


def test_index_outside_carrier_rejected():
    spec = ConstructionSpec.from_indices(
        two_chain("p"), two_chain("q"), [5], [0], {5: 0}
    )
    with pytest.raises(IndexOutOfRange):
        build_graft(spec)


def test_beta_keys_of_mixed_types_rejected():
    # the keys cannot be sorted, so the spec keeps them as given and the
    # index rule names the key that is not an integer
    spec = ConstructionSpec.from_indices(
        two_chain("p"), two_chain("q"), [0, 1], [0, 1], {0: 0, "x": 1}
    )
    with pytest.raises(InvalidParameter, match="beta key must be an integer, got 'x'"):
        build_graft(spec)


def test_non_convex_gluing_set_rejected(c3):
    q = Poset(("q0", "q1", "q2"), (0b111, 0b010, 0b110))
    spec = ConstructionSpec.from_indices(c3, q, [0, 2], [0, 2], {0: 0, 2: 2})
    with pytest.raises(NotConvex) as exc:
        build_graft(spec)
    assert exc.value.which == "A"
    assert exc.value.witness == ("0", "1", "2")


def test_beta_must_be_bijection():
    spec = ConstructionSpec.from_indices(
        two_chain("p"), two_chain("q"), [0, 1], [0, 1], {0: 0, 1: 0}
    )
    with pytest.raises(NotIsomorphism):
        build_graft(spec)


def test_beta_must_preserve_order():
    p = two_chain("p")
    q = Poset(("q0", "q1"), (0b01, 0b10))  # two incomparable points
    spec = ConstructionSpec.from_indices(p, q, [0, 1], [0, 1], {0: 0, 1: 1})
    with pytest.raises(NotIsomorphism):
        build_graft(spec)


def test_chain_graft_shape():
    result = build_graft(chain_graft_spec())
    t = result.t
    assert t.labels == ("p0", "q0", "q1")
    covers = {(t.labels[i], t.labels[j]) for i, j in t.cover_pairs()}
    assert covers == {("p0", "q0"), ("q0", "q1")}
    assert result.a_prime.labels == ("p1",)
    assert result.extended.n == 4
    assert is_isomorphic(result.extended, direct_sum(catalog("A", 1), catalog("C", 3)))


def test_chain_graft_parts():
    parts = build_graft(chain_graft_spec()).parts
    assert parts.within_w == (("p0", "p0"),)
    assert ("q0", "q1") in parts.within_y
    assert parts.down == ()
    assert set(parts.up) == {("p0", "q0"), ("p0", "q1")}
    # the four families never repeat a pair
    everything = parts.within_w + parts.within_y + parts.down + parts.up
    assert len(set(everything)) == len(everything)


def graft_by_definition(spec):
    """T's labels and four pair families, straight from the element-wise rules."""
    p, q, beta = spec.p, spec.q, dict(spec.beta)
    w = [i for i in range(p.n) if i not in spec.a]
    within_w = [(p.labels[x], p.labels[x2]) for x in w for x2 in w if p.leq(x, x2)]
    within_y = [
        (q.labels[j], q.labels[j2]) for j in range(q.n) for j2 in range(q.n) if q.leq(j, j2)
    ]
    down, up = [], []
    for j in range(q.n):
        for x in w:
            if any(p.leq(a, x) and q.leq(j, beta[a]) for a in spec.a):
                down.append((q.labels[j], p.labels[x]))
            if any(p.leq(x, a) and q.leq(beta[a], j) for a in spec.a):
                up.append((p.labels[x], q.labels[j]))
    labels = tuple(p.labels[x] for x in w) + q.labels
    return labels, (tuple(within_w), tuple(within_y), tuple(down), tuple(up))


def test_graft_matches_its_definition():
    rng = random.Random(20261019)
    specs = [chain_graft_spec()] + [random_construction_spec(rng) for _ in range(300)]
    for spec in specs:
        result = build_graft(spec)
        labels, families = graft_by_definition(spec)
        parts = result.parts
        assert (parts.within_w, parts.within_y, parts.down, parts.up) == families
        relation = set().union(*families)
        t = result.t
        assert t.labels == labels
        for i in range(t.n):
            assert t.up_mask(i) == sum(
                1 << j for j in range(t.n) if (labels[i], labels[j]) in relation
            )


def test_psi_embeds_p_over_the_gluing_map():
    result = build_graft(chain_graft_spec())
    psi = result.psi
    assert psi.is_embedding
    assert psi("p0") == "p0"
    assert psi("p1") == "q0"


def test_graft_restricts_to_both_inputs():
    spec = chain_graft_spec()
    result = build_graft(spec)
    y = range(result.t.n - spec.q.n, result.t.n)
    assert induced(result.t, y) == spec.q


def test_empty_gluing_set_gives_the_plain_sum():
    p, q = two_chain("p"), two_chain("q")
    spec = ConstructionSpec.from_indices(p, q, [], [], {})
    result = build_graft(spec)
    assert is_isomorphic(result.t, direct_sum(p, q))
    assert result.a_prime.n == 0


def test_pipeline_counts_and_scan():
    report = graft_pipeline(chain_graft_spec(), 4)
    assert report.result == build_graft(chain_graft_spec())
    by_name = {row.name: (row.count_sum, row.count_graft) for row in report.rows}
    assert by_name == {"A1": (4, 4), "C2": (2, 3)}
    assert report.scan is not None and report.scan.holds


def test_pipeline_scan_skippable():
    report = graft_pipeline(chain_graft_spec(), 0)
    assert report.rows == graft_pipeline(chain_graft_spec(), 4).rows
    assert report.scan is None


def test_antichain_extension_on_chain_graft():
    ev_map = antichain_ev_extension(chain_graft_spec())
    assert (len(ev_map.source), len(ev_map.target)) == (8, 13)
    assert len(set(ev_map.mapping)) == len(ev_map.mapping)
    assert is_strict_ev_hom(ev_map)


def antichain_specs():
    yield chain_graft_spec()
    rng = random.Random(20261018)
    found = 0
    while found < 12:
        spec = random_construction_spec(rng, max_p=4, max_q=3)
        if spec.a and spec.p.is_antichain(spec.a):
            found += 1
            yield spec


def test_antichain_extension_fixes_q_and_bare_a_points():
    for spec in antichain_specs():
        ev_map = antichain_ev_extension(spec)
        summed = direct_sum(spec.p, spec.q)
        result = build_graft(spec)
        extended, psi = result.extended, result.psi.map
        source = build_ev(summed)
        target = build_ev(extended)
        for pos, e in enumerate(source.elements):
            img = target.elements[ev_map.mapping[pos]]
            if e.anchor >= spec.p.n:
                # points anchored in Q keep their rendering verbatim
                assert img.render(extended) == e.render(summed)
            elif e.anchor in spec.a and e.down == 0 and e.up == 0:
                assert extended.labels[img.anchor] == summed.labels[e.anchor]
                assert img.down == 0 and img.up == 0
            else:
                # every other point of P moves along psi
                assert img.anchor == psi[e.anchor]
                assert set(bits(img.down)) == {psi[i] for i in bits(e.down)}
                assert set(bits(img.up)) == {psi[i] for i in bits(e.up)}


def test_antichain_extension_needs_a_nonempty_gluing_set():
    spec = ConstructionSpec.from_indices(two_chain("p"), two_chain("q"), [], [], {})
    with pytest.raises(EmptyPoset):
        antichain_ev_extension(spec)


def test_antichain_extension_rejects_chains():
    spec = ConstructionSpec.from_indices(
        two_chain("p"), two_chain("q"), [0, 1], [0, 1], {0: 0, 1: 1}
    )
    with pytest.raises(NotAntichain):
        antichain_ev_extension(spec)


def test_point_onto_point_graft(v3):
    # glue a single maximal point of V3 onto the bottom of a 2-chain
    spec = ConstructionSpec.from_labels(
        v3, two_chain("q"), ["t1"], ["q0"], {"t1": "q0"}
    )
    result = build_graft(spec)
    assert result.t.n == 4
    report = graft_pipeline(spec, 0)
    summed = direct_sum(spec.p, spec.q)
    for row in report.rows:
        assert row.count_sum <= row.count_graft
    assert count_maps("emb", spec.p, result.extended) >= 1
    ev_map = antichain_ev_extension(spec)
    assert ev_map.source == build_ev(summed)
    assert ev_map.target == build_ev(result.extended)


def test_random_specs_build_and_compare():
    rng = random.Random(20260819)
    for _ in range(40):
        spec = random_construction_spec(rng, max_p=4, max_q=3)
        report = graft_pipeline(spec, 0)
        for row in report.rows:
            assert row.count_sum <= row.count_graft
        if spec.a and spec.p.is_antichain(spec.a):
            ev_map = antichain_ev_extension(spec)
            assert len(set(ev_map.mapping)) == len(ev_map.mapping)
            assert is_strict_ev_hom(ev_map)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_random_specs_validate_and_embed(seed):
    spec = random_construction_spec(random.Random(seed), max_p=4, max_q=3)
    result = build_graft(spec)
    assert result.psi.is_embedding
    assert result.extended.n == result.a_prime.n + result.t.n
