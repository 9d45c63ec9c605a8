import copy
import json

import pytest
from conftest import catalog_zoo
from hypothesis import given, settings
from hypothesis import strategies as st

from phl.canonical import is_isomorphic
from phl.errors import MalformedCertificate, MalformedDocument
from phl.evsystem import build_ev
from phl.examples import (
    chain_graft_spec,
    fence_to_crown_certificate,
    zigzag_to_chain_certificate,
)
from phl.gscheme import verify_certificate
from phl.poset import catalog, direct_sum
from phl.serialize import (
    certificate_from_doc,
    certificate_to_doc,
    construction_spec_from_doc,
    ev_to_dot,
    ev_to_jsonl,
    load_certificate,
    load_construction_spec,
    load_poset_arg,
    parse_catalog_ref,
    poset_from_doc,
    poset_from_value,
    poset_to_doc,
    poset_to_dot,
)


def test_poset_doc_round_trip():
    for p in catalog_zoo():
        doc = poset_to_doc(p)
        assert doc["mode"] == "covers"
        assert poset_from_doc(doc) == p


def test_poset_doc_full_mode():
    doc = {
        "labels": ["a", "b"],
        "pairs": [["a", "a"], ["a", "b"], ["b", "b"]],
        "mode": "full",
    }
    p = poset_from_doc(doc)
    assert p.n == 2 and p.leq_labels("a", "b")


def test_poset_doc_defaults_to_covers():
    doc = {"labels": ["a", "b", "c"], "pairs": [["a", "b"], ["b", "c"]]}
    p = poset_from_doc(doc)
    assert p.leq_labels("a", "c")


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"labels": ["a"], "pairs": [], "mode": "covers", "size": 1},
        {"labels": "ab", "pairs": []},
        {"labels": ["a", 2], "pairs": []},
        {"labels": ["a"], "pairs": "x"},
        {"labels": ["a", "b"], "pairs": [["a", "b", "c"]]},
        {"labels": ["a", "b"], "pairs": [["a", 1]]},
        {"labels": ["a"], "pairs": [], "mode": "strict"},
        {"labels": ["a", "b"], "pairs": [["a", "b"], ["b", "a"]]},
        {"labels": ["a", "a"], "pairs": []},
        {"labels": ["a"], "pairs": [["a", "z"]]},
    ],
)
def test_poset_doc_rejects_malformed(doc):
    with pytest.raises(MalformedDocument):
        poset_from_doc(doc)


def test_catalog_refs_resolve():
    assert parse_catalog_ref("C3") == catalog("C", 3)
    assert parse_catalog_ref("N") == catalog("N")
    assert parse_catalog_ref("Lambda4") == catalog("Lambda", 4)
    assert parse_catalog_ref("A1+C3") == direct_sum(catalog("A", 1), catalog("C", 3))
    assert parse_catalog_ref(" A1 + N2 ") == direct_sum(catalog("A", 1), catalog("N2"))


@pytest.mark.parametrize("text", ["", "B2", "N3", "W1", "C", "Lambda", "C0", "A1++C2"])
def test_catalog_refs_reject_bad_tokens(text):
    with pytest.raises(MalformedDocument):
        parse_catalog_ref(text)


def test_poset_from_value_dispatch():
    assert poset_from_value("catalog:V3") == catalog("V", 3)
    assert poset_from_value({"labels": ["a"], "pairs": []}).n == 1
    with pytest.raises(MalformedDocument):
        poset_from_value("V3")


def test_load_poset_arg(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poset_to_doc(catalog("N"))))
    assert load_poset_arg(str(path)) == catalog("N")
    assert load_poset_arg("file:" + str(path)) == catalog("N")
    assert load_poset_arg("catalog:W") == catalog("W")
    with pytest.raises(MalformedDocument):
        load_poset_arg(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(MalformedDocument):
        load_poset_arg(str(bad))


def test_poset_dot_output(c3):
    dot = poset_to_dot(c3, "chain")
    assert dot.startswith('digraph "chain" {')
    assert "rankdir=BT;" in dot
    assert '"0" -> "1";' in dot and '"1" -> "2";' in dot
    assert '"0" -> "2";' not in dot  # covers only
    assert dot.count("rank=same") == 3
    assert dot.endswith("}\n")


def test_dot_quotes_hostile_labels():
    from phl.poset import Poset

    p = Poset(('a"b', "c\\d"), (0b11, 0b10))
    dot = poset_to_dot(p)
    assert '"a\\"b"' in dot
    assert '"c\\\\d"' in dot


def test_ev_jsonl_lines(c2):
    text = ev_to_jsonl(build_ev(c2))
    lines = text.strip().split("\n")
    assert len(lines) == 4
    parsed = [json.loads(line) for line in lines]
    assert {(p["anchor"], tuple(p["down"]), tuple(p["up"])) for p in parsed} == {
        ("0", (), ()),
        ("0", (), ("1",)),
        ("1", (), ()),
        ("1", ("0",), ()),
    }


def test_ev_dot_output(c2):
    system = build_ev(c2)
    dot = ev_to_dot(system)
    assert 'subgraph "cluster_0"' in dot and 'subgraph "cluster_1"' in dot
    lt_pairs = sum(
        system.lt(i, j)
        for i in range(len(system))
        for j in range(len(system))
    )
    assert dot.count(" -> ") == lt_pairs


def test_certificate_round_trip():
    cert = zigzag_to_chain_certificate()
    doc = certificate_to_doc(cert)
    assert certificate_from_doc(doc) == cert
    assert verify_certificate(certificate_from_doc(doc), 4).certified


def test_certificate_q_defaults_to_embeddable_classes():
    doc = certificate_to_doc(zigzag_to_chain_certificate())
    del doc["q"]
    cert = certificate_from_doc(doc)
    assert [p.n for p in cert.q_classes] == [1, 2, 3, 3, 4]
    assert verify_certificate(cert, 4).certified


def test_certificate_distributor_target_defaults_to_qprime():
    doc = certificate_to_doc(zigzag_to_chain_certificate())
    for dd in doc["distributors"]:
        del dd["target"]
    cert = certificate_from_doc(doc)
    assert verify_certificate(cert, 4).certified


def _cert_doc(**overrides):
    doc = certificate_to_doc(zigzag_to_chain_certificate())
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("R"),
        lambda d: d.update(extra=1),
        lambda d: d.update(q="C2"),
        lambda d: d.update(nu=[1, 1, True]),
        lambda d: d.update(nu="three"),
        lambda d: d.update(**{"lambda": [0, 1, 2]}),
        lambda d: d.update(**{"lambda": [[0], [1], [2, 3, False]]}),
        lambda d: d.update(distributors="none"),
        lambda d: d["distributors"].append({"bogus": 1}),
        lambda d: d["distributors"][0]["sources"].append({"poset": {"labels": ["z"], "pairs": []}}),
        lambda d: d["distributors"][0]["sources"][0].update(tau={"a1": 7}),
        lambda d: d.update(R="catalog:Z9"),
        lambda d: d["distributors"][0].update(sources=0),
        lambda d: d["distributors"][0].update(sources=None),
        lambda d: d["distributors"][0].update(sources=True),
        lambda d: d["distributors"][0].update(sources=1.5),
    ],
)
def test_certificate_rejects_malformed(mutate):
    doc = _cert_doc()
    mutate(doc)
    with pytest.raises(MalformedCertificate):
        certificate_from_doc(doc)


def test_certificate_rejects_non_hom_tau():
    doc = _cert_doc()
    # send the chain's top below its bottom: not order preserving
    doc["distributors"][1]["sources"][0]["tau"] = {"0": "1", "1": "0"}
    with pytest.raises(MalformedCertificate):
        certificate_from_doc(doc)


def test_certificate_extra_distributor_needs_target():
    doc = _cert_doc()
    doc["distributors"].append({"sources": []})
    with pytest.raises(MalformedCertificate):
        certificate_from_doc(doc)


def test_load_certificate(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_doc(zigzag_to_chain_certificate())))
    assert verify_certificate(load_certificate(str(path)), 4).certified
    with pytest.raises(MalformedCertificate):
        load_certificate(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    with pytest.raises(MalformedCertificate):
        load_certificate(str(bad))


def spec_doc():
    return {
        "P": {"labels": ["p0", "p1"], "pairs": [["p0", "p1"]]},
        "Q": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
        "A": ["p1"],
        "B": ["q0"],
        "beta": {"p1": "q0"},
    }


def test_construction_spec_from_doc():
    spec = construction_spec_from_doc(spec_doc())
    assert spec == chain_graft_spec()


def test_construction_spec_accepts_catalog_refs():
    doc = spec_doc()
    doc["P"] = "catalog:C2"
    doc["A"] = ["1"]
    doc["beta"] = {"1": "q0"}
    spec = construction_spec_from_doc(doc)
    assert is_isomorphic(spec.p, catalog("C", 2))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("beta"),
        lambda d: d.update(C=[]),
        lambda d: d.update(A="p1"),
        lambda d: d.update(A=[1]),
        lambda d: d.update(beta=[["p1", "q0"]]),
        lambda d: d.update(A=["p9"]),
    ],
)
def test_construction_spec_rejects_malformed(mutate):
    doc = spec_doc()
    mutate(doc)
    with pytest.raises(MalformedDocument):
        construction_spec_from_doc(doc)


def test_construction_spec_defers_order_checks_to_the_build():
    from phl.construction import build_graft
    from phl.errors import NotConvex

    doc = spec_doc()
    doc["P"] = {"labels": ["p0", "p1", "p2"], "pairs": [["p0", "p1"], ["p1", "p2"]]}
    doc["A"] = ["p0", "p2"]
    doc["B"] = ["q0", "q1"]
    doc["beta"] = {"p0": "q0", "p2": "q1"}
    spec = construction_spec_from_doc(doc)
    with pytest.raises(NotConvex):
        build_graft(spec)


def test_load_construction_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_doc()))
    assert load_construction_spec(str(path)) == chain_graft_spec()
    with pytest.raises(MalformedDocument):
        load_construction_spec(str(tmp_path / "absent.json"))


# Small values only: no catalog size beyond the bundled ones, since a
# certificate without "q" scans every subset of R.
_POOL = (
    0, 1, -1, 1.5, None, True, "", "a", "a1", "0", "catalog:C2", "catalog:A1+C3",
    "catalog:Z", "covers", [], [0], ["a"], [["a", "b"]], [["a1", "a1"]], {},
    {"a": "b"}, {"labels": ["a"], "pairs": []},
)
_DELETE = object()
_DOCS = {
    "certificate": (
        lambda: certificate_to_doc(zigzag_to_chain_certificate()), certificate_from_doc,
    ),
    "fence certificate": (
        lambda: certificate_to_doc(fence_to_crown_certificate()), certificate_from_doc,
    ),
    "construction spec": (spec_doc, construction_spec_from_doc),
    "poset": (lambda: poset_to_doc(catalog("N")), poset_from_doc),
}


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted for _DELETE."""
    if not path:
        return {} if value is _DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _mutated_docs(draw):
    kind = draw(st.sampled_from(sorted(_DOCS)))
    doc = _DOCS[kind][0]()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _mutated(doc, path, draw(st.sampled_from(_POOL + (_DELETE,))))
    return kind, doc


@settings(max_examples=300, deadline=None)
@given(_mutated_docs())
def test_parsers_raise_only_typed_errors_on_mutated_documents(kind_doc):
    kind, doc = kind_doc
    try:
        _DOCS[kind][1](doc)
    except (MalformedDocument, MalformedCertificate):
        pass
