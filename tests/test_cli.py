import json
import subprocess
import sys

import pytest

from phl import construction, lovasz
from phl.cli import main
from phl.errors import InternalInvariantViolation
from phl.examples import chain_graft_spec, zigzag_to_chain_certificate
from phl.homs import count_maps
from phl.poset import catalog, direct_sum
from phl.serialize import certificate_to_doc, parse_catalog_ref, poset_from_doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_prints_document(capsys):
    code, out, _ = run(capsys, "catalog", "N")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["a", "b", "c", "d"]
    assert poset_from_doc(doc) == catalog("N")


def test_catalog_bad_ref_exits_3(capsys):
    code, _, err = run(capsys, "catalog", "Z9")
    assert code == 3
    assert "error: MalformedDocument" in err


def test_json_errors_are_structured(capsys):
    code, _, err = run(capsys, "--json", "catalog", "Z9")
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "MalformedDocument"
    assert "Z9" in payload["message"]


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--kind", "strict", "--p", "catalog:N", "--q", "catalog:N")
    assert code == 0
    assert out.strip() == "8"


def test_count_empty_domain_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"labels": [], "pairs": []}')
    code, _, err = run(capsys, "count", "--kind", "hom", "--p", str(path), "--q", "catalog:A1")
    assert code == 2
    assert "EmptyPoset" in err


def test_enumerate_text(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "strict_onto", "--p", "catalog:N", "--q", "catalog:C3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "a>0 b>0 c>1 d>2"


def test_enumerate_jsonl(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--kind", "strict_onto", "--p", "catalog:N", "--q", "catalog:C3",
        "--emit", "jsonl",
    )
    assert code == 0
    maps = [json.loads(line) for line in out.strip().split("\n")]
    assert {"a": "1", "b": "0", "c": "2", "d": "1"} in maps


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "enumerate", "--kind", "bogus", "--p", "catalog:N", "--q", "catalog:N")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "no-such-command")[0] == 1


def test_matrix_csv(capsys):
    code, out, _ = run(
        capsys, "matrix", "--targets", "catalog:N", "catalog:A1+C3", "--format", "csv"
    )
    assert code == 0
    assert "# strict-surjection orbits" in out
    assert "# embeddings" in out
    assert "# strict maps" in out
    assert ",N,A1+C3" in out
    sections = out.split("# strict maps")
    assert "N,8,8" in sections[1]
    assert "C3,0,1" in sections[1]


def test_matrix_builds_the_class_table_once(capsys, monkeypatch):
    from phl import lovasz

    table, builds = lovasz.representatives, []

    def counting_table(codes):
        builds.append(1)
        return table(codes)

    monkeypatch.setattr(lovasz, "representatives", counting_table)
    lovasz._embeddable_table.cache_clear()
    code, _, _ = run(capsys, "matrix", "--targets", "catalog:N", "catalog:A1+C3")
    lovasz._embeddable_table.cache_clear()
    assert code == 0
    assert len(builds) == 1


def test_matrix_on_a_wide_antichain(capsys):
    # one subset per component: 25, where all subsets would be 2^25
    code, out, _ = run(capsys, "matrix", "--targets", "catalog:A25")
    assert code == 0
    assert out.endswith("# strict maps\n    A25\nA1   25\n")


def test_matrix_refuses_a_long_connected_target(capsys):
    # one component with 2^25 subsets: refused before any is scanned
    code, out, err = run(capsys, "matrix", "--targets", "catalog:C25")
    assert code == 2
    assert out == ""
    assert err == "error: SizeOverflow: structure of size 33554432 exceeds ceiling 4096\n"


def test_matrix_pretty_blanks_zeros(capsys):
    code, out, _ = run(capsys, "matrix", "--targets", "catalog:C2")
    assert code == 0
    assert "A1" in out and "C2" in out


def test_verify_cert_certified(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_doc(zigzag_to_chain_certificate())))
    code, out, _ = run(capsys, "verify-cert", "--cert", str(path), "--bound", "4")
    assert code == 0
    assert out.startswith("certified (distributors machine-checked to n=4)")
    assert "inequality at" in out
    assert "independent scan: holds" in out


def test_verify_cert_failure_exits_2(capsys, tmp_path):
    doc = certificate_to_doc(zigzag_to_chain_certificate())
    doc["S"] = "catalog:C3"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-cert", "--cert", str(path), "--bound", "4")
    assert code == 2
    assert out.startswith("failed:")


def test_verify_cert_malformed_exits_3(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text('{"R": "catalog:N"}')
    code, _, err = run(capsys, "verify-cert", "--cert", str(path))
    assert code == 3
    assert "MalformedCertificate" in err


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 200_000], ids=["non-utf8", "deep-nesting"]
)
@pytest.mark.parametrize(
    "argv, error",
    [
        (("count", "--kind", "strict", "--p", "{}", "--q", "catalog:N"), "MalformedDocument"),
        (("verify-cert", "--cert", "{}"), "MalformedCertificate"),
    ],
    ids=["poset", "certificate"],
)
def test_undecodable_json_files_exit_3(capsys, tmp_path, content, argv, error):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *(str(path) if a == "{}" else a for a in argv))
    assert code == 3
    assert out == ""
    assert f"error: {error}: bad JSON in {path}" in err


def test_check_gle_holds(capsys):
    code, out, _ = run(
        capsys, "check-gle", "--r", "catalog:N", "--s", "catalog:A1+C3", "--bound", "4"
    )
    assert code == 0
    assert out.startswith("holds_up_to_bound bound=4 classes=")


def test_check_gle_counterexample(capsys):
    code, out, _ = run(
        capsys, "check-gle", "--r", "catalog:A1+C3", "--s", "catalog:N", "--bound", "4"
    )
    assert code == 2
    assert out.startswith("counterexample size=3 class=C3 counts=(1,0)")


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "--r", "catalog:C2", "--s", "catalog:V3")
    assert code == 0
    first, second = out.strip().split("\n")
    assert first.startswith("witness size=")
    assert poset_from_doc(json.loads(second)).n >= 1


def test_witness_past_the_ceiling_scans_up_to_it(capsys):
    """max(|R|, |S|) = 9 exceeds the enumeration ceiling, but the witness is small."""
    code, out, _ = run(capsys, "witness", "--r", "catalog:C9", "--s", "catalog:C8+A1")
    assert code == 0
    first, second = out.strip().split("\n")
    assert first == "witness size=2 class=C2 counts=(36,28)"
    p = poset_from_doc(json.loads(second))
    r, s = parse_catalog_ref("C9"), parse_catalog_ref("C8+A1")
    assert (count_maps("strict", p, r), count_maps("strict", p, s)) == (36, 28)


def test_witness_isomorphic_inputs_exit_2(capsys):
    code, _, err = run(capsys, "witness", "--r", "catalog:C2", "--s", "catalog:C2")
    assert code == 2
    assert "InvalidParameter" in err


# the document of examples.chain_graft_spec
CHAIN_SPEC = {
    "P": {"labels": ["p0", "p1"], "pairs": [["p0", "p1"]]},
    "Q": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
    "A": ["p1"],
    "B": ["q0"],
    "beta": {"p1": "q0"},
}


def test_construct_sum(capsys, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CHAIN_SPEC))
    out_path = tmp_path / "t.json"
    code, out, _ = run(
        capsys,
        "construct-sum", "--spec", str(spec_path),
        "--emit", str(out_path), "--verify-bound", "4",
    )
    assert code == 0
    assert "T: 3 elements over ['p0', 'q0', 'q1']" in out
    assert "emb A1: sum=4 graft=4" in out
    assert "emb C2: sum=2 graft=3" in out
    assert "scan: holds_up_to_bound bound=4" in out
    assert "extension: 8 -> 13 points, injective strict" in out
    emitted = poset_from_doc(json.loads(out_path.read_text()))
    assert emitted.labels == ("p0", "q0", "q1")
    assert emitted.leq_labels("p0", "q1")


def test_construct_sum_invalid_spec_exits_2(capsys, tmp_path):
    spec = {
        "P": {"labels": ["p0", "p1", "p2"], "pairs": [["p0", "p1"], ["p1", "p2"]]},
        "Q": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
        "A": ["p0", "p2"],
        "B": ["q0", "q1"],
        "beta": {"p0": "q0", "p2": "q1"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "construct-sum", "--spec", str(spec_path))
    assert code == 2
    assert "NotConvex" in err


def test_ev_jsonl(capsys):
    code, out, _ = run(capsys, "ev", "--p", "catalog:C2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert all("anchor" in json.loads(line) for line in lines)


def test_ev_dot(capsys):
    code, out, _ = run(capsys, "ev", "--p", "catalog:C2", "--format", "dot")
    assert code == 0
    assert out.startswith('digraph "ev" {')
    assert out.endswith("}\n")


def test_ev_dot_refuses_too_many_edges(capsys):
    # C10 has 5,120 vicinity points, under the point ceiling, but
    # 2,949,120 <+ pairs, one DOT line each
    code, out, err = run(capsys, "ev", "--p", "catalog:C10", "--format", "dot")
    assert code == 2
    assert out == ""
    assert err == "error: SizeOverflow: structure of size 2949120 exceeds ceiling 1048576\n"


def test_dot(capsys):
    code, out, _ = run(capsys, "dot", "--p", "catalog:C3")
    assert code == 0
    assert out.startswith('digraph "poset" {')
    assert '"1" -> "2";' in out


def test_suggest(capsys):
    code, out, err = run(capsys, "suggest", "--q", "catalog:N", "--qprime", "catalog:C3")
    assert code == 0
    maps = [json.loads(line) for line in out.strip().split("\n")]
    assert maps == [{"a": "1", "b": "0", "c": "2", "d": "1"}]
    assert "# 1 proved distributing" in err


def test_suggest_prints_maps_in_value_order(capsys):
    code, out, err = run(capsys, "suggest", "--q", "catalog:W", "--qprime", "catalog:N2")
    assert code == 0
    w, crown = catalog("W"), catalog("N2")
    expected = [
        {a: crown.labels[v] for a, v in zip(w.labels, values)}
        for values in [(0, 1, 2, 3, 2), (0, 1, 3, 2, 3), (1, 0, 2, 3, 2), (1, 0, 3, 2, 3)]
    ]
    assert out.splitlines() == [json.dumps(m, separators=(",", ":")) for m in expected]
    assert "# 4 proved distributing" in err


def test_selftest_all_ok(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all(line.startswith("ok ") for line in lines)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "phl.cli", "count", "--kind", "aut", "--p", "catalog:N2", "--q", "catalog:N2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"


@pytest.mark.parametrize(
    "target, argv",
    [
        ("phl.homs.count_maps", ["count", "--kind", "strict", "--p", "catalog:N", "--q", "catalog:N"]),
        ("phl.gscheme.verify_certificate", ["--json", "selftest"]),
        ("phl.lovasz.verify_factorization", ["selftest"]),
    ],
)
def test_internal_invariant_violation_exits_4(capsys, monkeypatch, target, argv):
    def broken(*args, **kwargs):
        raise InternalInvariantViolation("broken on purpose")

    monkeypatch.setattr(target, broken)
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert "InternalInvariantViolation" in err
    assert "broken on purpose" in err
    assert "bug in phl" in err


def test_orbit_count_with_a_remainder_is_a_bug(capsys, monkeypatch):
    # Aut(Q) acts freely on the strict surjections onto Q, so only a wrong
    # count (here one automorphism too many) leaves a remainder
    real = lovasz.count_maps
    monkeypatch.setattr(
        lovasz, "count_maps", lambda kind, p, q: real(kind, p, q) + (1 if kind == "aut" else 0)
    )
    with pytest.raises(InternalInvariantViolation, match="not divisible"):
        lovasz.count_strict_onto_orbits(catalog("A", 1), catalog("A", 1))
    code, _, err = run(capsys, "matrix", "--targets", "catalog:N")
    assert code == 4
    assert "not divisible" in err and "bug in phl" in err


def test_failed_graft_obligation_is_a_bug(capsys, monkeypatch, tmp_path):
    # every class embeds into the graft at least as often as into the sum,
    # so only a wrong count (here one embedding too many into the sum) fails
    spec = chain_graft_spec()
    summed = direct_sum(spec.p, spec.q)
    real = construction.count_maps
    monkeypatch.setattr(
        construction, "count_maps", lambda kind, p, q: real(kind, p, q) + (1 if q == summed else 0)
    )
    with pytest.raises(InternalInvariantViolation, match="into the graft"):
        construction.graft_pipeline(spec, 0)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(CHAIN_SPEC))
    code, out, err = run(capsys, "construct-sum", "--spec", str(spec_path))
    assert code == 4
    assert out == ""
    assert "class A1 embeds 5 times into the sum but 4 into the graft" in err and "bug in phl" in err


@pytest.mark.parametrize("ref", ["catalog:A12", "catalog:V12", "catalog:Lambda12"])
def test_witness_on_wide_symmetric_inputs_exits_2(capsys, ref):
    # an unpruned canonical search codes all 11! or 12! orderings of these
    expected = (2, "", "error: InvalidParameter: witness search requires non-isomorphic posets\n")
    assert run(capsys, "witness", "--r", ref, "--s", ref) == expected
    assert run(capsys, "witness", "--r", ref, "--s", ref) == expected
