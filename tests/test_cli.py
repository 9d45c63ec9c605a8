import json
import subprocess
import sys

import pytest

from phl.cli import main
from phl.errors import InternalInvariantViolation
from phl.examples import zigzag_to_chain_certificate
from phl.poset import catalog
from phl.serialize import certificate_to_doc, poset_from_doc


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

    table, builds = lovasz.IsoClassTable, []

    def counting_table(posets):
        builds.append(1)
        return table(posets)

    monkeypatch.setattr(lovasz, "IsoClassTable", counting_table)
    lovasz._embeddable_table.cache_clear()
    code, _, _ = run(capsys, "matrix", "--targets", "catalog:N", "catalog:A1+C3")
    lovasz._embeddable_table.cache_clear()
    assert code == 0
    assert len(builds) == 1


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


def test_witness_isomorphic_inputs_exit_2(capsys):
    code, _, err = run(capsys, "witness", "--r", "catalog:C2", "--s", "catalog:C2")
    assert code == 2
    assert "InvalidParameter" in err


def test_construct_sum(capsys, tmp_path):
    spec = {
        "P": {"labels": ["p0", "p1"], "pairs": [["p0", "p1"]]},
        "Q": {"labels": ["q0", "q1"], "pairs": [["q0", "q1"]]},
        "A": ["p1"],
        "B": ["q0"],
        "beta": {"p1": "q0"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
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
