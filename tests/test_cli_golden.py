"""CLI output pinned byte for byte.

Each command runs in-process through ``phl.cli.main``; its exit code,
stdout, stderr and (for ``--emit``) the written file must equal the
record in ``cli_golden.json``.  Input files are written to a temporary
directory, which appears as ``{tmp}`` in the arguments and the record.

After a deliberate output change, rewrite the record with

    PYTHONPATH=src python tests/test_cli_golden.py

and say in the change description which commands changed and why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from phl.cli import main
from phl.examples import fence_to_crown_certificate, zigzag_to_chain_certificate
from phl.poset import catalog
from phl.serialize import certificate_to_doc, poset_to_doc

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _spec(a: str) -> dict:
    return {
        "P": poset_to_doc(catalog("C", 3)),
        "Q": poset_to_doc(catalog("C", 2)),
        "A": [a],
        "B": ["0"],
        "beta": {a: "0"},
    }


INPUTS = {
    "zigzag.json": lambda: certificate_to_doc(zigzag_to_chain_certificate()),
    "fence.json": lambda: certificate_to_doc(fence_to_crown_certificate()),
    "spec.json": lambda: _spec("2"),
    "bad_label.json": lambda: _spec("9"),
}

COMMANDS = {
    "count-strict": ["count", "--kind", "strict", "--p", "catalog:N", "--q", "catalog:A1+C3"],
    "count-aut": ["count", "--kind", "aut", "--p", "catalog:A5", "--q", "catalog:A5"],
    "enumerate-jsonl": ["enumerate", "--kind", "hom", "--p", "catalog:N", "--q", "catalog:C2", "--emit", "jsonl"],
    "matrix-pretty": ["matrix", "--targets", "catalog:N", "catalog:A1+C3"],
    "matrix-csv": ["matrix", "--targets", "catalog:W", "catalog:A1+N2", "--format", "csv"],
    "verify-cert-zigzag": ["verify-cert", "--cert", "{tmp}/zigzag.json", "--bound", "6"],
    "verify-cert-fence": ["verify-cert", "--cert", "{tmp}/fence.json", "--bound", "5"],
    "check-gle-w": ["check-gle", "--r", "catalog:W", "--s", "catalog:A1+N2"],
    "check-gle-reverse": ["check-gle", "--r", "catalog:A1+N2", "--s", "catalog:W"],
    "check-gle-too-large": ["check-gle", "--r", "catalog:N", "--s", "catalog:A1+C3", "--bound", "9"],
    "witness-n-n2": ["witness", "--r", "catalog:N", "--s", "catalog:N2"],
    "witness-c3": ["witness", "--r", "catalog:C3", "--s", "catalog:C2+A1"],
    "witness-json-isomorphic": ["--json", "witness", "--r", "catalog:N", "--s", "catalog:N"],
    "construct-sum-emit": ["construct-sum", "--spec", "{tmp}/spec.json", "--emit", "{tmp}/t.json"],
    "construct-sum-bound-0": ["construct-sum", "--spec", "{tmp}/spec.json", "--verify-bound", "0"],
    "construct-sum-unknown-label": ["construct-sum", "--spec", "{tmp}/bad_label.json"],
    "suggest": ["suggest", "--q", "catalog:N", "--qprime", "catalog:C3"],
    "selftest": ["selftest"],
    "selftest-seeded": ["selftest", "--bound", "3", "--seed", "4"],
    "ev-jsonl": ["ev", "--p", "catalog:V3"],
    "ev-dot": ["ev", "--p", "catalog:N", "--format", "dot"],
    "dot": ["dot", "--p", "catalog:W"],
    "catalog": ["catalog", "A1+C3"],
}


def run_command(argv: list[str], tmp: Path) -> dict:
    for name, make in INPUTS.items():
        (tmp / name).write_text(json.dumps(make()))
    emitted = tmp / "t.json"
    emitted.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
        "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
        "emit": emitted.read_text() if emitted.exists() else None,
    }


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_unchanged(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(COMMANDS)
    assert run_command(COMMANDS[name], tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: run_command(argv, Path(tmp)) for name, argv in sorted(COMMANDS.items())}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
