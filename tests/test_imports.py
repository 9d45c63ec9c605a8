"""The lazily loaded package surface and the CLI's per-command imports."""

import ast
import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import phl
from phl.examples import zigzag_to_chain_certificate
from phl.serialize import certificate_to_doc

# Modules that `phl count` never calls into.
NOT_FOR_COUNT = (
    "phl.canonical",
    "phl.construction",
    "phl.evsystem",
    "phl.examples",
    "phl.gscheme",
    "phl.lovasz",
)


def python(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_count_loads_only_the_modules_it_calls():
    count, loaded = python(
        "import sys, phl.cli\n"
        "phl.cli.main(['count', '--kind', 'strict', '--p', 'catalog:N', '--q', 'catalog:N'])\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    assert count == "8"
    loaded = set(loaded.split())
    assert "phl.homs" in loaded
    assert not loaded & set(NOT_FOR_COUNT)


def test_submodule_resolves_after_plain_import():
    assert python(
        "import sys, phl\n"
        "print('phl.homs' in sys.modules)\n"
        "print(phl.homs.__name__, phl.count_maps is phl.homs.count_maps)\n"
    ) == ["False", "phl.homs True"]


def test_every_export_resolves():
    for name in phl.__all__:
        assert getattr(phl, name).__name__ == name
    assert set(phl.__all__) <= set(dir(phl))


def test_exports_are_pinned():
    # a name enters or leaves the package surface only by editing this list
    assert phl.__all__ == [
        "BoundTooLarge", "CarriersNotDisjoint", "ConstructionSpec", "DistributorSpec",
        "DomainMismatch", "DuplicateLabel", "EVElement", "EVMap", "EVSystem",
        "EmptyPoset", "GraftResult", "HomMap", "IndexOutOfRange",
        "InternalInvariantViolation", "InvalidParameter", "MalformedCertificate",
        "MalformedDocument", "NotADistributor", "NotAPartialOrder",
        "NotAntichain", "NotConvex", "NotIsomorphism", "NotStrict", "NotStrictOnto",
        "OracleTooLarge", "PhlError", "Poset", "PreconditionFailed", "SizeOverflow",
        "TransportCertificate", "UniverseMismatch", "UnknownElement", "UnknownLabel",
        "antichain_ev_extension", "bounded_gle_check", "brute_force_count", "build_ev",
        "build_graft", "canonical_form", "canonicalize", "certificate_from_doc",
        "certificate_to_doc", "check_distributing", "check_distributor",
        "check_ev_scheme", "count_maps", "count_strict_onto_orbits",
        "embeddable_connected", "enumerate_connected", "enumerate_maps",
        "enumerate_posets", "ev_at", "ev_profile", "ev_size", "factor_matrices",
        "gamma_class_count", "graft_pipeline", "image_class_count", "is_isomorphic",
        "is_strict_ev_hom", "map_tuples", "parse_catalog_ref", "pointwise_leq",
        "poset_from_doc", "poset_to_doc", "quotient", "suggest_distributing",
        "verify_certificate", "verify_factorization", "witness_search",
    ]


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from phl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(phl.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        phl.no_such_name


def private_imports_from(module: str) -> list[str]:
    """Underscore names other phl modules import from phl.<module>."""
    src = Path(phl.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, module), (0, f"phl.{module}"),
            ):
                offenders += [
                    f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")
                ]
    return offenders


def test_only_homs_uses_its_private_names():
    assert private_imports_from("homs") == []


def test_only_canonical_uses_its_private_names():
    assert private_imports_from("canonical") == []


def test_no_module_imports_dataclasses():
    src = Path(phl.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "dataclasses"]
    assert offenders == []


def imported(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run python -X importtime with args; the names of the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, names


@cache
def interpreter_floor() -> frozenset[str]:
    """Modules a bare interpreter imports, site hooks included."""
    return frozenset(imported("-c", "pass")[1])


@pytest.fixture(scope="module")
def cert_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "zigzag.json"
    path.write_text(json.dumps(certificate_to_doc(zigzag_to_chain_certificate())))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--kind", "strict", "--p", "catalog:N", "--q", "catalog:N"),
        ("check-gle", "--r", "catalog:N", "--s", "catalog:A1+C3", "--bound", "4"),
        ("witness", "--r", "catalog:C3", "--s", "catalog:N"),
        ("verify-cert", "--cert", None, "--bound", "4"),
        ("matrix", "--targets", "catalog:N", "catalog:A1+C3"),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_commands_stay_off_dataclasses_and_inspect(argv, cert_file):
    argv = tuple(cert_file if a is None else a for a in argv)
    proc, names = imported("-m", "phl.cli", *argv)
    assert proc.returncode == 0 and proc.stdout, proc.stderr[-2000:]
    loaded = names - interpreter_floor()
    assert {"phl.poset", "phl._record"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
    # only the certificate check does exact rational arithmetic
    assert ("fractions" in loaded) is (argv[0] == "verify-cert")
