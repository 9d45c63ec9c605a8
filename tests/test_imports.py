"""The lazily loaded package surface and the CLI's per-command imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import phl

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
