"""Every name a library module imports is used in that module, apart from
the re-exports the benchmark harness patches, and no library module reads
the environment."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hqcg"

# perfbench/run.py wraps these module attributes to bind its
# encoding.encode_rows and qstate.kernel spans, and its (circuit, "map_rows")
# wrapper binds the parallel.map_rows span; the modules never call them.
PATCHED_REEXPORTS = {
    "circuit.py": {"encode_rows", "apply_controlled_matrix", "map_rows"},
    "grad.py": {"encode_rows", "apply_controlled_matrix", "apply_single_matrix"},
}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


# __init__.py imports only to re-export the public API
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == PATCHED_REEXPORTS.get(path.name, set())


ENV_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[str]:
    reads = [f"os.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENV_READS
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    reads += [f"from os import {a.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for a in node.names if a.name in ENV_READS]
    return reads


# a setting the program can measure is measured, so none comes from the environment
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment_variable(path):
    assert _environment_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_environment_read_detector():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('X')\n"
                     "os.getenv('Y')\nos.cpu_count()\n")
    assert sorted(_environment_reads(tree)) == [
        "from os import getenv", "os.environ", "os.getenv"]
