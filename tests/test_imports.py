"""Every name a library module imports is used in that module, apart from
the re-exports the benchmark harness patches."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hqcg"

# perfbench/run.py wraps these module attributes to bind its
# encoding.encode_rows and qstate.kernel spans; the modules never call them.
PATCHED_REEXPORTS = {
    "circuit.py": {"encode_rows", "apply_controlled_matrix"},
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
