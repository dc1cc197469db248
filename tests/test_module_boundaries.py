"""Module boundaries inside the package: no module imports another's private names."""

import ast
from pathlib import Path

import qshift

SOURCES = sorted(Path(qshift.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_of_another():
    # The runner's steps (the zero checks, the zero-slice gather, the two paths)
    # stay inside state.py, reached only through run_circuit.
    hits = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                hits += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert len(SOURCES) > 1 and hits == []
