"""Module boundaries inside the package: no module imports another's private names,
and the amplitude array is read through ``StateVector`` outside ``state.py``."""

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


def test_only_the_reader_and_the_oracle_touch_amplitudes_outside_state():
    # Everything else reads a state through StateVector.support, so a new
    # state form changes that method, not its callers. The reader fills the
    # array it allocates; the gate-free oracle adder stays independent of
    # the engine it cross-checks.
    hits = set()
    for path in SOURCES:
        if path.name == "state.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "amplitudes":
                    hits.add(f"{path.stem}.{where}")
    assert hits == {"statefile.state_from_text", "arithmetic.oracle_add"}


def test_state_reads_its_own_buffer_not_the_property():
    # Reading .amplitudes hands the buffer out and drops the live-prefix bound,
    # so state.py itself reads _amps; only the property's own definition names it.
    path = Path(qshift.__file__).parent / "state.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "amplitudes":
            hits.append(node.lineno)
    assert hits == []
    assert isinstance(qshift.StateVector.__dict__["amplitudes"], property)
