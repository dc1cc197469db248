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


def _string_owners(path: Path, fragment: str) -> set[str]:
    """Qualified names of the functions (or ``<module>``) whose string literals contain ``fragment``."""
    owners = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str) and fragment in child.value:
                owners.add(where)
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return owners


def test_the_register_rule_is_written_only_in_errors():
    # Every entry point that takes a register of wires checks it through
    # errors.register_wires, so its messages are written there alone. The one
    # other copy is Gate.__post_init__'s iterable check: it runs for every gate
    # a circuit build makes, and the benchmark's tracer patches that method.
    for fragment in ("are not an iterable of", "is off the state's"):
        owners = {f"{path.stem}.{owner}" for path in SOURCES for owner in _string_owners(path, fragment)}
        allowed = {"gates.Gate.__post_init__"} if fragment == "are not an iterable of" else set()
        assert {o for o in owners if not o.startswith("errors.")} == allowed
        assert any(o.startswith("errors.") for o in owners)
