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
    # state form changes that method, not its callers; the reader builds its
    # state through StateVector.from_support. The gate-free oracle adder stays
    # independent of the engine it cross-checks.
    hits = set()
    for path in SOURCES:
        if path.name == "state.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "amplitudes":
                    hits.add(f"{path.stem}.{where}")
    assert hits == {"arithmetic.oracle_add"}


def test_state_reads_its_own_buffer_not_the_property():
    # Reading .amplitudes widens the live-prefix bound to the whole buffer, so
    # state.py itself reads _amps; only the property's own definition names it.
    path = Path(qshift.__file__).parent / "state.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "amplitudes":
            hits.append(node.lineno)
    assert hits == []
    assert isinstance(qshift.StateVector.__dict__["amplitudes"], property)


def _literals(path: Path):
    """``(owner, text)`` for each string literal, the owner the qualified name of its function
    (or ``<module>``); an f-string's text is its template, each replacement field written ``{}``."""

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
            elif isinstance(child, ast.JoinedStr):
                yield where, "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in child.values)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                yield where, child.value
            else:
                yield from visit(child, where)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def _string_owners(path: Path, fragment: str) -> set[str]:
    """Qualified names of the functions (or ``<module>``) whose string literals contain ``fragment``."""
    return {owner for owner, text in _literals(path) if fragment in text}


def test_the_register_rule_is_written_only_in_errors():
    # Every entry point that takes a register of wires checks it through
    # errors.register_wires, and Gate.__post_init__ through errors.iterable,
    # so their messages are written there alone.
    for fragment in ("are not an iterable of", "is off the state's"):
        owners = {f"{path.stem}.{owner}" for path in SOURCES for owner in _string_owners(path, fragment)}
        assert {o for o in owners if not o.startswith("errors.")} == set()
        assert any(o.startswith("errors.") for o in owners)


def test_the_width_and_gate_fit_rules_are_written_once():
    # MulQuantumSpec and the constant schedule share one width rule, and
    # apply_gate refuses a gate off the state through Circuit's own rule; the
    # state-file writer and the marginals check a layout against a state by one rule;
    # the reader names a repeated label through one helper of its fault walk; the constructors
    # and the amplitudes setter refuse a non-number dtype by one rule.
    for fragment in (
        "register widths must be at least 1", "exceeds {} wires", "layout and state wire counts differ",
        "duplicate basis label {}", "amplitudes of dtype {} are not numbers",
    ):
        hits = [f"{path.stem}.{owner}" for path in SOURCES for owner, text in _literals(path) if fragment in text]
        assert len(hits) == 1, hits


def test_the_report_renderers_are_written_once():
    # GateCountReport and CostReport give their rows; shift_register.Report prints both forms.
    for method in ("as_text", "as_keyvalues"):
        hits = [
            f"{path.stem}:{node.lineno}"
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.FunctionDef) and node.name == method
        ]
        assert len(hits) == 1 and hits[0].startswith("shift_register:"), hits
