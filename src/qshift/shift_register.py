"""Shift and rotation registers built from swap cascades plus one Fredkin gate.

A register couples k ancilla wires (slots a_1..a_k), n data wires (slots
b_1..b_n, slot 1 least significant) and one control wire c. One pass of the
network uses n+k-1 SWAP gates and a final CSWAP controlled on c:

  c = 0  shift:    data gains a zero at slot 1 (value doubles, the old top
                   bit moves into ancilla slot k, ancilla slot 1 feeds the
                   data LSB);
  c = 1  rotation: data and ancilla each rotate cyclically by one slot.

Shift-right is the exact gate-reversed circuit. A classical oracle for the
net permutation serves as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError, disjoint, instance, integer, iterable, register_wires
from .gates import Circuit, Gate, compiled, expand_cswaps, expand_swaps
from .state import RegisterLayout, StateVector, run_circuit

DIRECTIONS = ("left", "right")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise PreconditionError(f"direction must be one of {DIRECTIONS}")


@dataclass(frozen=True)
class ShiftSpec:
    """Width parameters: n data wires, k ancilla wires (= shifts absorbable)."""

    data_width: int
    ancilla_width: int
    direction: str = "left"

    def __post_init__(self):
        for name in ("data_width", "ancilla_width"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.data_width < 1 or self.ancilla_width < 1:
            raise PreconditionError("data and ancilla widths must be at least 1")
        _check_direction(self.direction)


def shift_layout(data_width: int, ancilla_width: int) -> RegisterLayout:
    """Canonical layout: ancilla a, data b, control c on the last wire."""
    k, n = integer(ancilla_width, "ancilla_width"), integer(data_width, "data_width")
    return RegisterLayout.packed([("a", k), ("b", n), ("c", 1)])


def shift_cascade(
    a_wires: Sequence[int], b_wires: Sequence[int], c_wire: int, direction: str = "left"
) -> list[Gate]:
    """Gates of one pass over explicit wires, in canonical order.

    A left pass: the ancilla cascade carries slot a_1 to the a_k wire, the
    data cascade bubbles from the top down, then SWAP(a_k, b_1) and the
    final CSWAP(c, a_k, b_1) complete the pass. A right pass is the exact
    gate reversal, which inverts the left pass since every gate is an
    involution.
    """
    _check_direction(direction)
    a_wires, b_wires = register_wires(a_wires, "ancilla"), register_wires(b_wires, "data")
    k, n = len(a_wires), len(b_wires)
    if k < 1 or n < 1:
        raise PreconditionError("need at least one ancilla and one data wire")
    c_wire = integer(c_wire, "control wire")
    disjoint({"ancilla": a_wires, "data": b_wires, "control": (c_wire,)})
    gates = []
    for i in range(k - 1):
        gates.append(Gate.swap(a_wires[i], a_wires[i + 1]))
    for j in range(n - 1, 0, -1):
        gates.append(Gate.swap(b_wires[j - 1], b_wires[j]))
    gates.append(Gate.swap(a_wires[-1], b_wires[0]))
    gates.append(Gate.cswap(c_wire, a_wires[-1], b_wires[0]))
    return gates if direction == "left" else gates[::-1]


def build_shift_circuit(spec: ShiftSpec) -> Circuit:
    """The full register circuit in the spec's direction: n+k-1 SWAPs plus one CSWAP."""
    layout = shift_layout(instance(spec, ShiftSpec, "spec").data_width, spec.ancilla_width)
    a, b, c = layout.wires("a"), layout.wires("b"), layout.wires("c")[0]
    return compiled(_pass_circuit, layout.num_wires, a, b, c, spec.direction, False)


def classical_shift_oracle(
    a_bits: Sequence[int], b_bits: Sequence[int], c_bit: int, direction: str = "left"
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ground-truth net permutation, computed without any gates.

    Bits are given in slot order (slot 1 first). Returns (a_bits, b_bits)
    after one pass.
    """
    _check_direction(direction)
    if integer(c_bit, "control bit") not in (0, 1):
        raise PreconditionError("control bit must be 0 or 1")
    a = tuple(integer(x, "bit") for x in iterable(a_bits, "ancilla bits", "bits"))
    b = tuple(integer(x, "bit") for x in iterable(b_bits, "data bits", "bits"))
    if not a or not b or set(a + b) - {0, 1}:
        raise PreconditionError("bit vectors must be nonempty and 0/1 valued")
    if direction == "left":
        a2 = list(a[1:] + (b[-1],))
        b2 = list((a[0],) + b[:-1])
        if c_bit:
            a2[-1], b2[0] = b2[0], a2[-1]
        return tuple(a2), tuple(b2)
    if c_bit:
        return (a[-1],) + a[:-1], b[1:] + (b[0],)
    return (b[0],) + a[:-1], b[1:] + (a[-1],)


def _run_pass(
    state: StateVector, layout: RegisterLayout, direction: str, rotating: bool
) -> StateVector:
    """One pass over segments a, b and c, after the check that c reads 0; the
    circuit is compiled once per wire count, a, b and c wires and direction."""
    layout = instance(layout, RegisterLayout, "layout")
    c, a, b = layout.wires("c"), layout.wires("a"), layout.wires("b")
    _check_direction(direction)
    circuit = compiled(_pass_circuit, layout.num_wires, a, b, c[0], direction, rotating)
    return run_circuit(state, circuit, [(c, "control wire 'c'")])


def _pass_circuit(num_wires: int, a: tuple, b: tuple, c_wire: int, direction: str, rotating: bool) -> Circuit:
    gates = shift_cascade(a, b, c_wire, direction)
    if rotating:
        gates = [Gate.x(c_wire), *gates, Gate.x(c_wire)]
    return Circuit(num_wires, gates)


def shift(state: StateVector, layout: RegisterLayout, direction: str = "left") -> StateVector:
    """One shift pass on a state laid out with segments a, b and c.

    The control wire must be 0 on the whole basis support; a nonzero
    control would silently turn the pass into a rotation.
    """
    return _run_pass(state, layout, direction, rotating=False)


def rotate(state: StateVector, layout: RegisterLayout, direction: str = "left") -> StateVector:
    """One rotation pass: control is raised to 1 for the pass and restored."""
    return _run_pass(state, layout, direction, rotating=True)


class Report:
    """Rows of ``(key, value)`` from ``rows()``, printed as a table and as ``key=value`` lines.

    A table label is its key with spaces for underscores, and values are
    right-aligned in ``WIDTH`` columns. ``KEYS_ONLY`` rows are key=value lines
    alone; ``TABLE_HEAD`` rows and a nonempty ``head`` line are text alone.
    """

    TABLE_HEAD: tuple[tuple[str, str], ...] = ()
    KEYS_ONLY: tuple[str, ...] = ()
    head = ""

    def as_text(self) -> str:
        body = [(key.replace("_", " "), val) for key, val in self.rows() if key not in self.KEYS_ONLY]
        rows = [*self.TABLE_HEAD, *body]
        width = max(len(label) for label, _ in rows)
        lines = [f"{label:<{width}}  {val:>{self.WIDTH}}" for label, val in rows]
        return "\n".join([self.head, *lines] if self.head else lines)

    def as_keyvalues(self) -> str:
        return "\n".join(f"{key}={val}" for key, val in self.rows())


@dataclass(frozen=True)
class GateCountReport(Report):
    """Per-kind gate tallies plus derived CNOT-equivalent figures."""

    counts: dict[str, int]

    WIDTH = 5
    TABLE_HEAD = (("gate", "count"),)

    @property
    def cnot_equivalent(self) -> int:
        """CNOTs after replacing each SWAP by 3 and each CSWAP by 2 CNOTs."""
        c = self.counts
        return c.get("CNOT", 0) + 3 * c.get("SWAP", 0) + 2 * c.get("CSWAP", 0)

    @property
    def toffoli_equivalent(self) -> int:
        """Toffolis after decomposing every CSWAP."""
        return self.counts.get("TOFFOLI", 0) + self.counts.get("CSWAP", 0)

    def rows(self) -> list[tuple[str, int]]:
        tallies = [(kind.lower(), n) for kind, n in sorted(self.counts.items())]
        return tallies + [("cnot_equivalent", self.cnot_equivalent), ("toffoli_equivalent", self.toffoli_equivalent)]


_DECOMPOSE_MODES = {
    "none": "none",
    "cnot": "cnot",
    "swaps-to-cnot": "cnot",
    "all": "all",
}


def gate_count(spec: ShiftSpec, decompose: str = "none") -> GateCountReport:
    """Tally the register circuit, optionally decomposing SWAP and CSWAP gates."""
    try:
        mode = _DECOMPOSE_MODES[decompose]
    except (KeyError, TypeError):  # TypeError: an unhashable mode
        raise PreconditionError(
            f"decompose must be one of {sorted(set(_DECOMPOSE_MODES))}"
        ) from None
    circuit = build_shift_circuit(spec)
    if mode in ("cnot", "all"):
        circuit = expand_swaps(circuit)
    if mode == "all":
        circuit = expand_cswaps(circuit)
    return GateCountReport(circuit.counts())
