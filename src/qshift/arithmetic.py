"""Reversible adders and the two shift-and-add multiplication pipelines.

The adder is a ripple-carry circuit over {CNOT, TOFFOLI}: carries are
computed forward, the top bit is summed, and a backward pass uncomputes
every carry while writing the remaining sum bits. Addition is modulo
2**|B| and needs |B|-1 carry wires, all returned to zero. The controlled
variant gates only the sum writes, so the carry bookkeeping cancels
identically when the control is 0.

Multiplication by a constant interleaves conditional adds with left shifts
of register A through its shift ancilla; register-times-register
multiplication additionally right-shifts the multiplier register C and
conditions each add on C's lowest wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError, integer
from .gates import Circuit, Gate
from .shift_register import shift_cascade
from .state import (
    RegisterLayout,
    StateVector,
    _support,
    require_zero,
    run_circuit,
    run_on_support,
)


def _bits_lsb_first(value: int) -> list[int]:
    return [(value >> p) & 1 for p in range(value.bit_length())]


def num_shifts(multiplier: int) -> int:
    """Left shifts the constant-multiplier schedule performs."""
    return max(multiplier.bit_length() - 1, 0)


def num_additions(multiplier: int) -> int:
    """Adds the constant-multiplier schedule performs (set bits)."""
    return bin(multiplier).count("1")


def _check_disjoint(groups: dict[str, Sequence[int]]) -> None:
    seen: dict[int, str] = {}
    for name, wires in groups.items():
        for w in wires:
            if w in seen:
                raise PreconditionError(f"wires of {name!r} overlap {seen[w]!r}")
            seen[w] = name


def adder_gates(
    a_wires: Sequence[int],
    b_wires: Sequence[int],
    carry_wires: Sequence[int],
    control: int | None = None,
) -> list[Gate]:
    """Gate list adding register a into register b modulo 2**len(b).

    carry_wires[p] receives the carry into position p+1 and ends at zero.
    With a control wire, the sum is applied only on control=1 components
    while a and the carries behave identically either way.
    """
    wa, wb = len(a_wires), len(b_wires)
    if wa < 1:
        raise PreconditionError("addend register must have at least one wire")
    if wb < wa:
        raise PreconditionError(
            f"target register ({wb} wires) narrower than addend ({wa} wires)"
        )
    if len(carry_wires) != wb - 1:
        raise PreconditionError(
            f"adder needs {wb - 1} carry wires for a {wb}-wire target, got {len(carry_wires)}"
        )
    groups = {"addend": a_wires, "target": b_wires, "carries": carry_wires}
    if control is not None:
        groups["control"] = (control,)
    _check_disjoint(groups)

    a, b, c = list(a_wires), list(b_wires), list(carry_wires)

    def sum_write(source: int, target: int) -> Gate:
        if control is None:
            return Gate.cnot(source, target)
        return Gate.toffoli(control, source, target)

    gates: list[Gate] = []
    # Forward: compute the carry into each position 1..wb-1.
    for p in range(wb - 1):
        if p < wa:
            gates.append(Gate.toffoli(a[p], b[p], c[p]))
            gates.append(Gate.cnot(a[p], b[p]))  # b_p := a_p xor b_p
        if p >= 1:
            gates.append(Gate.toffoli(c[p - 1], b[p], c[p]))
    # Top position: sum only, the carry out is dropped (mod 2**wb).
    top = wb - 1
    if top < wa:
        gates.append(sum_write(a[top], b[top]))
    if top >= 1:
        gates.append(sum_write(c[top - 1], b[top]))
    # Backward: uncompute carries, write the remaining sum bits.
    for p in range(wb - 2, -1, -1):
        if p >= 1:
            gates.append(Gate.toffoli(c[p - 1], b[p], c[p]))
        if p < wa:
            gates.append(Gate.cnot(a[p], b[p]))  # restore b_p
            gates.append(Gate.toffoli(a[p], b[p], c[p]))
            gates.append(sum_write(a[p], b[p]))
            if p >= 1:
                gates.append(sum_write(c[p - 1], b[p]))
        elif p >= 1:
            gates.append(sum_write(c[p - 1], b[p]))
    return gates


def build_adder_circuit(
    num_wires: int,
    a_wires: Sequence[int],
    b_wires: Sequence[int],
    carry_wires: Sequence[int],
    control: int | None = None,
) -> Circuit:
    return Circuit(num_wires, adder_gates(a_wires, b_wires, carry_wires, control))


def _resolve(layout: RegisterLayout | None, reg) -> tuple[int, ...]:
    if isinstance(reg, str):
        if layout is None:
            raise PreconditionError("segment names need a layout")
        return layout.wires(reg)
    return tuple(integer(w, "wire") for w in reg)


def add(
    state: StateVector,
    layout: RegisterLayout | None,
    reg_a,
    reg_b,
    carries,
    control: int | None = None,
) -> StateVector:
    """In-place b := (a + b) mod 2**|b| with a preserved and carries cleaned.

    Registers may be segment names (resolved through the layout) or
    explicit wire sequences in slot order.
    """
    a = _resolve(layout, reg_a)
    b = _resolve(layout, reg_b)
    c = _resolve(layout, carries)
    num_wires = state.num_wires if layout is None else layout.num_wires
    circuit = build_adder_circuit(num_wires, a, b, c, control)
    return run_circuit(state, circuit, [(c, "carry wires")])


def controlled_add(
    state: StateVector,
    layout: RegisterLayout | None,
    control: int,
    reg_a,
    reg_b,
    carries,
) -> StateVector:
    """Adds on control=1 basis components, identity on control=0 ones."""
    return add(state, layout, reg_a, reg_b, carries, control=integer(control, "control wire"))


def oracle_add(state: StateVector, reg_a: Sequence[int], reg_b: Sequence[int]) -> StateVector:
    """Permutation-level adder used as an independent cross-check.

    Relabels amplitudes directly from integer arithmetic; no gates.
    """
    a = tuple(integer(w, "addend wire") for w in reg_a)
    b = tuple(integer(w, "target wire") for w in reg_b)
    m = state.num_wires
    for name, wires in (("addend", a), ("target", b)):
        if not wires:
            raise PreconditionError(f"{name} register must have at least one wire")
        if min(wires) < 0 or max(wires) >= m:
            raise PreconditionError(f"{name} register wires {list(wires)} are not all in 0..{m - 1}")
    _check_disjoint({"addend": a, "target": b})
    labels = np.arange(state.amplitudes.size, dtype=np.int64)
    a_val = np.zeros_like(labels)
    for slot, wire in enumerate(a):
        a_val |= ((labels >> wire) & 1) << slot
    b_val = np.zeros_like(labels)
    b_mask = 0
    for slot, wire in enumerate(b):
        b_val |= ((labels >> wire) & 1) << slot
        b_mask |= 1 << wire
    new_b = (a_val + b_val) & ((1 << len(b)) - 1)
    new_labels = labels & ~b_mask
    for slot, wire in enumerate(b):
        new_labels |= ((new_b >> slot) & 1) << wire
    out = np.zeros_like(state.amplitudes)
    out[new_labels] = state.amplitudes
    state.amplitudes = out
    return state


@dataclass(frozen=True)
class MulConstSpec:
    """Multiply the values in register A by a classical constant into B.

    a_ancilla bounds the left shifts A can absorb, so it must cover the
    index of the multiplier's highest set bit.
    """

    a_width: int
    a_ancilla: int
    b_width: int
    multiplier: int

    def __post_init__(self):
        if min(self.a_width, self.a_ancilla, self.b_width) < 1:
            raise PreconditionError("register widths must be at least 1")
        if self.multiplier < 0:
            raise PreconditionError("multiplier must be nonnegative")
        if num_shifts(self.multiplier) > self.a_ancilla:
            raise PreconditionError(
                f"multiplier {bin(self.multiplier)} needs {num_shifts(self.multiplier)} "
                f"shifts but the ancilla holds only {self.a_ancilla}"
            )


@dataclass(frozen=True)
class MulQuantumSpec:
    """Multiply registers A and C into B, consuming C's bits via right shifts."""

    a_width: int
    a_ancilla: int
    c_width: int
    c_ancilla: int
    b_width: int

    def __post_init__(self):
        widths = (self.a_width, self.a_ancilla, self.c_width, self.c_ancilla, self.b_width)
        if min(widths) < 1:
            raise PreconditionError("register widths must be at least 1")
        passes = self.c_width - 1
        if self.a_ancilla < passes or self.c_ancilla < passes:
            raise PreconditionError(
                f"{self.c_width}-wire multiplier needs {passes} shifts on each side; "
                f"ancillas are {self.a_ancilla} (A) and {self.c_ancilla} (C)"
            )
        if self.b_width < self.a_width + self.c_width:
            raise PreconditionError(
                "accumulator must cover a_width + c_width bits to hold any product"
            )


def _mul_const_widths(spec: MulConstSpec) -> tuple[tuple[str, int], ...]:
    nb = spec.b_width
    return (("A", spec.a_width), ("B", nb), ("ancA", spec.a_ancilla), ("carry", nb - 1), ("c", 1))


def _mul_quantum_widths(spec: MulQuantumSpec) -> tuple[tuple[str, int], ...]:
    return (
        ("A", spec.a_width),
        ("C", spec.c_width),
        ("B", spec.b_width),
        ("ancA", spec.a_ancilla),
        ("ancC", spec.c_ancilla),
        ("carry", spec.b_width - 1),
        ("c", 1),
    )


def _packed_layout(widths: Sequence[tuple[str, int]]) -> RegisterLayout:
    """Segments on consecutive wires in the given order; width-0 ones are left out."""
    pos = 0
    segs = []
    for name, width in widths:
        if width:
            segs.append((name, range(pos, pos + width)))
            pos += width
    return RegisterLayout(segs)


def _check_layout(layout: RegisterLayout, widths: Sequence[tuple[str, int]]) -> None:
    """The layout has exactly the spec's segments, each with the spec's width (width 0: absent)."""
    for name, width in widths:
        if width and not layout.has_segment(name):
            raise PreconditionError(f"layout is missing segment {name!r}")
        found = layout.width(name) if layout.has_segment(name) else 0
        if found != width:
            raise PreconditionError(
                f"layout segment {name!r} has {found} wires, the spec needs {width}"
            )
    named = dict(widths)
    for name in layout.segment_names:
        if name not in named:
            raise PreconditionError(
                f"layout has segment {name!r}, which the spec does not name"
            )


def mul_const_layout(spec: MulConstSpec) -> RegisterLayout:
    """Segments A, B, ancA, carry and the shared shift control c."""
    return _packed_layout(_mul_const_widths(spec))


def mul_quantum_layout(spec: MulQuantumSpec) -> RegisterLayout:
    """Segments A, C, B, ancA, ancC, carry and the shared shift control c."""
    return _packed_layout(_mul_quantum_widths(spec))


def extended_addend(a_wires: Sequence[int], anc_wires: Sequence[int], shifts_done: int) -> list[int]:
    """Wires holding the shifted value of A, low bit first.

    After s left shifts the bits pushed out of A sit in the top ancilla
    slots, highest slot least significant, continuing A upward.
    """
    if shifts_done > len(anc_wires):
        raise PreconditionError("more shifts than ancilla wires")
    ext = list(a_wires)
    for j in range(shifts_done):
        ext.append(anc_wires[len(anc_wires) - 1 - j])
    return ext


def _carry_wires(layout: RegisterLayout) -> tuple[int, ...]:
    return layout.wires("carry") if layout.has_segment("carry") else ()


def build_multiply_by_constant_circuit(
    spec: MulConstSpec, layout: RegisterLayout | None = None
) -> Circuit:
    """Add-then-shift schedule over the multiplier's bits, LSB first.

    Built on ``layout`` (default ``mul_const_layout(spec)``), whose
    segments must have the spec's widths.
    """
    layout = layout or mul_const_layout(spec)
    _check_layout(layout, _mul_const_widths(spec))
    a = layout.wires("A")
    anc = layout.wires("ancA")
    b = layout.wires("B")
    carry = _carry_wires(layout)
    c_wire = layout.wires("c")[0]
    bits = _bits_lsb_first(spec.multiplier)
    circuit = Circuit(layout.num_wires)
    for p, bit in enumerate(bits):
        if bit:
            addend = extended_addend(a, anc, p)[: len(b)]
            circuit.extend(adder_gates(addend, b, carry))
        if p < len(bits) - 1:
            circuit.extend(shift_cascade(anc, a, c_wire))
    return circuit


def _capacity_check(max_product: int, b_width: int) -> None:
    if max_product >= (1 << b_width):
        raise PreconditionError(
            f"accumulator of {b_width} wires cannot hold product {max_product}"
        )


# The names the multipliers' error messages give the segments that must be
# zero on every supported branch: every segment of the spec but the factors.
_ZERO_SEGMENT_NAMES = {
    "B": "accumulator B",
    "ancA": "shift ancilla of A",
    "ancC": "shift ancilla of C",
    "carry": "carry wires",
    "c": "shift control wire",
}


def _run_multiplier(
    state: StateVector,
    layout: RegisterLayout,
    circuit: Circuit,
    widths: Sequence[tuple[str, int]],
    factors: Sequence[str],
    constant: int,
) -> StateVector:
    """Check a multiplier's preconditions in one pass over the basis support, then run it.

    Every segment of ``widths`` but the ``factors`` must be zero, and
    ``constant`` times the largest supported value of each factor segment
    must fit the accumulator B.
    """
    labels = _support(state, circuit)
    marked = require_zero(
        state,
        labels,
        [(layout.wires(name), _ZERO_SEGMENT_NAMES[name]) for name, width in widths
         if width and name not in factors],
    )
    # The zero segments hold at least 3 wires, so a support that passes
    # their checks holds at most 1/8 of the labels: the scan returned it.
    product = constant
    for name in factors:
        product *= int(layout.values(labels, name).max(initial=0))
    _capacity_check(product, layout.width("B"))
    return run_on_support(state, circuit, labels, marked)


def multiply_by_constant(
    state: StateVector, spec: MulConstSpec, layout: RegisterLayout | None = None
) -> StateVector:
    """Run the constant-multiplier pipeline in place.

    Preconditions checked on the basis support before any gate: B, the
    shift ancilla, the carries and the control are zero, and the largest
    supported A value times the multiplier fits the accumulator. The final
    A holds its value shifted left by the schedule's shift count,
    recoverable with that many right shifts.
    """
    layout = layout or mul_const_layout(spec)
    circuit = build_multiply_by_constant_circuit(spec, layout)
    return _run_multiplier(state, layout, circuit, _mul_const_widths(spec), ("A",), spec.multiplier)


def build_multiply_registers_circuit(
    spec: MulQuantumSpec, layout: RegisterLayout | None = None
) -> Circuit:
    """Conditional add on C's lowest wire, then shift A left and C right.

    Built on ``layout`` (default ``mul_quantum_layout(spec)``), whose
    segments must have the spec's widths.
    """
    layout = layout or mul_quantum_layout(spec)
    _check_layout(layout, _mul_quantum_widths(spec))
    a = layout.wires("A")
    anc_a = layout.wires("ancA")
    c_reg = layout.wires("C")
    anc_c = layout.wires("ancC")
    b = layout.wires("B")
    carry = _carry_wires(layout)
    c_wire = layout.wires("c")[0]
    circuit = Circuit(layout.num_wires)
    for p in range(spec.c_width):
        addend = extended_addend(a, anc_a, p)[: len(b)]
        circuit.extend(adder_gates(addend, b, carry, control=c_reg[0]))
        if p < spec.c_width - 1:
            circuit.extend(shift_cascade(anc_a, a, c_wire))
            circuit.extend(shift_cascade(anc_c, c_reg, c_wire, "right"))
    return circuit


def multiply_registers(
    state: StateVector, spec: MulQuantumSpec, layout: RegisterLayout | None = None
) -> StateVector:
    """Run the register-times-register pipeline in place.

    B ends holding a*c on every joint basis branch; the consumed bits of C
    sit in its shift ancilla, recoverable by reversing the circuit.
    """
    layout = layout or mul_quantum_layout(spec)
    circuit = build_multiply_registers_circuit(spec, layout)
    return _run_multiplier(state, layout, circuit, _mul_quantum_widths(spec), ("A", "C"), 1)


def select_qubit(
    state: StateVector,
    layout: RegisterLayout,
    reg: str,
    slot: int,
    *,
    ancilla: str,
    control: str = "c",
) -> StateVector:
    """Right-shift until the addressed slot occupies the register's slot 1.

    Needs slot-1 ancilla slots free at the top of the ancilla register,
    since each right shift feeds the top ancilla slot into the data MSB.
    """
    wires = layout.wires(reg)
    if not 1 <= slot <= len(wires):
        raise PreconditionError(f"slot {slot} outside register {reg!r}")
    passes = slot - 1
    anc = layout.wires(ancilla)
    if passes > len(anc):
        raise PreconditionError(
            f"selecting slot {slot} needs {passes} right shifts; "
            f"ancilla {ancilla!r} has only {len(anc)} wires"
        )
    gates = shift_cascade(anc, wires, layout.wires(control)[0], "right")
    checks = [
        (anc[len(anc) - passes:], f"top {passes} slots of ancilla {ancilla!r}"),
        (layout.wires(control), "shift control wire"),
    ]
    return run_circuit(state, Circuit(layout.num_wires, gates * passes), checks)


@dataclass(frozen=True)
class CostReport:
    """Gate-count accounting of one constant multiplication.

    Quantum side: shift and add totals for a single superposed register.
    Classical side: the same shift schedule repeated once per represented
    value.
    """

    a_width: int
    a_ancilla: int
    multiplier: int
    shifts: int
    swaps_per_shift: int
    swap_gates: int
    additions: int
    num_values: int
    classical_operations: int

    def as_text(self) -> str:
        rows = [
            ("shifts", self.shifts),
            ("swaps per shift", self.swaps_per_shift),
            ("swap gates", self.swap_gates),
            ("additions", self.additions),
            ("classical operations", self.classical_operations),
        ]
        width = max(len(r[0]) for r in rows)
        head = (
            f"multiplier {bin(self.multiplier)[2:] or '0'} on a "
            f"{self.a_width}-wire register ({self.a_ancilla} shift ancilla), "
            f"{self.num_values} superposed values"
        )
        body = "\n".join(f"{name:<{width}}  {val:>6}" for name, val in rows)
        return head + "\n" + body

    def as_keyvalues(self) -> str:
        pairs = [
            ("multiplier", bin(self.multiplier)[2:] or "0"),
            ("a_width", self.a_width),
            ("a_ancilla", self.a_ancilla),
            ("shifts", self.shifts),
            ("swaps_per_shift", self.swaps_per_shift),
            ("swap_gates", self.swap_gates),
            ("additions", self.additions),
            ("num_values", self.num_values),
            ("classical_operations", self.classical_operations),
        ]
        return "\n".join(f"{k}={v}" for k, v in pairs)


def cost_report(
    a_width: int, a_ancilla: int, multiplier: int, num_values: int | None = None
) -> CostReport:
    """Quantum shift/add totals versus the per-value classical sweep.

    The quantum pipeline runs its schedule once regardless of how many
    values are superposed; a classical machine repeats the shift schedule
    for each value, so its count scales with num_values (default 2**a_width).
    """
    if a_width < 1 or a_ancilla < 1:
        raise PreconditionError("register widths must be at least 1")
    if multiplier < 0:
        raise PreconditionError("multiplier must be nonnegative")
    if num_values is None:
        num_values = 1 << a_width
    elif num_values < 1:
        raise PreconditionError(f"num_values must be at least 1, got {num_values}")
    shifts = num_shifts(multiplier)
    per_shift = a_width + a_ancilla - 1
    return CostReport(
        a_width=a_width,
        a_ancilla=a_ancilla,
        multiplier=multiplier,
        shifts=shifts,
        swaps_per_shift=per_shift,
        swap_gates=shifts * per_shift,
        additions=num_additions(multiplier),
        num_values=num_values,
        classical_operations=shifts * num_values,
    )
