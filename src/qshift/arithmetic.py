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

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import PreconditionError, disjoint, instance, integer, register_wires
from .gates import Circuit, Gate, compiled
from .shift_register import shift_cascade
from .state import RegisterLayout, StateVector, run_circuit


def _bits_lsb_first(value: int) -> list[int]:
    return [(value >> p) & 1 for p in range(value.bit_length())]


def _nonnegative(value, what: str) -> int:
    value = integer(value, what)
    if value < 0:
        raise PreconditionError(f"{what} must be nonnegative")
    return value


def num_shifts(multiplier: int) -> int:
    """Left shifts the constant-multiplier schedule performs."""
    return max(_nonnegative(multiplier, "multiplier").bit_length() - 1, 0)


def num_additions(multiplier: int) -> int:
    """Adds the constant-multiplier schedule performs (set bits)."""
    return bin(_nonnegative(multiplier, "multiplier")).count("1")


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
    a = register_wires(a_wires, "addend")
    b = register_wires(b_wires, "target")
    c = register_wires(carry_wires, "carries")
    wa, wb = len(a), len(b)
    if wa < 1:
        raise PreconditionError("addend register must have at least one wire")
    if wb < wa:
        raise PreconditionError(
            f"target register ({wb} wires) narrower than addend ({wa} wires)"
        )
    if len(c) != wb - 1:
        raise PreconditionError(
            f"adder needs {wb - 1} carry wires for a {wb}-wire target, got {len(c)}"
        )
    controls = () if control is None else (control,)
    disjoint({"addend": a, "target": b, "carries": c, "control": controls})

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
    return gates


def build_adder_circuit(
    num_wires: int,
    a_wires: Sequence[int],
    b_wires: Sequence[int],
    carry_wires: Sequence[int],
    control: int | None = None,
) -> Circuit:
    return Circuit(num_wires, adder_gates(a_wires, b_wires, carry_wires, control))


def _resolve(layout: RegisterLayout | None, reg, what: str, num_wires: int) -> tuple[int, ...]:
    if isinstance(reg, str):
        if layout is None:
            raise PreconditionError("segment names need a layout")
        return layout.wires(reg)
    return register_wires(reg, what, num_wires)


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
    num_wires = state.num_wires if layout is None else layout.num_wires
    a = _resolve(layout, reg_a, "addend", num_wires)
    b = _resolve(layout, reg_b, "target", num_wires)
    c = _resolve(layout, carries, "carries", num_wires)
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
    a = register_wires(reg_a, "addend", state.num_wires)
    b = register_wires(reg_b, "target", state.num_wires)
    for name, wires in (("addend", a), ("target", b)):
        if not wires:
            raise PreconditionError(f"{name} register must have at least one wire")
    disjoint({"addend": a, "target": b})
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
        for f in fields(self):
            object.__setattr__(self, f.name, integer(getattr(self, f.name), f.name))
        _check_schedule((self.a_width, self.a_ancilla, self.b_width), self.a_ancilla, self.multiplier)


def _check_schedule(widths: Sequence[int], a_ancilla: int = 0, multiplier: int = 0) -> None:
    """The rule both specs and the cost report share: every width is at least 1,
    and the ancilla of A holds a constant multiplier's shifts."""
    if min(widths) < 1:
        raise PreconditionError("register widths must be at least 1")
    if num_shifts(multiplier) > a_ancilla:
        raise PreconditionError(
            f"multiplier {bin(multiplier)} needs {num_shifts(multiplier)} "
            f"shifts but the ancilla holds only {a_ancilla}"
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
        for f in fields(self):
            object.__setattr__(self, f.name, integer(getattr(self, f.name), f.name))
        _check_schedule((self.a_width, self.a_ancilla, self.c_width, self.c_ancilla, self.b_width))
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


def _check_layout(layout: RegisterLayout, widths: Sequence[tuple[str, int]]) -> None:
    """The layout has exactly the spec's segments, each with the spec's width (width 0: absent)."""
    for name, width in widths:
        found = layout.width(name) if layout.has_segment(name) else 0  # a segment has at least 1 wire
        if found != width:
            raise PreconditionError(f"layout segment {name!r} has {found} wires, the spec needs {width}" if found
                                    else f"layout is missing segment {name!r}")
    named = dict(widths)
    for name in layout.segment_names:
        if name not in named:
            raise PreconditionError(f"layout has segment {name!r}, which the spec does not name")


def _spec_layout(spec, kind: type, layout: RegisterLayout | None, default) -> tuple:
    """``spec``, checked to be a ``kind``, and ``layout`` (``default(spec)`` when None), checked to be a layout."""
    spec = instance(spec, kind, "spec")
    return spec, default(spec) if layout is None else instance(layout, RegisterLayout, "layout")


def mul_const_layout(spec: MulConstSpec) -> RegisterLayout:
    """Segments A, B, ancA, carry (none when B has one wire) and the shared shift control c."""
    return RegisterLayout.packed((name, width) for name, width in _mul_const_widths(spec) if width)


def mul_quantum_layout(spec: MulQuantumSpec) -> RegisterLayout:
    """Segments A, C, B, ancA, ancC, carry (none when B has one wire) and the shared shift control c."""
    return RegisterLayout.packed((name, width) for name, width in _mul_quantum_widths(spec) if width)


def extended_addend(a_wires: Sequence[int], anc_wires: Sequence[int], shifts_done: int) -> list[int]:
    """Wires holding the shifted value of A, low bit first.

    After s left shifts the bits pushed out of A sit in the top ancilla
    slots, highest slot least significant, continuing A upward.
    """
    a_wires, anc_wires = register_wires(a_wires, "addend"), register_wires(anc_wires, "ancilla")
    if _nonnegative(shifts_done, "shifts_done") > len(anc_wires):
        raise PreconditionError("more shifts than ancilla wires")
    ext = list(a_wires)
    for j in range(shifts_done):
        ext.append(anc_wires[len(anc_wires) - 1 - j])
    return ext


def _shift_and_add(
    layout: RegisterLayout, adds: Sequence[int], control: int | None = None, c_shift: Sequence[Gate] = ()
) -> Circuit:
    """Round p adds A, shifted left p times, into B when ``adds[p]`` is set,
    under ``control`` if one is given; between rounds A shifts left through
    ancA, then the gates ``c_shift`` run."""
    a, anc, b = layout.wires("A"), layout.wires("ancA"), layout.wires("B")
    carry = layout.wires("carry") if layout.has_segment("carry") else ()
    shift_gates = [*shift_cascade(anc, a, layout.wires("c")[0]), *c_shift]
    gates: list[Gate] = []
    for p, adding in enumerate(adds):
        if adding:
            addend = extended_addend(a, anc, p)[: len(b)]
            gates += adder_gates(addend, b, carry, control)
        if p < len(adds) - 1:
            gates += shift_gates
    return Circuit(layout.num_wires, gates)


def build_multiply_by_constant_circuit(
    spec: MulConstSpec, layout: RegisterLayout | None = None
) -> Circuit:
    """Add-then-shift schedule over the multiplier's bits, LSB first.

    Built on ``layout`` (default ``mul_const_layout(spec)``), whose
    segments must have the spec's widths, once per spec and layout.
    """
    return compiled(_mul_const_circuit, *_spec_layout(spec, MulConstSpec, layout, mul_const_layout))


def _mul_const_circuit(spec: MulConstSpec, layout: RegisterLayout) -> Circuit:
    _check_layout(layout, _mul_const_widths(spec))
    return _shift_and_add(layout, _bits_lsb_first(spec.multiplier))


# The names the multipliers' error messages give the segments that must be
# zero on every supported branch: every segment of the spec but the factors.
# The checks run in this order, which is the order of the spec's segments.
_ZERO_SEGMENT_NAMES = {
    "B": "accumulator B",
    "ancA": "shift ancilla of A",
    "ancC": "shift ancilla of C",
    "carry": "carry wires",
    "c": "shift control wire",
}


def _zero_checks(layout: RegisterLayout) -> list[tuple[tuple[int, ...], str]]:
    """The ``run_circuit`` checks that every segment of a multiplier's layout
    but the factors is zero; ``_check_layout`` has checked its segments."""
    return [(layout.wires(name), what) for name, what in _ZERO_SEGMENT_NAMES.items()
            if layout.has_segment(name)]


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
    instance(state, StateVector, "state")
    spec, layout = _spec_layout(spec, MulConstSpec, layout, mul_const_layout)
    circuit = compiled(_mul_const_circuit, spec, layout)
    checks = _zero_checks(layout)
    if layout.num_wires == state.num_wires:
        # A valid input's support lies on A's slice, so its largest A value
        # is read there; an invalid one fails a check first.
        labels, _ = state.support(layout.wires("A"))
        product = spec.multiplier * int(layout.values(labels, "A").max(initial=0))
        if product >= 1 << spec.b_width:
            run_circuit(state, Circuit(layout.num_wires), checks)
            raise PreconditionError(
                f"accumulator of {spec.b_width} wires cannot hold product {product}"
            )
    return run_circuit(state, circuit, checks)


def build_multiply_registers_circuit(
    spec: MulQuantumSpec, layout: RegisterLayout | None = None
) -> Circuit:
    """Conditional add on C's lowest wire, then shift A left and C right.

    Built on ``layout`` (default ``mul_quantum_layout(spec)``), whose
    segments must have the spec's widths, once per spec and layout.
    """
    return compiled(_mul_quantum_circuit, *_spec_layout(spec, MulQuantumSpec, layout, mul_quantum_layout))


def _mul_quantum_circuit(spec: MulQuantumSpec, layout: RegisterLayout) -> Circuit:
    _check_layout(layout, _mul_quantum_widths(spec))
    c_reg = layout.wires("C")
    c_shift = shift_cascade(layout.wires("ancC"), c_reg, layout.wires("c")[0], "right")
    return _shift_and_add(layout, [1] * spec.c_width, c_reg[0], c_shift)


def multiply_registers(
    state: StateVector, spec: MulQuantumSpec, layout: RegisterLayout | None = None
) -> StateVector:
    """Run the register-times-register pipeline in place.

    B ends holding a*c on every joint basis branch; the consumed bits of C
    sit in its shift ancilla, recoverable by reversing the circuit.
    """
    spec, layout = _spec_layout(spec, MulQuantumSpec, layout, mul_quantum_layout)
    circuit = compiled(_mul_quantum_circuit, spec, layout)
    # No capacity check: the spec makes B at least a_width + c_width wires,
    # so every product of an A and a C value fits.
    return run_circuit(state, circuit, _zero_checks(layout))


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
    wires, slot = instance(layout, RegisterLayout, "layout").wires(reg), integer(slot, "slot")
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
    A schedule that ``MulConstSpec`` refuses is refused with the same message.
    """
    a_width, a_ancilla = integer(a_width, "a_width"), integer(a_ancilla, "a_ancilla")
    multiplier = integer(multiplier, "multiplier")
    _check_schedule((a_width, a_ancilla), a_ancilla, multiplier)
    num_values = 1 << a_width if num_values is None else integer(num_values, "num_values")
    if num_values < 1:
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
