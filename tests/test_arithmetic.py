"""Adders and multiplication pipelines against integer-arithmetic oracles."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings

from qshift import (
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    PreconditionError,
    StateVector,
    add,
    adder_gates,
    apply_circuit_to_label,
    apply_gate,
    build_adder_circuit,
    build_multiply_by_constant_circuit,
    build_multiply_registers_circuit,
    controlled_add,
    cost_report,
    extended_addend,
    is_product_across,
    mul_const_layout,
    mul_quantum_layout,
    multiply_by_constant,
    multiply_registers,
    num_shifts,
    oracle_add,
    rotate,
    run_circuit,
    segment_value_distribution,
    select_qubit,
    shift,
    shift_layout,
)
from qshift import arithmetic
from qshift.gates import compiled
from qshift.shift_register import shift_cascade
from qshift.state import RegisterLayout
from conftest import register_multiplications


def adder_layout(wa, wb):
    segments = [("A", range(wa)), ("B", range(wa, wa + wb))]
    if wb > 1:
        segments.append(("carry", range(wa + wb, wa + wb + wb - 1)))
    return RegisterLayout(segments)


def embed(layout, **values):
    label = 0
    for name, value in values.items():
        label = layout.label_with_value(label, name, value)
    return label


def test_adder_exhaustive_4_plus_4():
    lay = adder_layout(4, 4)
    circ = build_adder_circuit(lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"))
    for a, b in itertools.product(range(16), range(16)):
        out = apply_circuit_to_label(circ, embed(lay, A=a, B=b))
        assert lay.value(out, "A") == a
        assert lay.value(out, "B") == (a + b) % 16
        assert lay.value(out, "carry") == 0


def test_adder_narrow_addend_widths():
    for wa, wb in ((1, 4), (2, 5), (3, 3), (1, 1), (4, 6)):
        lay = adder_layout(wa, wb)
        carry = lay.wires("carry") if wb > 1 else ()
        circ = build_adder_circuit(lay.num_wires, lay.wires("A"), lay.wires("B"), carry)
        for a, b in itertools.product(range(1 << wa), range(1 << wb)):
            out = apply_circuit_to_label(circ, embed(lay, A=a, B=b))
            assert lay.value(out, "A") == a
            assert lay.value(out, "B") == (a + b) % (1 << wb)
            if wb > 1:
                assert lay.value(out, "carry") == 0


def test_adder_gate_set():
    lay = adder_layout(4, 4)
    circ = build_adder_circuit(lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"))
    assert set(circ.counts()) == {"CNOT", "TOFFOLI"}


def test_add_additive_identity():
    lay = adder_layout(3, 3)
    state = StateVector.from_label(lay.num_wires, embed(lay, A=3, B=0))
    add(state, lay, "A", "B", "carry")
    assert lay.value(int(state.nonzero_labels()[0]), "B") == 3


def test_add_example_3_plus_5():
    lay = adder_layout(4, 4)
    state = StateVector.from_label(lay.num_wires, embed(lay, A=3, B=5))
    add(state, lay, "A", "B", "carry")
    assert lay.value(int(state.nonzero_labels()[0]), "B") == 8


def test_add_width_and_carry_preconditions():
    lay = adder_layout(4, 4)
    with pytest.raises(PreconditionError):
        build_adder_circuit(12, range(5), range(5, 9), range(9, 12))  # addend too wide
    with pytest.raises(PreconditionError):
        build_adder_circuit(11, range(4), range(4, 8), range(8, 10))  # carry shortfall
    dirty = StateVector.from_label(lay.num_wires, embed(lay, carry=1))
    with pytest.raises(PreconditionError):
        add(dirty, lay, "A", "B", "carry")
    with pytest.raises(PreconditionError, match=r"wire 1\.5 is not an integer"):
        add(dirty.copy(), lay, [0, 1.5, 2, 3], "B", "carry")
    with pytest.raises(PreconditionError, match=r"control wire 8\.5 is not an integer"):
        controlled_add(dirty.copy(), lay, 8.5, "A", "B", "carry")
    # The gate-free oracle adder refuses empty, out-of-range and non-integer registers too.
    for reg_a, reg_b, message in [
        ([0.5], [1], "addend wire 0.5 is not an integer"),
        ([0], [2.0], "target wire 2.0 is not an integer"),
        ([-1], [0], "addend wire -1 is off the state's 11 wires"),
        ([], [], "addend register must have at least one wire"),
        ([0], [-2, 1], "target wire -2 is off the state's 11 wires"),
        ([0], [], "target register must have at least one wire"),
        ([0], [lay.num_wires], "target wire 11 is off the state's 11 wires"),
    ]:
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            oracle_add(dirty.copy(), reg_a, reg_b)


def test_add_superposed_addend(rng):
    lay = adder_layout(3, 3)
    amps = np.zeros(1 << lay.num_wires, dtype=complex)
    amps[embed(lay, A=1, B=1)] = 1 / np.sqrt(2)
    amps[embed(lay, A=2, B=1)] = 1 / np.sqrt(2)
    state = StateVector(amps)
    add(state, lay, "A", "B", "carry")
    got = {
        (lay.value(int(l), "A"), lay.value(int(l), "B")): abs(state.amplitudes[int(l)])
        for l in state.nonzero_labels()
    }
    assert set(got) == {(1, 2), (2, 3)}
    assert all(abs(v - 1 / np.sqrt(2)) < 1e-12 for v in got.values())


def test_add_reversibility(rng):
    lay = adder_layout(4, 4)
    circ = build_adder_circuit(lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"))
    for _ in range(20):
        amps = np.zeros(1 << lay.num_wires, dtype=complex)
        block = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        block /= np.linalg.norm(block)
        for ab in range(256):
            amps[embed(lay, A=ab & 15, B=ab >> 4)] = block[ab]
        state = StateVector(amps)
        snap = state.copy()
        run_circuit(state, circ)
        run_circuit(state, circ.reversed())
        assert state.allclose(snap, tol=1e-12)


def test_gate_adder_matches_oracle_adder_on_random_states(rng):
    lay = adder_layout(4, 4)
    circ = build_adder_circuit(lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"))
    for _ in range(100):
        amps = np.zeros(1 << lay.num_wires, dtype=complex)
        block = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        block /= np.linalg.norm(block)
        for ab in range(256):
            amps[embed(lay, A=ab & 15, B=ab >> 4)] = block[ab]
        gate_path = StateVector(amps)
        oracle_path = gate_path.copy()
        run_circuit(gate_path, circ)
        oracle_add(oracle_path, lay.wires("A"), lay.wires("B"))
        assert gate_path.allclose(oracle_path, tol=1e-12)


def test_controlled_add_control_zero_is_identity():
    lay = RegisterLayout(
        [("A", range(3)), ("B", range(3, 7)), ("carry", range(7, 10)), ("ctl", [10])]
    )
    circ = build_adder_circuit(
        lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"), control=10
    )
    for a, b in itertools.product(range(8), range(16)):
        label = embed(lay, A=a, B=b)
        assert apply_circuit_to_label(circ, label) == label


def test_controlled_add_control_one_equals_add():
    lay = RegisterLayout(
        [("A", range(4)), ("B", range(4, 8)), ("carry", range(8, 11)), ("ctl", [11])]
    )
    plain = build_adder_circuit(lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"))
    gated = build_adder_circuit(
        lay.num_wires, lay.wires("A"), lay.wires("B"), lay.wires("carry"), control=11
    )
    for a, b in itertools.product(range(16), range(16)):
        label = embed(lay, A=a, B=b, ctl=1)
        assert apply_circuit_to_label(gated, label) == apply_circuit_to_label(plain, label)


def test_controlled_add_superposed_control():
    lay = RegisterLayout(
        [("A", range(2)), ("B", range(2, 4)), ("carry", [4]), ("ctl", [5])]
    )
    state = StateVector.from_label(lay.num_wires, embed(lay, A=1, B=0))
    apply_gate(state, Gate.h(5))
    controlled_add(state, lay, 5, "A", "B", "carry")
    got = {
        (lay.value(int(l), "ctl"), lay.value(int(l), "A"), lay.value(int(l), "B"))
        for l in state.nonzero_labels()
    }
    assert got == {(0, 1, 0), (1, 1, 1)}


def test_mul_const_spec_validation():
    with pytest.raises(PreconditionError):
        MulConstSpec(4, 1, 8, 0b100)  # two shifts, one ancilla wire
    with pytest.raises(PreconditionError):
        MulConstSpec(4, 2, 8, -1)
    MulConstSpec(4, 2, 8, 0b100)


def test_multiply_by_constant_golden_branches():
    spec = MulConstSpec(4, 3, 4, 0b1100)
    lay = mul_const_layout(spec)
    state = StateVector.from_label(lay.num_wires, 0)
    apply_gate(state, Gate.h(lay.wires("A")[0]))
    multiply_by_constant(state, spec, lay)
    branches = {
        (lay.value(int(l), "A"), lay.value(int(l), "B")): state.amplitudes[int(l)]
        for l in state.nonzero_labels()
    }
    assert set(branches) == {(0, 0), (8, 12)}
    for amp in branches.values():
        assert abs(abs(amp) - 1 / np.sqrt(2)) < 1e-12
    dist = segment_value_distribution(state, lay, "B")
    assert set(dist) == {0, 12}
    assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[12] - 0.5) < 1e-12


def test_multiply_by_constant_zero_multiplier():
    spec = MulConstSpec(4, 2, 4, 0)
    lay = mul_const_layout(spec)
    state = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "A", 9))
    multiply_by_constant(state, spec, lay)
    label = int(state.nonzero_labels()[0])
    assert lay.value(label, "A") == 9 and lay.value(label, "B") == 0


def test_multiply_by_constant_exhaustive_products():
    for multiplier in range(8):
        spec = MulConstSpec(4, 2, 7, multiplier)
        lay = mul_const_layout(spec)
        circ = build_multiply_by_constant_circuit(spec)
        shifts = num_shifts(multiplier)
        ext = extended_addend(lay.wires("A"), lay.wires("ancA"), shifts)
        for a in range(16):
            out = apply_circuit_to_label(circ, lay.label_with_value(0, "A", a))
            assert lay.value(out, "B") == a * multiplier
            shifted = sum(((out >> w) & 1) << i for i, w in enumerate(ext))
            assert shifted == a << shifts
            assert lay.value(out, "carry") == 0


def test_multiply_by_constant_recover_input_by_right_shifts():
    spec = MulConstSpec(4, 3, 4, 0b1100)
    lay = mul_const_layout(spec)
    state = StateVector.from_label(lay.num_wires, 0)
    apply_gate(state, Gate.h(lay.wires("A")[0]))
    snapshot_dist = {
        lay.value(int(l), "A"): abs(state.amplitudes[int(l)]) for l in state.nonzero_labels()
    }
    multiply_by_constant(state, spec, lay)
    # rename wires so the shift op sees A's register as its data segment
    shift_lay = RegisterLayout(
        [("a", lay.wires("ancA")), ("b", lay.wires("A")), ("c", lay.wires("c")),
         ("B", lay.wires("B")), ("carry", lay.wires("carry"))]
    )
    for _ in range(num_shifts(spec.multiplier)):
        shift(state, shift_lay, "right")
    got = {lay.value(int(l), "A"): abs(state.amplitudes[int(l)]) for l in state.nonzero_labels()}
    assert got == snapshot_dist


def _branches(m, labels):
    """Equal superposition of the given basis labels on m wires."""
    amps = np.zeros(1 << m, dtype=complex)
    amps[labels] = 1 / np.sqrt(len(labels))
    return StateVector(amps)


def test_multiply_by_constant_capacity_error_before_gates():
    # Refusals come in order: wire count, then zero checks, then capacity.
    spec = MulConstSpec(4, 2, 4, 0b111)
    lay = mul_const_layout(spec)
    every_a = [lay.label_with_value(0, "A", a) for a in range(16)]
    dirty_b = lay.label_with_value(every_a[15], "B", 1)
    # A on the top wires, so a state one wire short has no label for A = 3.
    top = RegisterLayout([("B", range(3)), ("ancA", [3]), ("carry", [4, 5]), ("c", [6]), ("A", [7, 8])])
    cases = [
        (top, MulConstSpec(2, 1, 3, 0b11), _branches(8, [0, 0xFF]), "circuit has 9 wires, state has 8"),
        # A = 15 overflows B too, but the dirty B is named first.
        (lay, spec, _branches(lay.num_wires, [every_a[15], dirty_b]),
         "accumulator B must be zero on every supported basis state"),
        # 15 * 7 needs 7 bits.
        (lay, spec, _branches(lay.num_wires, every_a), "accumulator of 4 wires cannot hold product 105"),
    ]
    for layout, run_spec, state, message in cases:
        before = state.amplitudes.copy()
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            multiply_by_constant(state, run_spec, layout)
        assert np.array_equal(state.amplitudes, before)


def test_multiply_by_constant_rejects_dirty_registers():
    spec = MulConstSpec(3, 1, 4, 0b10)
    lay = mul_const_layout(spec)
    for name, what in [("B", "accumulator B"), ("ancA", "shift ancilla of A"),
                       ("carry", "carry wires"), ("c", "shift control wire")]:
        dirty = StateVector.from_label(lay.num_wires, lay.label_with_value(0, name, 1))
        with pytest.raises(PreconditionError, match=f"^{what} must be zero"):
            multiply_by_constant(dirty, spec, lay)


def test_multiply_by_constant_builds_on_the_callers_layout():
    # The canonical widths in another order: B, A, ancA, carry, c.
    spec = MulConstSpec(2, 1, 4, 0b11)
    segments = [("B", range(0, 4)), ("A", range(4, 6)), ("ancA", [6]),
                ("carry", range(7, 10)), ("c", [10])]
    lay = RegisterLayout(segments)
    state = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "A", 3))
    multiply_by_constant(state, spec, lay)
    (label,) = state.nonzero_labels()
    assert lay.value(int(label), "B") == 9
    # A layout whose B is narrower than the spec's is refused, not misread.
    narrow = RegisterLayout([("B", range(0, 3)), ("A", range(3, 5)), ("ancA", [5]),
                             ("carry", range(6, 9)), ("c", [9]), ("spare", [10])])
    with pytest.raises(PreconditionError):
        multiply_by_constant(StateVector.from_label(11, 0), spec, narrow)


@pytest.mark.parametrize(
    "spec, multiply, canonical",
    [
        (MulConstSpec(2, 1, 4, 0b11), multiply_by_constant, mul_const_layout),
        (MulQuantumSpec(2, 1, 2, 1, 4), multiply_registers, mul_quantum_layout),
    ],
    ids=["constant", "registers"],
)
def test_multipliers_refuse_a_segment_the_spec_does_not_name(spec, multiply, canonical):
    lay = canonical(spec)
    m = lay.num_wires
    spare = RegisterLayout([*((n, lay.wires(n)) for n in lay.segment_names), ("spare", [m])])
    state = StateVector.from_label(m + 1, 0)
    with pytest.raises(PreconditionError, match="segment 'spare', which the spec does not name"):
        multiply(state, spec, spare)
    assert state.amplitude(0) == 1


_MUL_CONST = MulConstSpec(2, 1, 3, 0b11)
_MUL_QUANTUM = MulQuantumSpec(1, 1, 1, 1, 2)
# Each pipeline with a layout and a basis label that it accepts and moves.
_PIPELINES = {
    "shift": (shift_layout(3, 2), shift, 0b101),
    "rotate": (shift_layout(3, 2), rotate, 0b101),
    "select_qubit": (
        shift_layout(3, 2), lambda s, lay: select_qubit(s, lay, "b", 2, ancilla="a"), 0b101
    ),
    "add": (adder_layout(2, 3), lambda s, lay: add(s, lay, "A", "B", "carry"), 0b101),
    "multiply_by_constant": (
        mul_const_layout(_MUL_CONST), lambda s, lay: multiply_by_constant(s, _MUL_CONST, lay), 0b01
    ),
    "multiply_registers": (
        mul_quantum_layout(_MUL_QUANTUM), lambda s, lay: multiply_registers(s, _MUL_QUANTUM, lay),
        0b11,
    ),
}


@pytest.mark.parametrize("extra", [-1, 2])
@pytest.mark.parametrize("pipeline", sorted(_PIPELINES))
def test_pipelines_refuse_a_state_whose_wire_count_differs_from_the_layout(pipeline, extra):
    lay, run, label = _PIPELINES[pipeline]
    assert run(StateVector.from_label(lay.num_wires, label), lay).amplitude(label) == 0
    m = lay.num_wires + extra
    state = StateVector.from_label(m, label)
    with pytest.raises(PreconditionError, match=f"^circuit has {lay.num_wires} wires, state has {m}$"):
        run(state, lay)
    assert state.amplitude(label) == 1 and state.nonzero_labels().size == 1


def test_mul_quantum_spec_validation():
    with pytest.raises(PreconditionError):
        MulQuantumSpec(3, 1, 3, 2, 6)  # A ancilla too small
    with pytest.raises(PreconditionError):
        MulQuantumSpec(3, 2, 3, 1, 6)  # C ancilla too small
    with pytest.raises(PreconditionError):
        MulQuantumSpec(3, 2, 3, 2, 5)  # accumulator too small
    MulQuantumSpec(3, 2, 3, 2, 6)


def test_multiply_registers_identity_multiplier():
    spec = MulQuantumSpec(3, 2, 3, 2, 6)
    lay = mul_quantum_layout(spec)
    circ = build_multiply_registers_circuit(spec)
    for a in range(8):
        out = apply_circuit_to_label(
            circ, embed_quantum(lay, a, 1)
        )
        assert lay.value(out, "B") == a


def embed_quantum(lay, a, c):
    label = lay.label_with_value(0, "A", a)
    return lay.label_with_value(label, "C", c)


def test_multiply_registers_exhaustive_products():
    spec = MulQuantumSpec(3, 2, 3, 2, 6)
    lay = mul_quantum_layout(spec)
    circ = build_multiply_registers_circuit(spec)
    for a, c in itertools.product(range(8), range(8)):
        out = apply_circuit_to_label(circ, embed_quantum(lay, a, c))
        assert lay.value(out, "B") == a * c
        assert lay.value(out, "carry") == 0


def test_multiply_registers_two_by_two_superposition():
    spec = MulQuantumSpec(3, 2, 3, 2, 6)
    lay = mul_quantum_layout(spec)
    amps = np.zeros(1 << lay.num_wires, dtype=complex)
    for a in (1, 2):
        for c in (1, 3):
            amps[embed_quantum(lay, a, c)] = 0.5
    state = StateVector(amps)
    multiply_registers(state, spec, lay)
    products = sorted(lay.value(int(l), "B") for l in state.nonzero_labels())
    assert products == [1, 2, 3, 6]
    assert all(abs(abs(state.amplitudes[int(l)]) - 0.5) < 1e-12 for l in state.nonzero_labels())


def test_multiply_registers_rejects_dirty_and_handles_max_product():
    spec = MulQuantumSpec(3, 2, 3, 2, 6)
    lay = mul_quantum_layout(spec)
    dirty = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "ancC", 1))
    with pytest.raises(PreconditionError):
        multiply_registers(dirty, spec, lay)
    state = StateVector.from_label(lay.num_wires, embed_quantum(lay, 7, 7))
    multiply_registers(state, spec, lay)  # the widest product, 49, fills B
    label = int(state.nonzero_labels()[0])
    assert lay.value(label, "B") == 49


def test_multiply_registers_reversibility(rng):
    spec = MulQuantumSpec(2, 1, 2, 1, 4)
    circ = build_multiply_registers_circuit(spec)
    lay = mul_quantum_layout(spec)
    for _ in range(10):
        amps = np.zeros(1 << lay.num_wires, dtype=complex)
        coef = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        coef /= np.linalg.norm(coef)
        for idx, (a, c) in enumerate(itertools.product(range(4), range(4))):
            amps[embed_quantum(lay, a, c)] = coef[idx]
        state = StateVector(amps)
        snap = state.copy()
        run_circuit(state, circ)
        run_circuit(state, circ.reversed())
        assert state.allclose(snap, tol=1e-12)


def test_select_qubit():
    lay = shift_layout(4, 3)
    # register bits (0,0,1,0): the set bit sits at slot 3
    state = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "b", 0b0100))
    select_qubit(state, lay, "b", 3, ancilla="a")
    label = int(state.nonzero_labels()[0])
    assert lay.value(label, "b") & 1 == 1
    # slot 1 is the identity
    snap = state.copy()
    select_qubit(state, lay, "b", 1, ancilla="a")
    assert (state.amplitudes == snap.amplitudes).all()


def test_select_qubit_then_inverse_restores():
    lay = shift_layout(4, 3)
    start = lay.label_with_value(0, "b", 0b1010)
    state = StateVector.from_label(lay.num_wires, start)
    select_qubit(state, lay, "b", 3, ancilla="a")
    for _ in range(2):
        shift(state, lay, "left")
    assert state.amplitude(start) == 1


def test_select_qubit_needs_ancilla():
    lay = shift_layout(4, 1)
    state = StateVector.from_label(lay.num_wires, 0)
    with pytest.raises(PreconditionError):
        select_qubit(state, lay, "b", 3, ancilla="a")
    lay2 = shift_layout(4, 3)
    blocked = StateVector.from_label(lay2.num_wires, lay2.label_with_value(0, "a", 0b100))
    with pytest.raises(PreconditionError):
        select_qubit(blocked, lay2, "b", 3, ancilla="a")


def test_entanglement_witness_two_branch():
    # distinct products entangle the A/B cut; equal products leave it product
    spec = MulConstSpec(4, 3, 4, 0b1100)
    lay = mul_const_layout(spec)
    state = StateVector.from_label(lay.num_wires, 0)
    apply_gate(state, Gate.h(lay.wires("A")[0]))
    multiply_by_constant(state, spec, lay)
    assert not is_product_across(state, lay.wires("A")).is_product
    zero_mult = MulConstSpec(4, 3, 4, 0)
    lay0 = mul_const_layout(zero_mult)
    state0 = StateVector.from_label(lay0.num_wires, 0)
    apply_gate(state0, Gate.h(lay0.wires("A")[0]))
    multiply_by_constant(state0, zero_mult, lay0)
    assert is_product_across(state0, lay0.wires("A")).is_product


def test_pipelines_are_permutation_circuits():
    assert build_multiply_by_constant_circuit(MulConstSpec(4, 3, 4, 0b1100)).is_permutation()
    assert build_multiply_registers_circuit(MulQuantumSpec(3, 2, 3, 2, 6)).is_permutation()


def _reference_adder_gates(a, b, c, control=None):
    """The adder's gate list as written before its backward pass had one sum
    write per position: the reference that the adder must still match."""
    wa, wb = len(a), len(b)
    sum_write = Gate.cnot if control is None else lambda s, t: Gate.toffoli(control, s, t)
    gates = []
    for p in range(wb - 1):
        if p < wa:
            gates.append(Gate.toffoli(a[p], b[p], c[p]))
            gates.append(Gate.cnot(a[p], b[p]))
        if p >= 1:
            gates.append(Gate.toffoli(c[p - 1], b[p], c[p]))
    top = wb - 1
    if top < wa:
        gates.append(sum_write(a[top], b[top]))
    if top >= 1:
        gates.append(sum_write(c[top - 1], b[top]))
    for p in range(wb - 2, -1, -1):
        if p >= 1:
            gates.append(Gate.toffoli(c[p - 1], b[p], c[p]))
        if p < wa:
            gates.append(Gate.cnot(a[p], b[p]))
            gates.append(Gate.toffoli(a[p], b[p], c[p]))
            gates.append(sum_write(a[p], b[p]))
            if p >= 1:
                gates.append(sum_write(c[p - 1], b[p]))
        elif p >= 1:
            gates.append(sum_write(c[p - 1], b[p]))
    return gates


def _carries(layout):
    return layout.wires("carry") if layout.has_segment("carry") else ()


def _reference_multiply_by_constant(spec, layout):
    """The constant multiplier's own add-then-shift loop, as written before
    both multipliers shared one."""
    a, anc, b, c_wire = layout.wires("A"), layout.wires("ancA"), layout.wires("B"), layout.wires("c")[0]
    bits = [(spec.multiplier >> p) & 1 for p in range(spec.multiplier.bit_length())]
    gates = []
    for p, bit in enumerate(bits):
        if bit:
            addend = extended_addend(a, anc, p)[: len(b)]
            gates += _reference_adder_gates(addend, b, _carries(layout))
        if p < len(bits) - 1:
            gates += shift_cascade(anc, a, c_wire)
    return gates


def _reference_multiply_registers(spec, layout):
    """The register multiplier's own add-then-shift loop, as written before
    both multipliers shared one."""
    a, anc_a, c_reg, anc_c = (layout.wires(name) for name in ("A", "ancA", "C", "ancC"))
    b, c_wire = layout.wires("B"), layout.wires("c")[0]
    gates = []
    for p in range(spec.c_width):
        addend = extended_addend(a, anc_a, p)[: len(b)]
        gates += _reference_adder_gates(addend, b, _carries(layout), control=c_reg[0])
        if p < spec.c_width - 1:
            gates += shift_cascade(anc_a, a, c_wire)
            gates += shift_cascade(anc_c, c_reg, c_wire, "right")
    return gates


def test_adder_and_multipliers_match_their_reference_gate_lists():
    rng = np.random.default_rng(24)
    for wa in range(1, 9):
        for wb in range(wa, 9):
            # Registers on consecutive wires, then on shuffled wires with gaps among 40.
            for wires in (list(range(wa + 2 * wb)), rng.choice(40, wa + 2 * wb, replace=False).tolist()):
                a, b, c = wires[:wa], wires[wa:wa + wb], wires[wa + wb:wa + 2 * wb - 1]
                for control in (None, wires[-1]):
                    assert adder_gates(a, b, c, control) == _reference_adder_gates(a, b, c, control)
    for a_width, a_ancilla, b_width in itertools.product(range(1, 4), range(1, 4), range(1, 7)):
        for multiplier in range(1 << (a_ancilla + 1)):
            spec = MulConstSpec(a_width, a_ancilla, b_width, multiplier)
            layout = mul_const_layout(spec)
            want = _reference_multiply_by_constant(spec, layout)
            assert build_multiply_by_constant_circuit(spec).gates == tuple(want)
    for a_width, c_width in itertools.product(range(1, 4), range(1, 4)):
        for a_ancilla, c_ancilla in itertools.product(range(max(1, c_width - 1), 4), repeat=2):
            for b_width in (a_width + c_width, a_width + c_width + 1):
                spec = MulQuantumSpec(a_width, a_ancilla, c_width, c_ancilla, b_width)
                layout = mul_quantum_layout(spec)
                want = _reference_multiply_registers(spec, layout)
                assert build_multiply_registers_circuit(spec).gates == tuple(want)


@settings(max_examples=60, deadline=None)
@given(register_multiplications())
def test_multiply_registers_matches_its_reference_gate_list_on_random_layouts(case):
    spec, layout, _ = case
    want = _reference_multiply_registers(spec, layout)
    assert build_multiply_registers_circuit(spec, layout).gates == tuple(want)


@pytest.mark.parametrize(
    "build, spec, cascades",
    [
        (build_multiply_by_constant_circuit, MulConstSpec(2, 3, 5, 0b1011), 1),
        (build_multiply_by_constant_circuit, MulConstSpec(2, 1, 3, 1), 1),  # one round, no shift
        (build_multiply_registers_circuit, MulQuantumSpec(3, 2, 3, 2, 6), 2),
        (build_multiply_registers_circuit, MulQuantumSpec(2, 1, 1, 1, 3), 2),  # one round, no shift
    ],
)
def test_multipliers_build_each_shift_cascade_once(build, spec, cascades, monkeypatch):
    # Every round's shift is the same gates, so each cascade is built once
    # per circuit, and one-round schedules still build. The cache is emptied
    # first, so that the build is a cold one.
    compiled.cache_clear()
    calls = []
    monkeypatch.setattr(arithmetic, "shift_cascade", lambda *args: calls.append(args) or shift_cascade(*args))
    build(spec)
    assert len(calls) == cascades


def test_cost_report_paper_figures():
    report = cost_report(4, 3, 0b1100)
    assert report.shifts == 3
    assert report.swaps_per_shift == 6
    assert report.swap_gates == 18
    assert report.additions == 2
    assert report.num_values == 16
    assert report.classical_operations == 48
    kv = report.as_keyvalues()
    assert "swap_gates=18" in kv and "classical_operations=48" in kv


def test_cost_report_trivial_multipliers():
    report = cost_report(4, 3, 1)
    assert report.shifts == 0 and report.additions == 1
    report = cost_report(4, 3, 0)
    assert report.shifts == 0 and report.additions == 0


def test_cost_report_refuses_what_the_spec_refuses():
    # One rule for widths, multiplier and ancilla, with one message.
    cases = [
        ((2, 1, 0b1000), "multiplier 0b1000 needs 3 shifts but the ancilla holds only 1"),
        ((0, 1, 1), "register widths must be at least 1"),
        ((2, 0, 1), "register widths must be at least 1"),
        ((2, 1, -1), "multiplier must be nonnegative"),
    ]
    for (a_width, a_ancilla, multiplier), message in cases:
        for refuse in (lambda: MulConstSpec(a_width, a_ancilla, 6, multiplier),
                       lambda: cost_report(a_width, a_ancilla, multiplier)):
            with pytest.raises(PreconditionError) as excinfo:
                refuse()
            assert str(excinfo.value) == message
    assert cost_report(2, 3, 0b1000).shifts == 3


def test_cost_quantum_count_independent_of_values():
    small = cost_report(4, 3, 0b110, num_values=2)
    big = cost_report(4, 3, 0b110, num_values=1 << 10)
    assert small.swap_gates == big.swap_gates
    assert small.additions == big.additions
    assert big.classical_operations == 2 * (1 << 10)
    for bad in (0, -5):
        with pytest.raises(PreconditionError, match="num_values must be at least 1"):
            cost_report(4, 3, 0b110, num_values=bad)
