"""Shift/rotation register: circuit structure, oracle equivalence, gate counts."""

import itertools
import math

import numpy as np
import pytest

from qshift import (
    PreconditionError,
    ShiftSpec,
    StateVector,
    apply_circuit_to_label,
    build_shift_circuit,
    classical_shift_oracle,
    gate_count,
    is_product_across,
    rotate,
    run_circuit,
    select_qubit,
    shift,
    shift_cascade,
    shift_layout,
)


def oracle_label(layout, label, direction):
    """Image of a full basis label under the classical oracle."""
    a = [(label >> w) & 1 for w in layout.wires("a")]
    b = [(label >> w) & 1 for w in layout.wires("b")]
    c = (label >> layout.wires("c")[0]) & 1
    a2, b2 = classical_shift_oracle(a, b, c, direction)
    out = c << layout.wires("c")[0]
    for slot, w in enumerate(layout.wires("a")):
        out |= a2[slot] << w
    for slot, w in enumerate(layout.wires("b")):
        out |= b2[slot] << w
    return out


def test_circuit_structure_canonical_order():
    circ = build_shift_circuit(ShiftSpec(4, 2, "left"))
    lay = shift_layout(4, 2)
    a, b, c = lay.wires("a"), lay.wires("b"), lay.wires("c")[0]
    assert [(g.kind, g.wires) for g in circ] == [
        ("SWAP", (a[0], a[1])),
        ("SWAP", (b[2], b[3])),
        ("SWAP", (b[1], b[2])),
        ("SWAP", (b[0], b[1])),
        ("SWAP", (a[1], b[0])),
        ("CSWAP", (c, a[1], b[0])),
    ]
    assert circ.counts() == {"SWAP": 5, "CSWAP": 1}


def test_minimal_register():
    circ = build_shift_circuit(ShiftSpec(1, 1, "left"))
    assert circ.counts() == {"SWAP": 1, "CSWAP": 1}


def test_right_is_gate_reversed_left():
    left = build_shift_circuit(ShiftSpec(3, 2, "left"))
    right = build_shift_circuit(ShiftSpec(3, 2, "right"))
    assert right.gates == list(reversed(left.gates))


def test_spec_validation():
    with pytest.raises(PreconditionError):
        ShiftSpec(0, 1)
    with pytest.raises(PreconditionError):
        ShiftSpec(1, 1, "sideways")
    # The oracle refuses non-integer bits instead of truncating them.
    for a, b, c in [((0.5, 1), (1, 0), 0), ((0, 1), (1.7, 0), 0), ((0, 1), (1, 0), 0.0)]:
        with pytest.raises(PreconditionError, match="is not an integer"):
            classical_shift_oracle(a, b, c)


def test_classical_oracle_spec_cases():
    assert classical_shift_oracle((0, 0), (1, 1, 0, 0), 0, "left") == (
        (0, 0),
        (0, 1, 1, 0),
    )
    # c=1 differs from c=0 exactly by exchanging the last ancilla and first data slot
    a0, b0 = classical_shift_oracle((1, 0), (1, 0, 1), 0, "left")
    a1, b1 = classical_shift_oracle((1, 0), (1, 0, 1), 1, "left")
    assert a1[:-1] == a0[:-1] and b1[1:] == b0[1:]
    assert (a1[-1], b1[0]) == (b0[0], a0[-1])


def test_oracle_right_inverts_left_exhaustively():
    for n, k in itertools.product(range(1, 6), range(1, 4)):
        for label in range(1 << (n + k)):
            a = tuple((label >> i) & 1 for i in range(k))
            b = tuple((label >> (k + i)) & 1 for i in range(n))
            for c in (0, 1):
                mid = classical_shift_oracle(a, b, c, "left")
                assert classical_shift_oracle(*mid, c, "right") == (a, b)


def test_oracle_agrees_with_adjacent_transposition_composition():
    # recompute the net permutation by composing the pairwise exchanges
    for n, k in ((3, 2), (4, 3), (1, 1), (5, 1)):
        for label in range(1 << (n + k)):
            slots = [(label >> i) & 1 for i in range(k + n)]  # a slots then b slots
            for c in (0, 1):
                ref = slots[:]
                for i in range(k - 1):  # ancilla cascade
                    ref[i], ref[i + 1] = ref[i + 1], ref[i]
                for j in range(n - 1, 0, -1):  # data bubbles from the top down
                    ref[k + j - 1], ref[k + j] = ref[k + j], ref[k + j - 1]
                ref[k - 1], ref[k] = ref[k], ref[k - 1]  # exchange a_k and b_1
                if c:  # the final controlled exchange
                    ref[k - 1], ref[k] = ref[k], ref[k - 1]
                a, b = tuple(slots[:k]), tuple(slots[k:])
                assert classical_shift_oracle(a, b, c, "left") == (
                    tuple(ref[:k]),
                    tuple(ref[k:]),
                )


def test_circuit_equals_oracle_exhaustively():
    # all n <= 5, k <= 3, both controls, both directions, every basis state
    for n, k in itertools.product(range(1, 6), range(1, 4)):
        lay = shift_layout(n, k)
        for direction in ("left", "right"):
            circ = build_shift_circuit(ShiftSpec(n, k, direction))
            for label in range(1 << lay.num_wires):
                assert apply_circuit_to_label(circ, label) == oracle_label(lay, label, direction)


def test_circuit_equals_oracle_dense_amplitudes():
    # dense check on a midsize register: amplitude exactly 1 at the prediction
    lay = shift_layout(4, 2)
    circ = build_shift_circuit(ShiftSpec(4, 2, "left"))
    for label in range(1 << lay.num_wires):
        state = StateVector.from_label(lay.num_wires, label)
        run_circuit(state, circ)
        assert state.amplitude(oracle_label(lay, label, "left")) == 1


def test_shift_doubles_data_value():
    lay = shift_layout(4, 2)
    # b slots (0,1,0,0) hold value 2
    state = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "b", 2))
    shift(state, lay, "left")
    label = int(state.nonzero_labels()[0])
    assert lay.value(label, "b") == 4
    assert lay.value(label, "a") == 0
    # zero state is a fixed point
    zero = StateVector.from_label(lay.num_wires, 0)
    shift(zero, lay, "left")
    assert zero.amplitude(0) == 1


def test_shift_requires_control_zero():
    lay = shift_layout(2, 1)
    state = StateVector.from_label(lay.num_wires, 1 << lay.wires("c")[0])
    with pytest.raises(PreconditionError):
        shift(state, lay, "left")


def test_shift_superposition_stays_product():
    # branches 1 and 2 share b_n = 0, so the ancilla stays factorizable
    lay = shift_layout(4, 2)
    amps = np.zeros(1 << lay.num_wires, dtype=complex)
    amps[lay.label_with_value(0, "b", 1)] = 1 / np.sqrt(2)
    amps[lay.label_with_value(0, "b", 2)] = 1 / np.sqrt(2)
    state = StateVector(amps)
    shift(state, lay, "left")
    dist = {lay.value(int(l), "b") for l in state.nonzero_labels()}
    assert dist == {2, 4}
    assert is_product_across(state, lay.wires("a")).is_product


def test_shift_then_inverse_identity(rng):
    lay = shift_layout(3, 2)
    amps = np.zeros(1 << lay.num_wires, dtype=complex)
    support = [lay.label_with_value(0, "b", v) for v in (1, 3, 5)]
    vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vals /= np.linalg.norm(vals)
    for lb, v in zip(support, vals):
        amps[lb] = v
    state = StateVector(amps)
    snap = state.copy()
    shift(state, lay, "left")
    shift(state, lay, "right")
    assert state.allclose(snap, tol=1e-12)


def test_rotate_value_semantics():
    lay = shift_layout(4, 2)
    for start, want in ((1, 2), (8, 1)):
        state = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "b", start))
        rotate(state, lay, "left")
        label = int(state.nonzero_labels()[0])
        assert lay.value(label, "b") == want
        assert lay.value(label, "c") == 0  # control restored


def test_rotate_order_is_lcm():
    for n, k in itertools.product(range(1, 6), range(1, 4)):
        lay = shift_layout(n, k)
        label = lay.label_with_value(lay.label_with_value(0, "b", 1 % (1 << n)), "a", 1 % (1 << k))
        state = StateVector.from_label(lay.num_wires, label)
        snap = state.copy()
        order = math.lcm(n, k)
        seen_early = False
        for step in range(1, order + 1):
            rotate(state, lay, "left")
            if step < order and (state.amplitudes == snap.amplitudes).all():
                seen_early = True
        assert (state.amplitudes == snap.amplitudes).all()
        if n == 4 and k == 3:
            assert not seen_early  # the order is exactly lcm for this seed pattern


def test_rotate_then_counter_rotate(rng):
    lay = shift_layout(5, 3)
    amps = np.zeros(1 << lay.num_wires, dtype=complex)
    support = [lay.label_with_value(0, "b", v) for v in (0, 7, 21)]
    vals = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vals /= np.linalg.norm(vals)
    for lb, v in zip(support, vals):
        amps[lb] = v
    state = StateVector(amps)
    snap = state.copy()
    rotate(state, lay, "left")
    rotate(state, lay, "right")
    assert state.allclose(snap, tol=1e-12)


def test_gate_count_modes():
    report = gate_count(ShiftSpec(4, 2), "none")
    assert report.counts == {"SWAP": 5, "CSWAP": 1}
    report = gate_count(ShiftSpec(4, 2), "cnot")
    assert report.counts == {"CNOT": 15, "CSWAP": 1}
    report = gate_count(ShiftSpec(4, 2), "swaps-to-cnot")
    assert report.counts == {"CNOT": 15, "CSWAP": 1}
    report = gate_count(ShiftSpec(1, 1), "all")
    assert report.counts == {"CNOT": 5, "TOFFOLI": 1}
    with pytest.raises(PreconditionError):
        gate_count(ShiftSpec(1, 1), "sometimes")


def test_gate_count_report_text():
    report = gate_count(ShiftSpec(4, 2), "none")
    assert report.cnot_equivalent == 17
    assert report.toffoli_equivalent == 1
    assert "swap_gates" not in report.as_keyvalues()
    assert "swap=5" in report.as_keyvalues()
    assert "cswap=1" in report.as_keyvalues()


def test_shift_linearity(rng):
    # shifting a superposition equals superposing shifted basis states
    lay = shift_layout(3, 2)
    circ = build_shift_circuit(ShiftSpec(3, 2, "left"))
    for values in ((1, 6), (1, 2, 5)):
        amps = np.zeros(1 << lay.num_wires, dtype=complex)
        labels = [lay.label_with_value(0, "b", v) for v in values]
        coef = rng.standard_normal(len(values)) + 1j * rng.standard_normal(len(values))
        coef /= np.linalg.norm(coef)
        for lb, cf in zip(labels, coef):
            amps[lb] = cf
        state = StateVector(amps)
        run_circuit(state, circ)
        for lb, cf in zip(labels, coef):
            assert abs(state.amplitude(oracle_label(lay, lb, "left")) - cf) < 1e-12


@pytest.mark.parametrize("build, message", [
    (lambda: shift_cascade((0, 1), (2, 0), 3), "wires of 'data' overlap 'ancilla'"),
    (lambda: shift_cascade((0, 1), (2, 3), 0), "wires of 'control' overlap 'ancilla'"),
    (lambda: shift_cascade((0,), (1, 2), 2, "right"), "wires of 'control' overlap 'data'"),
    (lambda: select_qubit(StateVector.from_label(4, 0b0010), shift_layout(2, 1), "b", 2,
                          ancilla="b"), "wires of 'data' overlap 'ancilla'"),
], ids=["data-ancilla", "control-ancilla", "control-data", "select-qubit-on-own-ancilla"])
def test_overlapping_registers_are_refused(build, message):
    with pytest.raises(PreconditionError, match=message):
        build()
