"""Gate records, decompositions, and basis-label evaluation."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshift import (
    Circuit,
    Gate,
    PreconditionError,
    StateVector,
    apply_circuit_to_label,
    apply_gate,
    decompose_cswap,
    decompose_swap,
    expand_cswaps,
    expand_swaps,
    run_circuit,
)
from qshift.errors import basis_labels
from qshift.gates import GATE_ARITY, apply_circuit_to_labels, apply_gate_to_label
from conftest import apply_circuit_matrix, apply_gate_matrix, random_state


def test_gate_validation():
    with pytest.raises(PreconditionError):
        Gate("ROTATE", (0,))
    with pytest.raises(PreconditionError):
        Gate.cnot(1, 1)
    with pytest.raises(PreconditionError):
        Gate("SWAP", (0, 1, 2))
    with pytest.raises(PreconditionError):
        Gate.toffoli(0, 1, 1)
    # A wire that is not an integer is refused, not truncated.
    with pytest.raises(PreconditionError, match="wire 1.5 is not an integer"):
        Gate("X", (1.5,))
    assert Gate.cnot(np.int64(0), np.uint8(1)).wires == (0, 1)


def test_circuit_is_a_frozen_tuple_of_gates():
    circ = Circuit(2, [Gate.cnot(0, 1)])
    assert circ.gates == (Gate.cnot(0, 1),)
    assert Circuit(2).gates == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        circ.gates = [Gate.cnot(0, 1), "junk"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        circ.num_wires = 3


def test_circuit_counts_and_reversal():
    circ = Circuit(3, [Gate.swap(0, 1), Gate.h(2), Gate.swap(0, 1)])
    assert circ.counts() == {"SWAP": 2, "H": 1}
    assert [g.kind for g in circ.reversed()] == ["SWAP", "H", "SWAP"]
    assert not circ.is_permutation()
    assert Circuit(3, [Gate.cswap(0, 1, 2)]).is_permutation()


def test_decompose_swap_structure():
    circ = decompose_swap(0, 1)
    assert [(g.kind, g.wires) for g in circ] == [
        ("CNOT", (0, 1)),
        ("CNOT", (1, 0)),
        ("CNOT", (0, 1)),
    ]
    with pytest.raises(PreconditionError):
        decompose_swap(2, 2)


def test_decompose_swap_matches_swap_on_all_basis_states():
    circ = decompose_swap(0, 1)
    for label in range(4):
        direct = apply_circuit_to_label(Circuit(2, [Gate.swap(0, 1)]), label)
        assert apply_circuit_to_label(circ, label) == direct


def test_decompose_cswap_structure():
    circ = decompose_cswap(2, 0, 1)
    assert [(g.kind, g.wires) for g in circ] == [
        ("CNOT", (1, 0)),
        ("TOFFOLI", (2, 0, 1)),
        ("CNOT", (1, 0)),
    ]
    with pytest.raises(PreconditionError):
        decompose_cswap(0, 0, 1)


def test_decompose_cswap_matches_cswap_exhaustively():
    circ = decompose_cswap(2, 0, 1)
    direct = Circuit(3, [Gate.cswap(2, 0, 1)])
    for label in range(8):
        assert apply_circuit_to_label(circ, label) == apply_circuit_to_label(direct, label)


def test_decompositions_match_on_100_random_states(rng):
    swap_pair = (decompose_swap(0, 1), Circuit(2, [Gate.swap(0, 1)]))
    cswap_pair = (decompose_cswap(2, 0, 1), Circuit(3, [Gate.cswap(2, 0, 1)]))
    for decomposed, direct in (swap_pair, cswap_pair):
        for _ in range(100):
            state = random_state(rng, direct.num_wires)
            want = run_circuit(state.copy(), direct)
            got = run_circuit(state.copy(), decomposed)
            assert got.allclose(want, tol=1e-12)


def test_cswap_control_semantics():
    # control 0: identity on the swapped pair; control 1: a plain swap
    state = StateVector.from_label(3, 0b001)  # wire 0 set, control wire 2 clear
    apply_gate(state, Gate.cswap(2, 0, 1))
    assert state.amplitude(0b001) == 1
    state = StateVector.from_label(3, 0b101)
    apply_gate(state, Gate.cswap(2, 0, 1))
    assert state.amplitude(0b110) == 1


def test_expand_swaps_and_cswaps_preserve_action(rng):
    circ = Circuit(4, [Gate.swap(0, 2), Gate.cswap(3, 1, 0), Gate.swap(1, 3)])
    for expanded in (expand_swaps(circ), expand_cswaps(circ), expand_cswaps(expand_swaps(circ))):
        state = random_state(rng, 4)
        want = apply_circuit_matrix(state.amplitudes, circ)
        got = run_circuit(state.copy(), expanded)
        assert np.max(np.abs(got.amplitudes - want)) < 1e-12
    full = expand_cswaps(expand_swaps(circ))
    assert set(full.counts()) == {"CNOT", "TOFFOLI"}


def test_label_evaluation_rejects_h():
    with pytest.raises(PreconditionError, match="^H is not a basis permutation$"):
        apply_circuit_to_label(Circuit(1, [Gate.h(0)]), 0)
    with pytest.raises(PreconditionError, match="^H is not a basis permutation$"):
        apply_circuit_to_labels(Circuit(2, [Gate.x(1), Gate.h(0)]), np.zeros(1, dtype=np.int64))
    with pytest.raises(PreconditionError, match="^H is not a basis permutation$"):
        Gate.h(0).roles


@pytest.mark.parametrize("kind", sorted(set(GATE_ARITY) - {"H"}))
def test_every_kernel_maps_each_label_as_the_gate_matrix_on_every_wire_order(kind):
    # Every ordered tuple of distinct wires of a 4-wire register, from all 16 labels: the scalar, plane
    # and dense kernels and the gate-free matrix agree, which pins which slice a SWAP or CSWAP sends
    # where for each wire order.
    labels = np.arange(16, dtype=np.int64)
    for wires in itertools.permutations(range(4), GATE_ARITY[kind]):
        gate = Gate(kind, wires)
        planes = apply_circuit_to_labels(Circuit(4, [gate]), labels).tolist()
        for label in range(16):
            image = apply_gate_matrix(np.eye(16, dtype=complex)[label], gate, 4)
            want = int(np.flatnonzero(image)[0])
            assert image.tolist() == np.eye(16)[want].tolist()
            assert apply_gate_to_label(gate, label) == planes[label] == want, (wires, label)
            dense = apply_gate(StateVector.from_label(4, label), gate)
            assert [x.tolist() for x in dense.support()] == [[want], [1]], (wires, label)


@st.composite
def label_runs(draw):
    """A circuit on 1-63 wires drawn from one of three gate mixes (all five
    permutation kinds, SWAPs only, or mostly CSWAPs), and labels that
    include one with the top wire set."""
    m = draw(st.integers(1, 63))
    mix = draw(st.sampled_from([
        ("X", "CNOT", "TOFFOLI", "SWAP", "CSWAP"),
        ("SWAP",),
        ("CSWAP", "CSWAP", "CSWAP", "SWAP", "X"),
    ]))
    kinds = [kind for kind in mix if GATE_ARITY[kind] <= m] or ["X"]
    gate = st.sampled_from(kinds).flatmap(
        lambda kind: st.lists(
            st.integers(0, m - 1), min_size=GATE_ARITY[kind], max_size=GATE_ARITY[kind], unique=True
        ).map(lambda wires: Gate(kind, wires))
    )
    circuit = Circuit(m, draw(st.lists(gate, max_size=40)))
    label = st.integers(0, 2**m - 1)
    labels = draw(st.lists(label, min_size=1, max_size=20))
    labels.append(draw(label) | 1 << (m - 1))
    return circuit, labels


@settings(max_examples=200, deadline=None)
@given(label_runs())
def test_plane_kernel_matches_label_by_label(case):
    circuit, labels = case
    array = np.array(labels, dtype=np.int64)
    got = apply_circuit_to_labels(circuit, array)
    assert got.dtype == np.int64
    assert got.tolist() == [apply_circuit_to_label(circuit, label) for label in labels]
    assert array.tolist() == labels
    assert apply_circuit_to_labels(circuit, labels).tolist() == got.tolist()
    assert basis_labels(array, circuit.num_wires) is array  # an int64 input is read, not copied


_MIXED = Circuit(4, [Gate.x(0), Gate.cnot(0, 2), Gate.swap(1, 3), Gate.toffoli(0, 2, 1), Gate.cswap(3, 0, 2)])


@pytest.mark.parametrize("label", [0, 3, np.int64(9), 15])
def test_plane_kernel_maps_a_0d_label_as_the_scalar_kernel(label):
    got = apply_circuit_to_labels(_MIXED, label)
    assert got.shape == () and got.dtype == np.int64
    assert int(got) == apply_circuit_to_label(_MIXED, label)


def test_plane_kernel_maps_a_2d_array_elementwise():
    labels = np.array([[0, 5], [10, 15]])
    got = apply_circuit_to_labels(_MIXED, labels)
    assert got.shape == (2, 2)
    assert got.tolist() == apply_circuit_to_labels(_MIXED, labels.ravel()).reshape(2, 2).tolist()
    assert got.ravel().tolist() == [apply_circuit_to_label(_MIXED, int(x)) for x in labels.ravel()]


@pytest.mark.parametrize("labels, bad", [([5], 5), ([-1], -1), ([0, 3, 4, 1], 4)])
def test_plane_kernel_refuses_labels_off_the_circuit(labels, bad):
    circuit = Circuit(2, [Gate.x(0)])
    message = f"^label {bad} out of range for 2 wires$"
    with pytest.raises(PreconditionError, match=message):
        apply_circuit_to_label(circuit, bad)
    with pytest.raises(PreconditionError, match=message):
        apply_circuit_to_labels(circuit, np.array(labels, dtype=np.int64))
