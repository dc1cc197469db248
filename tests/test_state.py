"""State construction, gate application, distributions, and entanglement checks."""

import numpy as np
import pytest

from qshift import (
    Circuit,
    Gate,
    PreconditionError,
    RegisterLayout,
    StateVector,
    apply_gate,
    is_product_across,
    new_basis_state,
    run_circuit,
    schmidt_rank,
    segment_value_distribution,
)
from conftest import apply_gate_matrix, random_circuit, random_state

ALL_KINDS = ("X", "H", "CNOT", "SWAP", "CSWAP", "TOFFOLI")


def test_new_basis_state():
    assert new_basis_state(3, "000").amplitude(0) == 1
    state = new_basis_state(3, "101")
    assert state.amplitude(0b101) == 1
    assert len(state.nonzero_labels()) == 1
    with pytest.raises(PreconditionError):
        new_basis_state(2, "1")
    with pytest.raises(PreconditionError):
        new_basis_state(3, "10x")
    with pytest.raises(PreconditionError, match="label 2.5 is not an integer"):
        StateVector.from_label(3, 2.5)
    assert StateVector.from_label(3, np.int64(5)).amplitude(5) == 1


def test_state_vector_norm_enforced():
    with pytest.raises(PreconditionError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(PreconditionError):
        StateVector(np.zeros(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(PreconditionError):
            StateVector(np.array([1.0, bad]))
    StateVector(np.array([1.0, 0.0]))  # fine


def test_max_wires_ceiling():
    with pytest.raises(PreconditionError):
        StateVector.from_label(25, 0)
    StateVector.from_label(25, 0, max_wires=25)


def test_apply_gate_matches_matrix_oracle(rng):
    # every primitive against independent dense-matrix application
    for _ in range(40):
        circ = random_circuit(rng, 4, 1, ALL_KINDS)
        state = random_state(rng, 4)
        want = apply_gate_matrix(state.amplitudes, circ.gates[0], 4)
        got = apply_gate(state.copy(), circ.gates[0])
        assert np.max(np.abs(got.amplitudes - want)) < 1e-12


def test_swap_exchanges_basis_bits():
    state = StateVector.from_label(4, 0b0100)  # wire 2 set
    apply_gate(state, Gate.swap(0, 2))
    assert state.amplitude(0b0001) == 1


def test_inhibited_swap_leaves_state_unchanged():
    state = StateVector.from_label(3, 0b010)  # control wire 2 is 0
    snap = state.copy()
    apply_gate(state, Gate.cswap(2, 0, 1))
    assert (state.amplitudes == snap.amplitudes).all()


def test_every_primitive_is_self_inverse(rng):
    for kind in ALL_KINDS:
        circ = random_circuit(rng, 4, 1, (kind,))
        gate = circ.gates[0]
        state = random_state(rng, 4)
        snap = state.copy()
        apply_gate(apply_gate(state, gate), gate)
        assert state.allclose(snap, tol=1e-12)


def test_out_of_range_wires_rejected():
    state = StateVector.from_label(2, 0)
    with pytest.raises(PreconditionError):
        apply_gate(state, Gate.x(2))


def test_run_circuit_empty_and_mismatch(rng):
    state = random_state(rng, 3)
    snap = state.copy()
    run_circuit(state, Circuit(3))
    assert (state.amplitudes == snap.amplitudes).all()
    with pytest.raises(PreconditionError):
        run_circuit(state, Circuit(4))


def test_circuit_then_reverse_is_identity(rng):
    for _ in range(10):
        circ = random_circuit(rng, 5, 40, ALL_KINDS)
        state = random_state(rng, 5)
        snap = state.copy()
        run_circuit(state, circ)
        run_circuit(state, circ.reversed())
        assert state.allclose(snap, tol=1e-12)


def test_norm_preserved_over_random_circuits(rng):
    # random circuits of length <= 100 on up to 10 wires
    for m in (2, 5, 10):
        for _ in range(5):
            circ = random_circuit(rng, m, 100, ALL_KINDS)
            state = random_state(rng, m)
            run_circuit(state, circ)
            assert abs(state.norm() - 1.0) < 1e-12


def test_permutation_circuits_map_basis_to_basis(rng):
    kinds = ("X", "CNOT", "SWAP", "CSWAP", "TOFFOLI")
    for _ in range(20):
        circ = random_circuit(rng, 6, 50, kinds)
        label = int(rng.integers(64))
        state = StateVector.from_label(6, label)
        run_circuit(state, circ)
        support = state.nonzero_labels()
        assert len(support) == 1
        assert state.amplitude(int(support[0])) == 1  # phase exactly +1


def test_register_layout_validation():
    with pytest.raises(PreconditionError):
        RegisterLayout([("a", [0, 1]), ("b", [1, 2])])  # overlap
    with pytest.raises(PreconditionError):
        RegisterLayout([("a", [0, 2])])  # gap
    with pytest.raises(PreconditionError):
        RegisterLayout([("a", [])])
    with pytest.raises(PreconditionError, match="segment 'a' wire 0.7 is not an integer"):
        RegisterLayout([("a", [0.7, 1.2])])
    layout = RegisterLayout([("a", [0, 1]), ("b", [2])])
    assert layout.num_wires == 3
    with pytest.raises(PreconditionError):
        layout.wires("missing")


def test_layout_values_and_display():
    layout = RegisterLayout([("a", [0, 1]), ("b", [2, 3, 4])])
    # slot 1 is least significant: b slots (1,1,0) hold value 3
    label = (1 << 2) | (1 << 3)
    assert layout.value(label, "b") == 3
    assert layout.value(label, "a") == 0
    assert layout.display_label(label) == "00" + "011"
    assert layout.label_from_display("00011") == label
    assert layout.label_with_value(0, "b", 5) == (1 << 2) | (1 << 4)


def test_segment_value_distribution_basis():
    layout = RegisterLayout([("r", [0, 1, 2]), ("rest", [3])])
    state = StateVector.from_label(4, 0b0011)  # slots (1,1,0) -> 3
    assert segment_value_distribution(state, layout, "r") == {3: 1.0}
    with pytest.raises(PreconditionError):
        segment_value_distribution(state, layout, "nope")


def test_segment_value_distribution_uniform_wire():
    layout = RegisterLayout([("r", [0]), ("rest", [1])])
    state = StateVector.from_label(2, 0)
    apply_gate(state, Gate.h(0))
    dist = segment_value_distribution(state, layout, "r")
    assert set(dist) == {0, 1}
    assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_schmidt_rank_basis_and_bell():
    basis = StateVector.from_label(4, 0b1010)
    for cut in ([0], [1, 3], [0, 1, 2]):
        assert schmidt_rank(basis, cut) == 1
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    check = is_product_across(bell, [0])
    assert check.schmidt_rank == 2 and not check.is_product
    with pytest.raises(PreconditionError):
        schmidt_rank(bell, [])
    with pytest.raises(PreconditionError):
        schmidt_rank(bell, [0, 1])
    with pytest.raises(PreconditionError, match="cut wire 0.5 is not an integer"):
        schmidt_rank(bell, [0.5])


def test_product_state_detected(rng):
    a = random_state(rng, 2).amplitudes
    b = random_state(rng, 3).amplitudes
    state = StateVector(np.kron(a, b))
    # kron order: the 2-wire factor occupies the high wires (3, 4)
    assert is_product_across(state, [3, 4]).is_product
    assert is_product_across(state, [0, 1, 2]).is_product
