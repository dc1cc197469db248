"""Every public callable refuses junk input with a ``PreconditionError``: one
valid call per callable in ``qshift.__all__`` (and per ``StateVector`` and
``RegisterLayout`` method that takes outside input, and ``qshift.cli.prepare_state``),
each positional argument replaced in turn by each junk value, lets no other
exception escape."""

import functools
import os

import numpy as np
import pytest

import qshift
import qshift.cli
from qshift import (
    Circuit,
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    PreconditionError,
    RegisterLayout,
    ShiftSpec,
    StateVector,
)

_JUNK = ["x", None, 3.5, [[1]], True]


def _state(num_wires):
    return StateVector.from_label(num_wires, 0)


def _shift_layout():
    return qshift.shift_layout(2, 2)  # a: 0-1, b: 2-3, c: 4


def _circuit():
    return Circuit(3, [Gate.swap(0, 1), Gate.cswap(2, 0, 1)])


# name -> a function returning (callable, positional arguments) of a valid
# call, built afresh for each call since most calls change their state.
_VALID_CALLS = {
    "Circuit": lambda: (Circuit, [3, [Gate.x(0)]]),
    "Gate": lambda: (Gate, ["CNOT", (0, 1)]),
    "MulConstSpec": lambda: (MulConstSpec, [1, 1, 2, 1]),
    "MulQuantumSpec": lambda: (MulQuantumSpec, [1, 1, 1, 1, 2]),
    "PreconditionError": lambda: (PreconditionError, ["message"]),
    "RegisterLayout": lambda: (RegisterLayout, [[("a", [0]), ("b", [1, 2])]]),
    "ShiftSpec": lambda: (ShiftSpec, [2, 2, "right"]),
    "StateVector": lambda: (StateVector, [[0.6, 0.8]]),
    "add": lambda: (qshift.add, [_state(7), None, [0], [4, 5], [6], 1]),
    "adder_gates": lambda: (qshift.adder_gates, [[0], [1, 2], [3], 4]),
    "apply_circuit_to_label": lambda: (qshift.apply_circuit_to_label, [_circuit(), 5]),
    "apply_gate": lambda: (qshift.apply_gate, [_state(3), Gate.h(1)]),
    "build_adder_circuit": lambda: (qshift.build_adder_circuit, [5, [0], [1, 2], [3], 4]),
    "build_multiply_by_constant_circuit": lambda: (
        qshift.build_multiply_by_constant_circuit, [MulConstSpec(1, 1, 2, 1), None]
    ),
    "build_multiply_registers_circuit": lambda: (
        qshift.build_multiply_registers_circuit, [MulQuantumSpec(1, 1, 1, 1, 2), None]
    ),
    "build_shift_circuit": lambda: (qshift.build_shift_circuit, [ShiftSpec(2, 2)]),
    "classical_shift_oracle": lambda: (qshift.classical_shift_oracle, [[0, 1], [1, 0], 1, "right"]),
    "controlled_add": lambda: (qshift.controlled_add, [_state(7), None, 1, [0], [4, 5], [6]]),
    "cost_report": lambda: (qshift.cost_report, [2, 1, 3, 4]),
    "decompose_cswap": lambda: (qshift.decompose_cswap, [0, 1, 2]),
    "decompose_swap": lambda: (qshift.decompose_swap, [0, 1]),
    "expand_cswaps": lambda: (qshift.expand_cswaps, [_circuit()]),
    "expand_swaps": lambda: (qshift.expand_swaps, [_circuit()]),
    "extended_addend": lambda: (qshift.extended_addend, [[0], [1, 2], 1]),
    "gate_count": lambda: (qshift.gate_count, [ShiftSpec(2, 2), "all"]),
    "is_product_across": lambda: (qshift.is_product_across, [_state(3), [0], 1e-9]),
    "mul_const_layout": lambda: (qshift.mul_const_layout, [MulConstSpec(1, 1, 2, 1)]),
    "mul_quantum_layout": lambda: (qshift.mul_quantum_layout, [MulQuantumSpec(1, 1, 1, 1, 2)]),
    "multiply_by_constant": lambda: (
        qshift.multiply_by_constant, [_state(6), MulConstSpec(1, 1, 2, 1), None]
    ),
    "multiply_registers": lambda: (
        qshift.multiply_registers, [_state(8), MulQuantumSpec(1, 1, 1, 1, 2), None]
    ),
    "new_basis_state": lambda: (qshift.new_basis_state, [3, "010"]),
    "num_shifts": lambda: (qshift.num_shifts, [6]),
    "oracle_add": lambda: (qshift.oracle_add, [_state(4), [0], [1, 2]]),
    "read_state": lambda: (qshift.read_state, ["x", _shift_layout()]),
    "rotate": lambda: (qshift.rotate, [_state(5), _shift_layout(), "right"]),
    "run_circuit": lambda: (qshift.run_circuit, [_state(3), _circuit(), [([2], "control")]]),
    "schmidt_rank": lambda: (qshift.schmidt_rank, [_state(3), [0], 1e-9]),
    "segment_value_distribution": lambda: (
        qshift.segment_value_distribution, [_state(5), _shift_layout(), "b"]
    ),
    "select_qubit": lambda: (
        functools.partial(qshift.select_qubit, ancilla="a"), [_state(5), _shift_layout(), "b", 2]
    ),
    "shift": lambda: (qshift.shift, [_state(5), _shift_layout(), "left"]),
    "shift_cascade": lambda: (qshift.shift_cascade, [[0, 1], [2, 3], 4, "right"]),
    "shift_layout": lambda: (qshift.shift_layout, [2, 2]),
    "state_from_text": lambda: (qshift.state_from_text, ["wires=5\n00000 1 0\n", _shift_layout()]),
    "state_to_text": lambda: (qshift.state_to_text, [_state(5), _shift_layout()]),
    "write_state": lambda: (qshift.write_state, [_state(5), _shift_layout(), "x"]),
    "StateVector.from_label": lambda: (StateVector.from_label, [3, 5]),
    "StateVector.from_support": lambda: (StateVector.from_support, [3, [5, 1], [0.6, 0.8j]]),
    "StateVector.amplitude": lambda: (_state(3).amplitude, [5]),
    "StateVector.support": lambda: (_state(3).support, [[0, 2]]),
    "StateVector.allclose": lambda: (_state(3).allclose, [_state(3), 1e-9]),
    "RegisterLayout.packed": lambda: (RegisterLayout.packed, [[("a", 1), ("b", 2)]]),
    "RegisterLayout.has_segment": lambda: (_shift_layout().has_segment, ["b"]),
    "RegisterLayout.wires": lambda: (_shift_layout().wires, ["b"]),
    "RegisterLayout.width": lambda: (_shift_layout().width, ["b"]),
    "RegisterLayout.value": lambda: (_shift_layout().value, [12, "b"]),
    "RegisterLayout.values": lambda: (_shift_layout().values, [[12, 4], "b"]),
    "RegisterLayout.label_with_value": lambda: (_shift_layout().label_with_value, [12, "b", 1]),
    "RegisterLayout.display_label": lambda: (_shift_layout().display_label, [12]),
    "RegisterLayout.label_from_display": lambda: (_shift_layout().label_from_display, ["00011"]),
    # Public in qshift.cli, though not in __all__: library callers reach it with any values.
    "cli.prepare_state": lambda: (qshift.cli.prepare_state, ["uniform b", _shift_layout()]),
}


def test_the_table_covers_every_public_name():
    assert set(qshift.__all__) <= set(_VALID_CALLS)


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_junk_arguments_let_only_precondition_errors_escape(name, tmp_path, monkeypatch):
    # The state-file calls read and write the file "x" here, so the junk "x" is a valid path.
    monkeypatch.chdir(tmp_path)
    qshift.write_state(_state(5), _shift_layout(), "x")
    fn, args = _VALID_CALLS[name]()
    fn(*args)
    escaped = []
    for i in range(len(args)):
        for junk in _JUNK:
            if (name, i, junk) == ("read_state", 0, True):
                continue  # open(True) would close this process's stdout; test_statefile runs it apart
            fn, args = _VALID_CALLS[name]()
            try:
                fn(*args[:i], junk, *args[i + 1:])
            except PreconditionError:
                pass
            except Exception as exc:  # collected, so one run names every escape
                escaped.append(f"argument {i} = {junk!r}: {type(exc).__name__}: {exc}")
    assert escaped == []
    assert os.listdir(tmp_path) == ["x"]  # a refused write leaves no temporary file


def test_assigning_amplitudes_refuses_junk_and_a_wrong_count_and_keeps_the_state():
    # The setter is the one checked way a buffer enters a state after construction: each refusal
    # names its fault and leaves the buffer and its bound as they were; an accepted array is copied in.
    refusals = [
        ("x", "amplitudes of dtype <U1 are not numbers"),
        (None, "amplitudes of dtype object are not numbers"),
        (3.5, "amplitude count 1 is not 2**3"),
        ([[1]], "amplitude count 1 is not 2**3"),
        (True, "amplitude count 1 is not 2**3"),
        (np.ones(4), "amplitude count 4 is not 2**3"),
    ]
    assert [junk for junk, _ in refusals[:-1]] == _JUNK
    state = StateVector.from_support(3, [1, 6], [0.6, -0.8j])
    before, bound = state._amps.view(np.uint64).copy(), state._live
    for junk, message in refusals:
        with pytest.raises(PreconditionError) as refused:
            state.amplitudes = junk
        assert str(refused.value) == message
        assert np.array_equal(state._amps.view(np.uint64), before) and state._live == bound
    values = np.arange(8.0) * 1j
    state.amplitudes = values
    values[:] = 0.0
    assert state._amps.tolist() == list(np.arange(8.0) * 1j) and state._live == 8
