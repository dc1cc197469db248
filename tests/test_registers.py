"""The register rule: every entry point that takes a register of wires checks it
through ``errors.register_wires``, so a bad register fails with a
``PreconditionError`` that names the register, and only with that."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshift import (
    Circuit,
    PreconditionError,
    RegisterLayout,
    StateVector,
    add,
    adder_gates,
    build_adder_circuit,
    classical_shift_oracle,
    controlled_add,
    decompose_cswap,
    decompose_swap,
    extended_addend,
    is_product_across,
    oracle_add,
    run_circuit,
    schmidt_rank,
    shift_cascade,
)


def _state(num_wires=4):
    return StateVector.from_label(num_wires, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: _state().support([0, 4]), "support wire 4 is off the state's 4 wires", id="support"),
        pytest.param(
            lambda: run_circuit(_state(), Circuit(4), [([1, -1], "probe")]),
            "check 'probe' wire -1 is off the state's 4 wires", id="run_circuit check",
        ),
        pytest.param(lambda: schmidt_rank(_state(), [0, 4]), "cut wire 4 is off the state's 4 wires", id="schmidt_rank"),
        pytest.param(lambda: schmidt_rank(_state(), []), "cut must be a nonempty proper subset of the wires",
                     id="schmidt_rank empty"),
        pytest.param(lambda: is_product_across(_state(), [True]), "cut wire True is not an integer", id="is_product_across"),
        pytest.param(
            lambda: RegisterLayout([("a", [0, 1]), ("b", [1, 2])]), "wires of 'b' overlap 'a'", id="layout overlap"
        ),
        pytest.param(lambda: RegisterLayout([("a", "01")]), "segment 'a' wire '0' is not an integer", id="layout str"),
        pytest.param(lambda: adder_gates(3, [0], []), "addend wires 3 are not an iterable of wires", id="adder_gates"),
        pytest.param(
            lambda: shift_cascade(3, [0], 1), "ancilla wires 3 are not an iterable of wires", id="shift_cascade"
        ),
        pytest.param(
            lambda: extended_addend(3, [0], 0), "addend wires 3 are not an iterable of wires", id="extended_addend"
        ),
        pytest.param(
            lambda: oracle_add(_state(), 3, [0]), "addend wires 3 are not an iterable of wires", id="oracle_add"
        ),
        pytest.param(
            lambda: add(_state(), None, 3, [0], []), "addend wires 3 are not an iterable of wires", id="add"
        ),
        pytest.param(
            lambda: classical_shift_oracle(3, [0], 0), "ancilla bits 3 are not an iterable of bits",
            id="classical_shift_oracle",
        ),
        pytest.param(lambda: decompose_swap("a", "b"), "wire 'a' is not an integer", id="decompose_swap str"),
        # A bool is named as a bool, not taken for the wire 1.
        pytest.param(lambda: decompose_swap(True, 1), "wire True is not an integer", id="decompose_swap bool"),
        pytest.param(lambda: decompose_cswap(1, 1, 0), "TOFFOLI wires must be distinct: (1, 1, 0)",
                     id="decompose_cswap repeated"),
        pytest.param(
            lambda: build_adder_circuit(4, [0], None, []), "target wires None are not an iterable of wires",
            id="build_adder_circuit",
        ),
        pytest.param(
            lambda: controlled_add(_state(), None, 3, [0], [1.5], []), "target wire 1.5 is not an integer",
            id="controlled_add",
        ),
        pytest.param(
            lambda: add(_state(), None, [0, 1], [2, 3], [7]), "carries wire 7 is off the state's 4 wires",
            id="add carries",
        ),
        pytest.param(
            lambda: shift_cascade([0], [1.0, 2.0], 3), "data wire 1.0 is not an integer",
            id="shift_cascade data",
        ),
        # A control wire goes through the integer rule before the overlap rule:
        # True is named as a bool, not taken for the wire 1 of the target.
        pytest.param(lambda: adder_gates([0], [1], [], True), "control wire True is not an integer",
                     id="adder_gates bool control"),
        pytest.param(lambda: build_adder_circuit(4, [0], [1], [], True), "control wire True is not an integer",
                     id="build_adder_circuit bool control"),
        pytest.param(lambda: add(_state(), None, [0], [1], [], True), "control wire True is not an integer",
                     id="add bool control"),
        pytest.param(lambda: adder_gates([0], [1], [], [5]), "control wire [5] is not an integer",
                     id="adder_gates list control"),
        pytest.param(lambda: shift_cascade([0], [1], True), "control wire True is not an integer",
                     id="shift_cascade bool control"),
        pytest.param(lambda: shift_cascade([0], [1], [2]), "control wire [2] is not an integer",
                     id="shift_cascade list control"),
    ],
)
def test_each_register_entry_point_names_a_bad_register(call, message):
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == message


_junk_wires = st.one_of(
    st.integers(-3, 9),
    st.integers(-3, 9).map(np.int64),
    st.floats(),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.text(max_size=2),
    st.none(),
)
_junk_registers = st.one_of(_junk_wires, st.lists(_junk_wires, max_size=4))

# Each takes one register (or a control wire), the others held to valid wires of a 7-wire state.
_REGISTER_ENTRY_POINTS = [
    lambda reg: _state(7).support(reg),
    lambda reg: run_circuit(_state(7), Circuit(7), [(reg, "probe")]),
    lambda reg: schmidt_rank(_state(7), reg),
    lambda reg: RegisterLayout([("a", reg)]),
    lambda reg: RegisterLayout([("a", [0]), ("b", reg)]),
    lambda reg: adder_gates(reg, [4, 5], [6]),
    lambda reg: adder_gates([0], reg, [6]),
    lambda reg: adder_gates([0], [4, 5], reg),
    lambda reg: add(_state(7), None, reg, [4, 5], [6]),
    lambda reg: controlled_add(_state(7), None, 0, [1], reg, [6]),
    lambda reg: oracle_add(_state(7), reg, [6]),
    lambda reg: oracle_add(_state(7), [0], reg),
    lambda reg: shift_cascade(reg, [4, 5], 6),
    lambda reg: shift_cascade([0, 1], reg, 6),
    lambda reg: shift_cascade([0, 1], [4, 5], reg),  # the control wire, a scalar
    lambda reg: adder_gates([0], [4, 5], [6], reg),
    lambda reg: extended_addend(reg, [4, 5], 1),
    lambda reg: extended_addend([0], reg, 1),
    lambda reg: classical_shift_oracle(reg, [0, 1], 0),
    lambda reg: classical_shift_oracle([1], reg, 1),
]


@settings(max_examples=150, deadline=None)
@given(_junk_registers, _junk_wires, _junk_wires)
def test_junk_registers_let_only_precondition_errors_escape(reg, w1, w2):
    for call in [*_REGISTER_ENTRY_POINTS, lambda reg: decompose_swap(w1, w2), lambda reg: decompose_cswap(6, w1, w2)]:
        try:
            call(reg)
        except PreconditionError:
            pass
