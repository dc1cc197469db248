"""State construction, gate application, distributions, and entanglement checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshift import (
    Circuit,
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    PreconditionError,
    RegisterLayout,
    ShiftSpec,
    StateVector,
    apply_circuit_to_label,
    apply_gate,
    classical_shift_oracle,
    cost_report,
    extended_addend,
    gate_count,
    is_product_across,
    new_basis_state,
    num_shifts,
    run_circuit,
    schmidt_rank,
    segment_value_distribution,
    select_qubit,
    shift_layout,
    state_from_text,
)
from qshift.arithmetic import num_additions
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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: StateVector(["1", "0"]), "amplitudes of dtype <U1 are not numbers", id="digit strings"),
        pytest.param(lambda: StateVector(["a", "0"]), "amplitudes of dtype <U1 are not numbers", id="strings"),
        pytest.param(lambda: StateVector([None, 1]), "amplitudes of dtype object are not numbers", id="None"),
        pytest.param(
            lambda: StateVector(np.array([1, 0], dtype="datetime64[s]")),
            "amplitudes of dtype datetime64[s] are not numbers", id="datetimes",
        ),
        pytest.param(
            lambda: run_circuit(StateVector.from_label(2, 0), Circuit(2), [(1, "x")]),
            "check 'x' wires 1 are not an iterable of wires", id="bare check wire",
        ),
    ],
)
def test_non_numeric_amplitudes_and_bare_check_wires_are_refused(call, message):
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_max_wires_ceiling():
    with pytest.raises(PreconditionError):
        StateVector.from_label(25, 0)
    # One ceiling, with no override: 25 wires are refused however the state is made.
    refusals = [
        lambda: StateVector(np.broadcast_to(np.complex128(0), (1 << 25,))),
        lambda: new_basis_state(25, "0" * 25),
        lambda: state_from_text("wires=25\n" + "0" * 25 + " 1 0\n", RegisterLayout.single("q", 25)),
    ]
    for refuse in refusals:
        with pytest.raises(PreconditionError, match="^25 wires exceeds the 24-wire ceiling$"):
            refuse()


def test_oversized_input_is_refused_before_it_is_copied():
    # A broadcast view of 2**25 amplitudes holds 16 bytes; its copy would take 512 MiB.
    view = np.broadcast_to(np.complex128(0), (1 << 25,))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="^25 wires exceeds the 24-wire ceiling$"):
            StateVector(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_state_reads_refuse_labels_and_wires_off_the_state():
    state = new_basis_state(2, "11")
    assert state.amplitude(3) == 1 and state.amplitude(np.int64(3)) == 1
    cases = [
        (lambda: state.amplitude(True), "label True is not an integer"),
        (lambda: state.amplitude(np.True_), "label np.True_ is not an integer"),
        (lambda: state.amplitude(-1), "label -1 out of range for 2 wires"),
        (lambda: state.amplitude(4), "label 4 out of range for 2 wires"),
        (lambda: state.amplitude(1.0), "label 1.0 is not an integer"),
        (lambda: state.amplitude("3"), "label '3' is not an integer"),
        (lambda: state.support([0, 2]), "support wire 2 is off the state's 2 wires"),
        (lambda: state.support([-1]), "support wire -1 is off the state's 2 wires"),
        (lambda: state.support([0.5]), "support wire 0.5 is not an integer"),
    ]
    for call, message in cases:
        with pytest.raises(PreconditionError) as excinfo:
            call()
        assert str(excinfo.value) == message


def _bits(amplitudes):
    return amplitudes.view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_support_matches_the_nonzero_labels(data):
    # Off the support some labels hold -0.0, which is zero to both reads.
    m = data.draw(st.integers(1, 8))
    labels = st.integers(0, (1 << m) - 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps[list(data.draw(st.sets(labels)))] = complex(-0.0, -0.0)
    support = sorted(data.draw(st.sets(labels, min_size=1)))
    amps[support] = rng.normal(size=2 * len(support)).view(np.complex128)
    state = StateVector(amps / np.linalg.norm(amps))
    want = state.nonzero_labels()
    wires = data.draw(st.lists(st.integers(0, m - 1), max_size=m + 1))

    got, values = state.support()
    assert np.array_equal(got, want) and np.array_equal(_bits(values), _bits(state.amplitudes[want]))
    on_wires = want[(want & ~sum(1 << w for w in set(wires))) == 0]
    got, values = state.support(wires)
    assert np.array_equal(got, on_wires) and np.array_equal(_bits(values), _bits(state.amplitudes[on_wires]))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf, "0.1"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s, tol: schmidt_rank(s, [0], tol=tol), id="schmidt_rank"),
        pytest.param(lambda s, tol: is_product_across(s, [0], tol), id="is_product_across"),
        pytest.param(lambda s, tol: s.allclose(s, tol), id="allclose"),
        pytest.param(lambda s, tol: state_from_text("wires=2\n00 1 0\n", RegisterLayout.single("q", 2),
                                                    norm_tol=tol), id="state_from_text"),
    ],
)
def test_tolerances_refuse_nan_infinite_negative_and_non_numbers(call, tol):
    # A silly tolerance is refused, not left to call a product state entangled.
    with pytest.raises(PreconditionError, match=r"tolerance .* must be finite and nonnegative$"):
        call(new_basis_state(2, "00"), tol)


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


def test_layout_values_match_a_bit_loop(rng):
    # Scattered wires on 63 wires, labels up to the top one: the int64
    # vector reading must equal a Python bit loop, label by label.
    wires = rng.permutation(63).tolist()
    layout = RegisterLayout([("a", wires[:20]), ("b", wires[20:62]), ("c", wires[62:])])
    labels = [0, (1 << 63) - 1, 1 << 62, *rng.integers(0, 1 << 63, 40, dtype=np.int64).tolist()]
    for name in layout.segment_names:
        want = [sum(((label >> w) & 1) << slot for slot, w in enumerate(layout.wires(name)))
                for label in labels]
        assert layout.values(np.array(labels, dtype=np.int64), name).tolist() == want
        assert layout.values(np.array(labels, dtype=object), name).tolist() == want
        assert [layout.value(label, name) for label in labels] == want


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


def _select_slot(slot):
    layout = shift_layout(3, 2)
    return select_qubit(StateVector.from_label(layout.num_wires, 0), layout, "b", slot, ancilla="a")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: _select_slot(2.5), "slot 2.5 is not an integer", id="select_qubit float"),
        pytest.param(lambda: _select_slot("2"), "slot '2' is not an integer", id="select_qubit str"),
        pytest.param(lambda: ShiftSpec(2.5, 1), "data_width 2.5 is not an integer", id="ShiftSpec"),
        pytest.param(lambda: shift_layout(2.5, 1), "data_width 2.5 is not an integer", id="shift_layout"),
        pytest.param(lambda: MulConstSpec(2, 1.5, 3, 1), "a_ancilla 1.5 is not an integer", id="MulConstSpec"),
        pytest.param(
            lambda: MulConstSpec(2, 1, 3, 2.0), "multiplier 2.0 is not an integer", id="MulConstSpec multiplier"
        ),
        pytest.param(lambda: MulQuantumSpec(1.5, 1, 1, 1, 3), "a_width 1.5 is not an integer", id="MulQuantumSpec"),
        pytest.param(lambda: StateVector.from_label(2.5, 0), "num_wires 2.5 is not an integer", id="from_label"),
        pytest.param(lambda: Circuit("3"), "num_wires '3' is not an integer", id="Circuit str"),
        pytest.param(lambda: Circuit(2.5), "num_wires 2.5 is not an integer", id="Circuit float"),
        pytest.param(
            lambda: shift_layout(3, 2).label_with_value(0, "b", 1.5), "value 1.5 is not an integer",
            id="label_with_value",
        ),
        pytest.param(lambda: shift_layout(3, 2).value(1.5, "b"), "label 1.5 is not an integer", id="value"),
        pytest.param(lambda: new_basis_state(3, 5), "label 5 is not a bitstring of length 3", id="new_basis_state"),
        pytest.param(lambda: num_shifts(2.5), "multiplier 2.5 is not an integer", id="num_shifts float"),
        pytest.param(lambda: num_shifts(-4), "multiplier must be nonnegative", id="num_shifts negative"),
        pytest.param(
            lambda: extended_addend((0,), (1,), 1.5), "shifts_done 1.5 is not an integer", id="extended_addend float"
        ),
        pytest.param(
            lambda: extended_addend((0,), (1,), -1), "shifts_done must be nonnegative", id="extended_addend negative"
        ),
        pytest.param(lambda: cost_report(2, 1, 3, 2.5), "num_values 2.5 is not an integer", id="cost_report num_values"),
        pytest.param(lambda: cost_report(2, 1, 2.0), "multiplier 2.0 is not an integer", id="cost_report multiplier"),
        # A bool is no integer, whether Python's or numpy's.
        pytest.param(lambda: ShiftSpec(True, 1), "data_width True is not an integer", id="ShiftSpec bool"),
        pytest.param(lambda: shift_layout(np.True_, 1), "data_width np.True_ is not an integer", id="shift_layout bool"),
        pytest.param(lambda: Gate.swap(True, 0), "wire True is not an integer", id="Gate bool"),
        pytest.param(lambda: Circuit(np.True_), "num_wires np.True_ is not an integer", id="Circuit bool"),
        pytest.param(lambda: StateVector.from_label(2, True), "label True is not an integer", id="from_label bool"),
        pytest.param(
            lambda: classical_shift_oracle((np.True_,), (False,), 0), "bit np.True_ is not an integer",
            id="classical_shift_oracle bool",
        ),
    ],
)
def test_integer_parameters_refuse_other_values(call, message):
    # Each is refused where it enters, not truncated or left to fail later.
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == message


_LAYOUT = shift_layout(3, 2)  # 6 wires
_X0 = Circuit(3, [Gate.x(0)])
_STATE = StateVector.from_label(6, 0)


def _run_checked(checks):
    return run_circuit(StateVector.from_label(2, 0), Circuit(2), checks)


@pytest.mark.parametrize(
    "call, message",
    [
        # The layout's label readers refuse labels off the layout, as StateVector.amplitude does.
        pytest.param(lambda: _LAYOUT.value(-1, "b"), "label -1 out of range for 6 wires", id="value negative"),
        pytest.param(lambda: _LAYOUT.value(1 << 10, "b"), "label 1024 out of range for 6 wires", id="value large"),
        pytest.param(lambda: _LAYOUT.values([1.5], "b"), "label np.float64(1.5) is not an integer", id="values float"),
        pytest.param(lambda: _LAYOUT.values([5.9], "b"), "label np.float64(5.9) is not an integer", id="values float 5.9"),
        pytest.param(lambda: _LAYOUT.values(["1"], "b"), "label np.str_('1') is not an integer", id="values str"),
        pytest.param(
            lambda: _LAYOUT.values(np.array([0, 2.5, 3], dtype=object), "b"), "label 2.5 is not an integer",
            id="values object float",
        ),
        pytest.param(lambda: _LAYOUT.values([3, -1], "b"), "label -1 out of range for 6 wires", id="values negative"),
        pytest.param(lambda: _LAYOUT.values([64, 3], "b"), "label 64 out of range for 6 wires", id="values large"),
        pytest.param(
            lambda: _LAYOUT.label_with_value(-1, "b", 0), "label -1 out of range for 6 wires",
            id="label_with_value negative",
        ),
        pytest.param(
            lambda: _LAYOUT.label_with_value(1 << 10, "b", 0), "label 1024 out of range for 6 wires",
            id="label_with_value large",
        ),
        pytest.param(lambda: _LAYOUT.display_label(-1), "label -1 out of range for 6 wires", id="display_label negative"),
        pytest.param(lambda: _LAYOUT.display_label(1.5), "label 1.5 is not an integer", id="display_label float"),
        pytest.param(lambda: _LAYOUT.display_label(True), "label True is not an integer", id="display_label bool"),
        # The gate, circuit and runner entry points name the input they refuse.
        pytest.param(lambda: apply_circuit_to_label(_X0, 1.5), "label 1.5 is not an integer", id="label float"),
        pytest.param(lambda: apply_circuit_to_label(_X0, "1"), "label '1' is not an integer", id="label str"),
        pytest.param(
            lambda: Circuit(3, [("X", (0,))]), "circuit gate ('X', (0,)) is not a Gate", id="Circuit tuple gate"
        ),
        pytest.param(
            lambda: Circuit(3).append(("X", (0,))), "circuit gate ('X', (0,)) is not a Gate", id="append tuple gate"
        ),
        pytest.param(lambda: Gate(["X"], (0,)), "unknown gate kind ['X']", id="Gate list kind"),
        # A wire set, layout or state of the wrong type is named, not left to a bare TypeError.
        pytest.param(lambda: _STATE.support(5), "support wires 5 are not an iterable of wires", id="support int"),
        pytest.param(lambda: schmidt_rank(_STATE, 3), "cut wires 3 are not an iterable of wires", id="schmidt_rank int"),
        pytest.param(lambda: is_product_across(_STATE, 3), "cut wires 3 are not an iterable of wires", id="product int"),
        pytest.param(lambda: _STATE.allclose(5), "other state 5 is not a StateVector", id="allclose int"),
        pytest.param(
            lambda: RegisterLayout(None), "segments None are not an iterable of (str, wires) pairs", id="layout None"
        ),
        pytest.param(
            lambda: RegisterLayout([("a", 3)]), "segment 'a' wires 3 are not an iterable of wires", id="layout int wires"
        ),
        pytest.param(lambda: RegisterLayout([("a",)]), "segment ('a',) is not a (str, wires) pair", id="layout 1-item"),
        pytest.param(
            lambda: RegisterLayout([(["a"], [0])]), "segment (['a'], [0]) is not a (str, wires) pair", id="layout list"
        ),
        pytest.param(lambda: Gate("X", 0), "X wires 0 are not an iterable of wires", id="Gate int wires"),
        pytest.param(
            lambda: _run_checked(5), "checks 5 are not an iterable of (wires, what) pairs", id="run_circuit int checks"
        ),
        pytest.param(lambda: _run_checked([[0]]), "check [0] is not a (wires, what) pair", id="run_circuit 1-item check"),
        pytest.param(
            lambda: _run_checked([((0,), "a", 1)]), "check ((0,), 'a', 1) is not a (wires, what) pair",
            id="run_circuit 3-item check",
        ),
        pytest.param(
            lambda: gate_count(ShiftSpec(2, 1), ["none"]),
            "decompose must be one of ['all', 'cnot', 'none', 'swaps-to-cnot']",
            id="gate_count list mode",
        ),
        # num_additions keeps the integer rule that num_shifts keeps.
        pytest.param(lambda: num_additions(-4), "multiplier must be nonnegative", id="num_additions negative"),
        pytest.param(lambda: num_additions(2.5), "multiplier 2.5 is not an integer", id="num_additions float"),
    ],
)
def test_entry_points_refuse_inputs_off_their_domain(call, message):
    # Each was answered, truncated or left to fail with a bare exception before.
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_layout_values_of_no_labels_are_empty():
    assert _LAYOUT.values([], "b").tolist() == []
