"""State construction, gate application, distributions, and entanglement checks."""

import copy
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
    build_multiply_by_constant_circuit,
    build_multiply_registers_circuit,
    build_shift_circuit,
    classical_shift_oracle,
    cost_report,
    extended_addend,
    gate_count,
    is_product_across,
    mul_const_layout,
    mul_quantum_layout,
    multiply_by_constant,
    multiply_registers,
    new_basis_state,
    num_shifts,
    rotate,
    run_circuit,
    schmidt_rank,
    segment_value_distribution,
    select_qubit,
    shift,
    shift_layout,
    state_from_text,
    state_to_text,
)
from qshift import state as state_module
from qshift.cli import prepare_state
from qshift.arithmetic import num_additions
from qshift.gates import apply_circuit_to_labels
from qshift.state import _has_one, _nonzero, _slice_index
from conftest import apply_gate_matrix, holding, random_circuit, random_gate, random_state

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
    with pytest.raises(PreconditionError, match=r"^state norm 0\.6 deviates from 1 beyond 1e-12$"):
        StateVector(np.array([0.6, 0.0]))


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
        pytest.param(
            lambda: StateVector.from_support(2, [0, 1], ["1", "0"]), "amplitudes of dtype <U1 are not numbers",
            id="support strings",
        ),
        pytest.param(lambda: StateVector.from_support(2, [3, 1, 3], [0.6, 0.8, 0]), "label 3 is listed twice",
                     id="support repeat"),
        pytest.param(lambda: StateVector.from_support(2, [4], [1.0]), "label 4 out of range for 2 wires",
                     id="support label off the state"),
        pytest.param(lambda: StateVector.from_support(0, [], []), "need at least one wire", id="support no wires"),
        pytest.param(
            lambda: StateVector.from_support(2, [0, 1], [1.0]),
            "labels (2,) and amplitudes (1,) are not 1-D of one length", id="support lengths",
        ),
        pytest.param(
            lambda: StateVector.from_support(2, [[0]], [[1.0]]),
            "labels (1, 1) and amplitudes (1, 1) are not 1-D of one length", id="support 2-D",
        ),
        pytest.param(lambda: StateVector.from_support(2, [1], [0.6]), "state norm 0.6 deviates from 1 beyond 1e-12",
                     id="support norm"),
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
        lambda: new_basis_state(25, "1"),  # first, as in from_label
        lambda: state_from_text("wires=25\n" + "0" * 25 + " 1 0\n", RegisterLayout.packed([("q", 25)])),
        lambda: state_from_text("wires=25\n" + "0" * 25 + " one 0\n", RegisterLayout.packed([("q", 25)])),  # first
        lambda: StateVector.from_support(25, [0], [1.0]),
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


def test_first_repeat_is_the_first_position_holding_a_label_seen_before(rng):
    # Long runs of ties: an unstable sort could put a later copy of a label ahead of its first.
    for size in (0, 1, 2, 17, 300, 5000):
        for high in (1, 3, size // 2 + 1, 4 * size + 1):
            labels = rng.integers(0, high, size)
            seen, want = set(), None
            for i, label in enumerate(labels.tolist()):
                if label in seen:
                    want = i
                    break
                seen.add(label)
            assert state_module.first_repeat(labels) == want


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
    # from_support is its dual: the support in any order gives the state with +0.0 off it, bounded after it.
    order = rng.permutation(got.size)
    back = StateVector.from_support(m, got[order], values[order])
    assert back._live == got[-1] + 1
    assert np.array_equal(_bits(back._amps), _bits(np.where(state.amplitudes != 0, state.amplitudes, 0)))
    on_wires = want[(want & ~sum(1 << w for w in set(wires))) == 0]
    got, values = state.support(wires)
    assert np.array_equal(got, on_wires) and np.array_equal(_bits(values), _bits(state.amplitudes[on_wires]))


# Lone values that a block or slice may hold: each has a nonzero bit, and
# only the signed zeros read as zero. The largest float of -1 - 0j is -0.0.
_LONE = [1.0, 1j, 5e-324, complex(-1.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.nan, 0.0)]


def _assert_copied(state, copied):
    before = state.amplitudes.copy()  # a snapshot: a write to the copy must leave the state as it was
    assert np.array_equal(_bits(copied), _bits(before))
    assert copied.dtype == np.complex128 and copied.flags.c_contiguous and copied.flags.writeable
    copied[:] = 7.0
    assert np.array_equal(_bits(state.amplitudes.copy()), _bits(before))


def _block_pattern(rng, m, block):
    """2**m amplitudes whose blocks of ``block`` are each, at random, all zero, dense, or one ``_LONE`` value
    at the block's first amplitude, its last or a random offset: mixed runs of live and zero blocks,
    signed-zero and NaN heads, and live blocks behind zero heads."""
    amps = np.zeros(1 << m, dtype=np.complex128)
    for start in range(0, 1 << m, block):
        kind = int(rng.integers(3))
        if kind == 1:
            amps[start:start + block] = rng.normal(size=2 * block).view(np.complex128)
        elif kind == 2:
            offset = [0, block - 1, int(rng.integers(block))][int(rng.integers(3))]
            amps[start + offset] = _LONE[int(rng.integers(len(_LONE)))]
    return amps


def _occupied_end(amps, block):
    """The end of the last block of ``amps`` that holds a nonzero bit, or 0."""
    occupied = np.flatnonzero(_bits(amps).reshape(-1, 2 * block).any(axis=1))
    return int(occupied[-1] + 1) * block if occupied.size else 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_copy_is_bit_exact(data):
    # Blocks of 4-64 amplitudes stand in for 2**15, with every size on the block path; the
    # copy's bound is the end of the last block it wrote.
    m, block = data.draw(st.integers(8, 12)), 1 << data.draw(st.integers(2, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(1 << m, dtype=np.complex128)
    kind = data.draw(st.sampled_from(["signed zeros", "block edge", "one block", "dense", "mixed", "fresh"]))
    if kind == "signed zeros":
        amps.real[rng.random(1 << m) < 0.01] = -0.0
        amps.imag[rng.random(1 << m) < 0.01] = -0.0
    elif kind == "block edge":
        start = block * data.draw(st.integers(0, (1 << m) // block - 1))
        amps[start + data.draw(st.sampled_from([0, block - 1]))] = data.draw(st.sampled_from(_LONE))
    elif kind == "mixed":
        amps = _block_pattern(rng, m, block)
    elif kind != "fresh":
        start = block * int(rng.integers((1 << m) // block))
        live = slice(None) if kind == "dense" else slice(start, start + block)
        amps[live] = rng.normal(size=2 * amps[live].size).view(np.complex128)
    if kind == "fresh":  # a bound that is rarely a whole number of blocks
        state = StateVector.from_label(m, int(rng.integers(1 << m)))
    else:
        state = holding(amps[::2] if data.draw(st.booleans()) else amps)  # a strided buffer is copied in
    end = _occupied_end(state._amps, block)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_LAZY_ZERO_BYTES", 0)
        patch.setattr(state_module, "_COPY_BLOCK", block)
        copied = state.copy()
    assert copied._live == end
    _assert_copied(state, copied.amplitudes)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nonzero_labels_and_support_read_the_occupied_blocks_as_flatnonzero(data):
    # The mixed block patterns of the copy test, with blocks of 4-64 amplitudes (some larger
    # than the state), in a handed-out buffer or under a bound anywhere past the last nonzero bit.
    m, block = data.draw(st.integers(4, 11)), 1 << data.draw(st.integers(2, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = _block_pattern(rng, m, min(block, 1 << m))
    want = np.flatnonzero(amps)
    if data.draw(st.booleans()):
        state = holding(amps)
    else:
        state = StateVector.from_label(m, 0)
        state._amps[:] = amps
        last = int(np.flatnonzero(_bits(amps).reshape(-1, 2).any(axis=1)).max(initial=-1))
        state._live = int(rng.integers(last + 1, (1 << m) + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_COPY_BLOCK", block)
        labels = state.nonzero_labels()
        got, values = state.support()
    assert labels.dtype == want.dtype and np.array_equal(labels, want) and np.array_equal(got, want)
    assert np.array_equal(_bits(values), _bits(amps[want]))


def test_sparse_22_wire_copy_is_bit_exact():
    state = StateVector.from_label(22, 0)
    amps = state.amplitudes
    amps[0], amps[(1 << 15) - 1], amps[1 << 21] = 0.6, 0.8j, complex(-0.0, 0.0)
    amps[-1] = complex(0.0, -0.0)
    _assert_copied(state, state.copy().amplitudes)


def _bound_holds(state):
    """Whether every amplitude from the live-prefix bound on holds +0.0 bits."""
    return not _bits(state._amps[state._live:]).any()


def _outcome(state, circuit, checks):
    try:
        run_circuit(state, circuit, checks)
    except PreconditionError as exc:
        return str(exc)
    return None


_PERMUTATIONS = ("X", "CNOT", "SWAP", "CSWAP", "TOFFOLI")


def _random_run(rng, state):
    """A circuit (of permutations, of the shift passes' kinds, or with H) and 1-5 checked wires
    split into 1-2 checks, three times in four drawn from the wires that read 0 on the support."""
    m = state.num_wires
    kinds = [_PERMUTATIONS, ("SWAP", "CSWAP", "X"), _PERMUTATIONS + ("H",)][int(rng.integers(3))]
    circuit = random_circuit(rng, m, int(rng.integers(8)), kinds)
    ones = int(np.bitwise_or.reduce(np.flatnonzero(state._amps), initial=0))
    pool = [w for w in range(m) if not ones >> w & 1]
    pool = pool if pool and rng.random() < 0.75 else list(range(m))
    wires = [int(w) for w in rng.choice(pool, size=int(rng.integers(1, min(5, len(pool)) + 1)), replace=False)]
    cut = int(rng.integers(len(wires)))
    return circuit, [(part, f"check {i}") for i, part in enumerate((wires[:cut], wires[cut:])) if part]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_live_bound_holds_and_changes_no_verdict(data):
    # Blocks of 2-16 amplitudes stand in for 2**15, with every copy on the block path.
    # Each step acts on one of the last few states; buffers handed out earlier are
    # written through at any time after.
    m, block = data.draw(st.integers(3, 8)), 1 << data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        states = [StateVector.from_label(m, int(rng.integers(1 << m)))]
    else:
        amps = np.zeros(1 << m, dtype=np.complex128)
        amps[rng.choice(1 << m // 2, size=3)] = rng.normal(size=6).view(np.complex128)
        states = [StateVector(amps / np.linalg.norm(amps))]
    refs = []
    steps = st.sampled_from(["copy", "copy.copy", "run", "run", "gate", "read", "write"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_LAZY_ZERO_BYTES", 0)
        patch.setattr(state_module, "_COPY_BLOCK", block)
        for step in data.draw(st.lists(steps, min_size=1, max_size=12)):
            state = states[int(rng.integers(len(states)))]
            if step in ("copy", "copy.copy"):
                states.append(state.copy() if step == "copy" else copy.copy(state))
                assert states[-1]._amps is not state._amps
                assert np.array_equal(_bits(states[-1]._amps), _bits(state._amps))
            elif step in ("run", "gate"):
                # The bound stays at most the smallest 2**j above its old bound and the
                # step's wires, whether the gates ran on the prefix or not.
                bound, twin = state._live, holding(state._amps)
                if step == "run":
                    circuit, checks = _random_run(rng, state)
                    assert _outcome(state, circuit, checks) == _outcome(twin, circuit, checks)
                else:
                    gate = random_gate(rng, m, ("H",) if rng.random() < 0.25 else _PERMUTATIONS)
                    circuit = Circuit(m, [gate])
                    apply_gate(state, gate)
                    apply_gate(twin, gate)
                assert np.array_equal(_bits(state._amps), _bits(twin._amps))
                j = max([(bound - 1).bit_length(), *(w + 1 for gate in circuit for w in gate.wires)])
                assert state._live <= 1 << j
            elif step == "read":
                refs.append(state.amplitudes)
                assert state._live == 1 << m
            elif refs:
                value = [0.0, 1.0, *_LONE][int(rng.integers(len(_LONE) + 2))]
                refs[int(rng.integers(len(refs)))][int(rng.integers(1 << m))] = value
            states = states[-4:]
            assert all(type(s._live) is int and 0 <= s._live <= 1 << m and _bound_holds(s) for s in states)


def test_a_prepared_superposition_reads_only_the_prefix_its_gates_touch(monkeypatch):
    # H on A's three wires, the lowest, of a 22-wire state: each step reads 2**3 amplitudes, not 2**22.
    layout = mul_quantum_layout(MulQuantumSpec(3, 2, 3, 2, 6))
    assert layout.wires("A") == (0, 1, 2)
    read, tensor = [], StateVector._tensor

    def spy(self, *k):
        t = tensor(self, *k)
        read.append(t.size)
        return t

    monkeypatch.setattr(StateVector, "_tensor", spy)
    state = prepare_state("uniform A", layout)
    monkeypatch.undo()
    assert state._live == 1 << 3 and read and max(read) <= 1 << 3
    twin = holding(StateVector.from_label(layout.num_wires, 0).amplitudes)  # every gate runs on the whole array
    for wire in layout.wires("A"):
        apply_gate(twin, Gate.h(wire))
    assert twin._live == 1 << layout.num_wires
    assert state_to_text(state, layout) == state_to_text(twin, layout)


def test_a_write_through_a_kept_reference_reaches_the_next_copy():
    state = StateVector.from_label(21, 5)  # 32 MiB: copies take the block path
    ref = state.amplitudes
    first = state.copy()
    ref[5], ref[-1] = 0.6, 0.8j
    second = state.copy()
    assert first.amplitude((1 << 21) - 1) == 0 and second.amplitude((1 << 21) - 1) == 0.8j
    assert second.support()[0].tolist() == [5, (1 << 21) - 1]


def test_a_write_above_the_bound_through_a_kept_reference_is_named_by_the_checks():
    state = StateVector.from_label(8, 0b11)
    ref = state.amplitudes
    top = ([5, 6, 7], "top")
    run_circuit(state, Circuit(8, [Gate.swap(0, 2)]), [top])  # on the label path, the bound would be 7
    assert state.support()[0].tolist() == [0b110]
    ref[1 << 7] = 1.0
    with pytest.raises(PreconditionError, match="^top must be zero on every supported basis state$"):
        run_circuit(state, Circuit(8), [top])


def _multiplier_input():
    """The benchmark's input: 64 (A, C) branches on 22 wires, filled through .amplitudes."""
    spec = MulQuantumSpec(3, 2, 3, 2, 6)
    layout = mul_quantum_layout(spec)
    source = StateVector.from_label(layout.num_wires, 0)
    amps = source.amplitudes
    amps[0] = 0.0
    labels = np.array([layout.label_with_value(layout.label_with_value(0, "A", a), "C", c)
                       for a in range(8) for c in range(8)])
    amps[labels] = np.random.default_rng(7).normal(size=128).view(np.complex128) / np.sqrt(64)
    return spec, layout, source


def _swept_by_multiplier(monkeypatch, state, spec, layout):
    """The sizes of the slices the multiplier's zero sweep reads; its result must equal a whole-buffer twin's."""
    twin = multiply_registers(holding(state._amps), spec, layout)
    swept = []
    nonzero = state_module._nonzero
    monkeypatch.setattr(state_module, "_nonzero", lambda x: swept.append(x.size) or nonzero(x))
    multiply_registers(state, spec, layout)
    monkeypatch.undo()
    assert np.array_equal(_bits(state._amps), _bits(twin._amps))
    return swept


def test_the_multiplier_sweeps_only_the_live_prefix_of_a_fresh_copy(monkeypatch):
    spec, layout, source = _multiplier_input()
    swept = _swept_by_multiplier(monkeypatch, source.copy(), spec, layout)
    assert 0 < sum(swept) <= 1 << 15


def test_a_state_read_from_a_file_keeps_its_bound_and_the_multiplier_sweeps_only_that_prefix(monkeypatch):
    # The reader builds its state from the labels it read, so the bound is the highest + 1: A and C
    # are wires 0-5, and every wire the multiplier checks lies above that prefix, which the sweep
    # then reads nothing of (a handed-out buffer is swept whole).
    spec, layout, source = _multiplier_input()
    source.amplitudes /= source.norm()  # the reader checks the norm
    state = state_from_text(state_to_text(source, layout), layout)
    assert state._live == 1 << 6 and np.array_equal(_bits(state._amps), _bits(source.amplitudes))
    assert _swept_by_multiplier(monkeypatch, state, spec, layout) == []


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_reads_each_slice_as_any(data):
    # The top wires' slices are contiguous and take the uint64 prefilter;
    # any other wire set may give strided slices, which read .any() alone.
    m = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        wires = list(range(m - data.draw(st.integers(1, m)), m))
    else:
        wires = sorted(data.draw(st.sets(st.integers(0, m - 1), min_size=1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(1 << m, dtype=np.complex128)
    amps.real[rng.random(1 << m) < 0.3] = -0.0
    amps.imag[rng.random(1 << m) < 0.3] = -0.0
    top = wires[::-1]
    labels = np.arange(1 << m).reshape((2,) * m)
    slices = [_slice_index(m, top[:i + 1], 1 << w) for i, w in enumerate(top)]
    if data.draw(st.booleans()):  # a lone value at either end of one slice
        where = labels[data.draw(st.sampled_from(slices))].reshape(-1)
        amps[where[data.draw(st.sampled_from([0, -1]))]] = data.draw(st.sampled_from(_LONE))
    state = holding(amps)
    for idx in slices:
        x = state._tensor()[idx]
        assert _nonzero(x) == bool(x.any())
        assert x.ndim == 0 or x.flags.c_contiguous or wires != list(range(m - len(wires), m))
    on_wires = labels.reshape(-1) & sum(1 << w for w in wires) != 0
    assert _has_one(state, wires) == bool(np.any(amps[on_wires] != 0))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf, "0.1"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda s, tol: schmidt_rank(s, [0], tol=tol), id="schmidt_rank"),
        pytest.param(lambda s, tol: is_product_across(s, [0], tol), id="is_product_across"),
        pytest.param(lambda s, tol: s.allclose(s, tol), id="allclose"),
        pytest.param(lambda s, tol: state_from_text("wires=2\n00 1 0\n", RegisterLayout.packed([("q", 2)]),
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


def test_canonical_layouts_keep_their_wires():
    # Each canonical layout's segments in order, on wires written out by hand; a
    # width-1 B leaves no carry segment.
    cases = [
        (mul_const_layout(MulConstSpec(2, 1, 1, 1)), {"A": (0, 1), "B": (2,), "ancA": (3,), "c": (4,)}),
        (
            mul_const_layout(MulConstSpec(3, 2, 4, 0b101)),
            {"A": (0, 1, 2), "B": (3, 4, 5, 6), "ancA": (7, 8), "carry": (9, 10, 11), "c": (12,)},
        ),
        (
            mul_quantum_layout(MulQuantumSpec(1, 1, 1, 1, 2)),
            {"A": (0,), "C": (1,), "B": (2, 3), "ancA": (4,), "ancC": (5,), "carry": (6,), "c": (7,)},
        ),
        (
            mul_quantum_layout(MulQuantumSpec(2, 1, 2, 1, 4)),
            {"A": (0, 1), "C": (2, 3), "B": (4, 5, 6, 7), "ancA": (8,), "ancC": (9,), "carry": (10, 11, 12),
             "c": (13,)},
        ),
    ]
    for n in range(1, 5):
        for k in range(1, 5):
            want = {"a": tuple(range(k)), "b": tuple(range(k, k + n)), "c": (k + n,)}
            cases.append((shift_layout(n, k), want))
    for layout, want in cases:
        assert [(name, layout.wires(name)) for name in layout.segment_names] == list(want.items())
        assert layout.num_wires == sum(map(len, want.values()))


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
        pytest.param(lambda: _LAYOUT.values([1.5], "b"), "label 1.5 is not an integer", id="values float"),
        pytest.param(lambda: _LAYOUT.values([5.9], "b"), "label 5.9 is not an integer", id="values float 5.9"),
        pytest.param(lambda: _LAYOUT.values(["1"], "b"), "label '1' is not an integer", id="values str"),
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
            lambda: Circuit(3, [Gate.x(0), ("X", (0,))]), "circuit gate ('X', (0,)) is not a Gate",
            id="Circuit later tuple gate",
        ),
        pytest.param(
            lambda: Circuit(2, [Gate.cnot(0, 1), Gate.x(2)]), "gate X(2,) exceeds 2 wires", id="Circuit wide gate"
        ),
        pytest.param(lambda: Circuit(0), "circuit needs at least one wire", id="Circuit no wires"),
        pytest.param(lambda: Circuit(2, 5), "circuit gates 5 are not an iterable of gates", id="Circuit int gates"),
        pytest.param(
            lambda: Circuit(2, None), "circuit gates None are not an iterable of gates", id="Circuit None gates"
        ),
        pytest.param(
            lambda: apply_circuit_to_labels(_X0, np.array([0.5, 1.0])), "label 0.5 is not an integer",
            id="labels float",
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
        pytest.param(
            lambda: RegisterLayout.packed(3), "widths 3 are not an iterable of (name, width) pairs", id="packed int"
        ),
        pytest.param(
            lambda: RegisterLayout.packed([("a", 2.5)]), "segment 'a' width 2.5 is not an integer", id="packed float"
        ),
        pytest.param(
            lambda: RegisterLayout.packed([("a", 1), ("b", True)]), "segment 'b' width True is not an integer",
            id="packed bool",
        ),
        pytest.param(
            lambda: RegisterLayout.packed([("a",)]), "segment ('a',) is not a (name, width) pair",
            id="packed short pair",
        ),
        pytest.param(
            lambda: RegisterLayout.packed([("a", 1, 2)]), "segment ('a', 1, 2) is not a (name, width) pair",
            id="packed long pair",
        ),
        pytest.param(lambda: Gate("X", 0), "X wires 0 are not an iterable of wires", id="Gate int wires"),
        pytest.param(
            lambda: _run_checked(5), "checks 5 are not an iterable of (wires, what) pairs", id="run_circuit int checks"
        ),
        pytest.param(lambda: _run_checked([[0]]), "check [0] is not a (wires, what) pair", id="run_circuit 1-item check"),
        pytest.param(lambda: run_circuit(_STATE, "c"), "circuit 'c' is not a Circuit", id="run_circuit str circuit"),
        pytest.param(lambda: apply_gate(_STATE, "X"), "gate 'X' is not a Gate", id="apply_gate str gate"),
        # A state text is named by its type: bytes read from a file may be megabytes long.
        pytest.param(
            lambda: state_from_text(b"wires=6\n", _LAYOUT), "state text of type bytes is not a str",
            id="state_from_text bytes",
        ),
        pytest.param(lambda: state_from_text(5, _LAYOUT), "state text of type int is not a str", id="state_from_text int"),
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
        # Each pipeline and builder names a state, layout or spec of the wrong
        # type before its circuit is looked up, not with a bare AttributeError.
        pytest.param(lambda: shift(_STATE, "layout"), "layout 'layout' is not a RegisterLayout", id="shift str layout"),
        pytest.param(lambda: shift("state", _LAYOUT), "state 'state' is not a StateVector", id="shift str state"),
        pytest.param(lambda: rotate(_STATE, None), "layout None is not a RegisterLayout", id="rotate None layout"),
        pytest.param(lambda: rotate(5, _LAYOUT, "right"), "state 5 is not a StateVector", id="rotate int state"),
        pytest.param(
            lambda: select_qubit(_STATE, [("b", (0,))], "b", 1, ancilla="a"),
            "layout [('b', (0,))] is not a RegisterLayout", id="select_qubit list layout",
        ),
        pytest.param(
            lambda: select_qubit("state", _LAYOUT, "b", 1, ancilla="a"), "state 'state' is not a StateVector",
            id="select_qubit str state",
        ),
        pytest.param(
            lambda: multiply_registers(_STATE, 5), "spec 5 is not a MulQuantumSpec", id="multiply_registers int spec"
        ),
        pytest.param(
            lambda: multiply_registers(_STATE, MulQuantumSpec(1, 1, 1, 1, 2), "layout"),
            "layout 'layout' is not a RegisterLayout", id="multiply_registers str layout",
        ),
        pytest.param(
            lambda: multiply_registers(None, MulQuantumSpec(1, 1, 1, 1, 2)), "state None is not a StateVector",
            id="multiply_registers None state",
        ),
        pytest.param(
            lambda: multiply_by_constant(_STATE, ShiftSpec(1, 1)),
            "spec ShiftSpec(data_width=1, ancilla_width=1, direction='left') is not a MulConstSpec",
            id="multiply_by_constant ShiftSpec",
        ),
        pytest.param(
            lambda: multiply_by_constant(_STATE, MulConstSpec(1, 1, 2, 1), {}), "layout {} is not a RegisterLayout",
            id="multiply_by_constant dict layout",
        ),
        pytest.param(
            lambda: multiply_by_constant([1, 0], MulConstSpec(1, 1, 2, 1)), "state [1, 0] is not a StateVector",
            id="multiply_by_constant list state",
        ),
        pytest.param(
            lambda: build_multiply_registers_circuit([3, 2, 3, 2, 6]), "spec [3, 2, 3, 2, 6] is not a MulQuantumSpec",
            id="build_multiply_registers_circuit list spec",
        ),
        pytest.param(
            lambda: build_multiply_registers_circuit(MulQuantumSpec(1, 1, 1, 1, 2), _STATE),
            "layout StateVector(num_wires=6) is not a RegisterLayout",
            id="build_multiply_registers_circuit state layout",
        ),
        pytest.param(
            lambda: build_multiply_by_constant_circuit(None), "spec None is not a MulConstSpec",
            id="build_multiply_by_constant_circuit None spec",
        ),
        pytest.param(
            lambda: build_multiply_by_constant_circuit(MulConstSpec(1, 1, 2, 1), "layout"),
            "layout 'layout' is not a RegisterLayout", id="build_multiply_by_constant_circuit str layout",
        ),
        pytest.param(
            lambda: build_shift_circuit((3, 2)), "spec (3, 2) is not a ShiftSpec", id="build_shift_circuit tuple"
        ),
        # An unhashable segment name is an unknown segment, not a bare TypeError.
        pytest.param(
            lambda: select_qubit(_STATE, _LAYOUT, ["b"], 1, ancilla="a"), "unknown segment ['b']",
            id="select_qubit list segment",
        ),
        pytest.param(
            lambda: segment_value_distribution(_STATE, _LAYOUT, ["b"]), "unknown segment ['b']",
            id="segment_value_distribution list segment",
        ),
    ],
)
def test_entry_points_refuse_inputs_off_their_domain(call, message):
    # Each was answered, truncated or left to fail with a bare exception before.
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_layout_values_of_no_labels_are_empty():
    assert _LAYOUT.values([], "b").tolist() == []
