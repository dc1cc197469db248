"""Properties of the support path: permutation circuits run on the nonzero labels only."""

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
    StateVector,
    apply_circuit_to_label,
    apply_gate,
    extended_addend,
    mul_const_layout,
    mul_quantum_layout,
    multiply_registers,
    rotate,
    run_circuit,
    select_qubit,
    shift,
    shift_layout,
)
from qshift import state as state_module
from qshift.gates import GATE_ARITY
from qshift.shift_register import shift_cascade
from qshift.state import (
    _SCAN_BLOCK,
    SUPPORT_PATH_MAX_SHARE,
    _dense_steps,
    _support,
    _Transpose,
    run_on_support,
)

PERMUTATION_KINDS = ("X", "CNOT", "SWAP", "TOFFOLI", "CSWAP")


def _bits(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.view(np.uint64)


@st.composite
def permutation_cases(draw):
    """A random permutation circuit and a state whose support lies on a
    drawn side of the support-path threshold, with -0.0 on some labels
    off the support."""
    m = draw(st.integers(3, 9))
    gate = st.sampled_from(PERMUTATION_KINDS).flatmap(
        lambda kind: st.permutations(range(m)).map(lambda ws: Gate(kind, ws[: GATE_ARITY[kind]]))
    )
    circuit = Circuit(m, draw(st.lists(gate, max_size=30)))
    sparse = draw(st.booleans())
    limit = int(SUPPORT_PATH_MAX_SHARE * 2**m)
    size = draw(st.integers(1, limit) if sparse else st.integers(limit + 1, 2**m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(2**m, dtype=np.complex128)
    support = rng.choice(2**m, size=size, replace=False)
    amps[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    off = np.flatnonzero(amps == 0)
    amps[off[: draw(st.integers(0, off.size))]] = -0.0
    return circuit, StateVector(amps), sparse


@settings(max_examples=150, deadline=None)
@given(permutation_cases())
def test_support_path_matches_dense_and_label_kernels(case):
    circuit, state, sparse = case
    labels = state.nonzero_labels()
    assert (_support(state, circuit) is not None) == sparse
    dense = run_on_support(state.copy(), circuit, None)
    on_support = run_on_support(state.copy(), circuit, labels)
    assert np.array_equal(on_support.amplitudes, dense.amplitudes)
    nonzero = dense.nonzero_labels()
    assert np.array_equal(on_support.nonzero_labels(), nonzero)
    assert np.array_equal(_bits(on_support.amplitudes[nonzero]), _bits(dense.amplitudes[nonzero]))
    images = [apply_circuit_to_label(circuit, int(label)) for label in labels]
    assert np.array_equal(_bits(on_support.amplitudes[images]), _bits(state.amplitudes[labels]))
    assert np.array_equal(run_circuit(state.copy(), circuit).amplitudes, dense.amplitudes)


@st.composite
def register_multiplications(draw):
    """A MulQuantumSpec and a layout that puts its segments, in a random
    order, on a random permutation of the wires."""
    a_width = draw(st.integers(1, 3))
    c_width = draw(st.integers(1, 2))
    b_width = draw(st.integers(a_width + c_width, a_width + c_width + 1))
    least = max(1, c_width - 1)
    spec = MulQuantumSpec(
        a_width, draw(st.integers(least, 2)), c_width, draw(st.integers(least, 2)), b_width
    )
    widths = [
        ("A", spec.a_width),
        ("C", spec.c_width),
        ("B", spec.b_width),
        ("ancA", spec.a_ancilla),
        ("ancC", spec.c_ancilla),
        ("carry", spec.b_width - 1),
        ("c", 1),
    ]
    order = draw(st.permutations([(name, w) for name, w in widths if w]))
    wires = draw(st.permutations(range(sum(w for _, w in order))))
    segments, pos = [], 0
    for name, width in order:
        segments.append((name, wires[pos:pos + width]))
        pos += width
    return spec, RegisterLayout(segments), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(register_multiplications())
def test_multiply_registers_on_random_layouts_matches_integer_product(case):
    spec, layout, seed = case
    rng = np.random.default_rng(seed)
    pairs = [(a, c) for a in range(1 << spec.a_width) for c in range(1 << spec.c_width)]
    amps = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
    amps /= np.linalg.norm(amps)
    state = StateVector.from_label(layout.num_wires, 0)
    state.amplitudes[0] = 0.0
    for (a, c), amp in zip(pairs, amps):
        label = layout.label_with_value(layout.label_with_value(0, "A", a), "C", c)
        state.amplitudes[label] = amp
    multiply_registers(state, spec, layout)
    out = state.nonzero_labels()
    assert out.size == len(pairs)
    # Seed-drawn amplitudes are distinct, so each names its input branch.
    branch = {complex(amp): pair for pair, amp in zip(pairs, amps)}
    shifted_a = extended_addend(layout.wires("A"), layout.wires("ancA"), spec.c_width - 1)
    for label in out:
        label = int(label)
        a, c = branch[complex(state.amplitudes[label])]
        assert layout.value(label, "B") == a * c
        shifted = sum(((label >> w) & 1) << slot for slot, w in enumerate(shifted_a))
        assert shifted == a << (spec.c_width - 1)
        assert layout.value(label, "c") == 0
        if spec.b_width > 1:
            assert layout.value(label, "carry") == 0


@st.composite
def multiplier_layouts(draw):
    """The canonical layout of a valid MulConstSpec or MulQuantumSpec, and its factor segments."""
    width = st.integers(1, 12)
    if draw(st.booleans()):
        a_ancilla = draw(width)
        multiplier = draw(st.integers(0, 2 ** (a_ancilla + 1) - 1))
        return mul_const_layout(MulConstSpec(draw(width), a_ancilla, draw(width), multiplier)), ("A",)
    a_width, c_width = draw(width), draw(width)
    ancilla = st.integers(max(1, c_width - 1), c_width + 4)
    b_width = draw(st.integers(a_width + c_width, a_width + c_width + 4))
    spec = MulQuantumSpec(a_width, draw(ancilla), c_width, draw(ancilla), b_width)
    return mul_quantum_layout(spec), ("A", "C")


@settings(max_examples=200, deadline=None)
@given(multiplier_layouts())
def test_valid_multiplier_inputs_fit_the_support_path(case):
    # Every segment but the factors must be zero, so a valid input's
    # support holds at most 2**(factor wires) labels; the multipliers rely
    # on that to run every valid input on the support path.
    layout, factors = case
    factor_wires = sum(layout.width(name) for name in factors)
    assert 2**factor_wires <= SUPPORT_PATH_MAX_SHARE * 2**layout.num_wires


def _gate_of(kind, m):
    return st.permutations(range(m)).map(lambda ws: Gate(kind, ws[: GATE_ARITY[kind]]))


@st.composite
def controlled_runs(draw, m):
    """A run of SWAP, CSWAP and X gates on 1-3 control wires: CSWAPs on any
    of the controls and SWAPs on the other wires, with X pairs on controls
    inserted around parts of the run, and sometimes an odd X on a control or
    a SWAP that moves one: those two must not compile."""
    wires = draw(st.permutations(range(m)))
    split = draw(st.integers(1, min(3, m - 2)))
    controls, others = wires[:split], wires[split:]
    control = st.sampled_from(controls)
    pair = st.permutations(others).map(lambda ws: ws[:2])
    gate = st.one_of(
        pair.map(lambda ab: Gate.swap(*ab)),
        st.tuples(control, pair).map(lambda cp: Gate.cswap(cp[0], *cp[1])),
    )
    run = draw(st.lists(gate, min_size=1, max_size=10))
    inserts = [Gate.x(c) for c in draw(st.lists(control, max_size=2)) for _ in range(2)]
    if draw(st.integers(0, 3)) == 0:
        inserts.append(Gate.x(draw(control)))
    if draw(st.integers(0, 3)) == 0:
        inserts.append(Gate.swap(draw(control), draw(st.sampled_from(others))))
    for extra in inserts:
        run.insert(draw(st.integers(0, len(run))), extra)
    return run


@st.composite
def swap_run_circuits(draw):
    """A permutation circuit made mostly of SWAP runs (random pairs, one pair
    repeated, or a cascade over every wire) and controlled runs, broken by
    single X, CNOT, TOFFOLI or CSWAP gates, and a state with -0.0 on some
    labels and parts."""
    m = draw(st.integers(1, 10))
    breakers = [_gate_of(kind, m).map(lambda g: [g])
                for kind in ("X", "CNOT", "TOFFOLI", "CSWAP") if GATE_ARITY[kind] <= m]
    pieces = list(breakers)
    if m >= 2:
        swap = _gate_of("SWAP", m)
        cascade = st.permutations(range(m)).map(
            lambda order: [Gate.swap(a, b) for a, b in zip(order, order[1:])]
        )
        runs = st.lists(swap, min_size=1, max_size=12)
        pieces += [
            runs,
            runs,  # twice, to weight the draws toward SWAP runs
            st.tuples(swap, st.integers(2, 4)).map(lambda gn: [gn[0]] * gn[1]),
            cascade,
            cascade.map(lambda gates: gates[::-1]),
        ]
    if m >= 3:
        # A CNOT on each side keeps a controlled run from merging with its
        # neighbours into a run that cannot compile.
        cnot = _gate_of("CNOT", m)
        pieces += [st.tuples(cnot, controlled_runs(m), cnot).map(lambda t: [t[0], *t[1], t[2]])] * 2
    circuit = Circuit(m, [g for piece in draw(st.lists(st.one_of(pieces), max_size=8)) for g in piece])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    amps.imag[rng.random(2**m) < 0.3] = -0.0
    amps[rng.random(2**m) < draw(st.floats(0.0, 1.0))] = complex(-0.0, -0.0)
    amps[0] = 1.0
    return circuit, StateVector(amps / np.linalg.norm(amps))


def _gate_by_gate(state, circuit):
    for gate in circuit:
        apply_gate(state, gate)
    return state


@settings(max_examples=300, deadline=None)
@given(swap_run_circuits())
def test_fused_dense_path_matches_gate_by_gate(case):
    circuit, state = case
    reference = _gate_by_gate(state.copy(), circuit)
    fused = run_on_support(state.copy(), circuit, None)
    assert np.array_equal(_bits(fused.amplitudes), _bits(reference.amplitudes))
    # Each compiled step fixes at least two wires, so the chunks it permutes,
    # and its temporary, hold at most 2**(m-2) amplitudes.
    m = circuit.num_wires
    for step in _dense_steps(circuit):
        if isinstance(step, _Transpose):
            assert len(step.wires) >= 2
            assert sorted(step.axes) == list(range(m - len(step.wires)))
            moved = sum(axis != i for i, axis in enumerate(step.axes))
            assert moved >= 2
            # A step over four chunks fixes no control wire; one swap there
            # runs as a slice exchange, which is cheaper.
            if len(step.labels) == 4:
                assert moved > 2


def _left_kinds(circuit):
    """Kinds of the gates that the dense path still runs one by one."""
    return [step.kind for step in _dense_steps(circuit) if isinstance(step, Gate)]


def test_runs_compile_only_when_their_controls_stay_put():
    m = 7
    swaps = [Gate.swap(0, 1), Gate.swap(1, 2), Gate.swap(2, 3)]
    compiled = [
        # CSWAPs sharing a control, with X pairs on it.
        [Gate.x(6), *swaps, Gate.cswap(6, 0, 1), Gate.x(6), Gate.cswap(6, 2, 4), Gate.x(6), Gate.x(6)],
        # CSWAPs with different controls: four control slices.
        [Gate.cswap(5, 0, 1), *swaps, Gate.cswap(6, 3, 4), Gate.x(5), Gate.x(5)],
        swaps,
    ]
    for gates in compiled:
        assert _left_kinds(Circuit(m, gates)) == []
    fixed = {step.wires[:2] for step in _dense_steps(Circuit(m, compiled[1]))}
    assert fixed == {(5, 6)}
    # Without controls, a segment that composes to one swap is a SWAP gate.
    split = _dense_steps(Circuit(4, [Gate.swap(0, 1), Gate.swap(2, 3)]))
    assert split == [Gate.swap(0, 1), Gate.swap(2, 3)]
    assert _dense_steps(Circuit(m, [Gate.swap(0, 1), Gate.swap(1, 2), Gate.swap(0, 1)])) == [Gate.swap(0, 2)]
    # Runs that compose to the identity on every slice leave no step.
    assert _dense_steps(Circuit(m, [Gate.swap(0, 1), Gate.swap(1, 2)] * 3)) == []
    assert _dense_steps(Circuit(m, [Gate.x(6), Gate.cswap(6, 0, 1), Gate.x(6)] * 2)) == []
    falls_back = {
        # An odd number of X gates on a control.
        ("X", "CSWAP"): [Gate.x(6), *swaps, Gate.cswap(6, 0, 1)],
        ("X", "X", "X"): [Gate.x(6), *swaps, Gate.x(6), Gate.x(6)],
        # A control wire that a later SWAP moves.
        ("CSWAP",): [Gate.cswap(6, 0, 1), *swaps, Gate.swap(6, 5)],
        ("CSWAP", "CSWAP"): [Gate.cswap(6, 0, 1), Gate.cswap(1, 6, 2), *swaps],
        # An X target is a control wire too, CSWAP or not.
        ("X", "X"): [Gate.x(6), Gate.swap(6, 0), *swaps, Gate.x(6)],
        # More control wires than a chunk fixes: compiling would walk the
        # run once per control slice.
        ("CSWAP", "CSWAP", "CSWAP"): [Gate.cswap(4, 0, 1), *swaps, Gate.cswap(5, 0, 2), Gate.cswap(6, 1, 2)],
        ("X", "X", "X", "X", "X", "X"): [Gate.x(4), Gate.x(5), Gate.x(6), *swaps, Gate.x(4), Gate.x(5), Gate.x(6)],
    }
    rng = np.random.default_rng(1)
    for left, gates in falls_back.items():
        circuit = Circuit(m, gates)
        assert tuple(_left_kinds(circuit)) == left
        # The plain SWAP runs between them still compile.
        assert any(isinstance(step, _Transpose) for step in _dense_steps(circuit))
    for gates in [*compiled, *falls_back.values()]:
        circuit = Circuit(m, gates)
        state = _state_on(m, list(range(2**m)), rng)
        want = _gate_by_gate(state.copy(), circuit)
        got = run_on_support(state, circuit, None)
        assert np.array_equal(_bits(got.amplitudes), _bits(want.amplitudes))


def test_shift_passes_fuse_their_swap_cascades():
    layout = shift_layout(10, 5)
    m, c = layout.num_wires, layout.wires("c")[0]
    left = shift_cascade(layout.wires("a"), layout.wires("b"), c)
    rotate_left = [Gate.x(c), *left, Gate.x(c)]
    passes = [left, left[::-1], rotate_left, rotate_left[::-1], left[::-1] * 3]
    for gates in passes:
        steps = _dense_steps(Circuit(m, gates))
        # No X or CSWAP is left: every step permutes the wires of one
        # control slice, a quarter of the array at a time.
        assert steps and all(isinstance(step, _Transpose) for step in steps)
        assert {step.wires[0] for step in steps} == {c}
        assert {len(step.labels) for step in steps} == {2}
    # Each pass is two segments on each of its two control slices.
    assert [len(_dense_steps(Circuit(m, gates))) for gates in passes[:4]] == [4, 4, 4, 4]
    # Below four wires no run can leave two wires to chunk over.
    assert _left_kinds(Circuit(3, [Gate.swap(0, 1), Gate.swap(1, 2)])) == ["SWAP", "SWAP"]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rotating", [False, True])
def test_fused_pass_peak_memory_at_most_gate_by_gate(rotating, monkeypatch):
    layout = shift_layout(10, 5)
    m, c = layout.num_wires, layout.wires("c")[0]
    state = StateVector.from_label(m, 0)
    rng = np.random.default_rng(5)
    state.amplitudes[: 1 << c] = rng.normal(size=1 << c) / np.sqrt(1 << c)
    reference = state.copy()
    run_pass = lambda s: (rotate if rotating else shift)(s, layout)
    fused = _peak_bytes(lambda: run_pass(state))
    if not rotating:
        # Without X gates the largest temporary is one chunk of 2**(m-2)
        # amplitudes; the rest of the peak is the pass's few small objects.
        assert fused < 2 ** (m - 2) * state.amplitudes.itemsize * 1.125
    # The same pass, with the same scan and checks, but every gate applied alone.
    monkeypatch.setattr(state_module, "_dense_steps", list)
    assert fused <= _peak_bytes(lambda: run_pass(reference))
    assert np.array_equal(_bits(state.amplitudes), _bits(reference.amplitudes))


def _select_qubit_input(layout, slot, rng):
    """A state on every label that select_qubit's checks allow, with -0.0
    imaginary parts on some labels and -0.0 off the support."""
    m, anc = layout.num_wires, layout.wires("a")
    blocked = anc[len(anc) - (slot - 1):] + layout.wires("c")
    support = [label for label in range(2**m) if not any((label >> w) & 1 for w in blocked)]
    state = _state_on(m, support, rng)
    state.amplitudes.imag[support[::3]] = -0.0
    return state


@pytest.mark.parametrize("slot", [3, 4])
def test_dense_select_qubit_matches_gate_by_gate(slot, monkeypatch):
    # Slot 3 or more leaves at most 1/8 of the labels free, so a valid
    # input takes the support path; a zero share sends it to the dense array.
    monkeypatch.setattr(state_module, "SUPPORT_PATH_MAX_SHARE", 0.0)
    layout = shift_layout(6, 4)
    state = _select_qubit_input(layout, slot, np.random.default_rng(slot))
    passes = shift_cascade(layout.wires("a"), layout.wires("b"), layout.wires("c")[0], "right")
    circuit = Circuit(layout.num_wires, passes * (slot - 1))
    assert _support(state, circuit) is None
    want = _gate_by_gate(state.copy(), circuit)
    select_qubit(state, layout, "b", slot, ancilla="a")
    assert np.array_equal(_bits(state.amplitudes), _bits(want.amplitudes))


@pytest.mark.parametrize("run", ["shift right", "rotate left", "rotate right", "select_qubit"])
def test_compiled_passes_peak_under_one_chunk(run, monkeypatch):
    layout = shift_layout(10, 5)
    m, c = layout.num_wires, layout.wires("c")[0]
    rng = np.random.default_rng(5)
    if run == "select_qubit":
        monkeypatch.setattr(state_module, "SUPPORT_PATH_MAX_SHARE", 0.0)
        state = _select_qubit_input(layout, 3, rng)
        go = lambda: select_qubit(state, layout, "b", 3, ancilla="a")
    else:
        state = _state_on(m, list(range(1 << c)), rng)
        kind, direction = run.split()
        go = lambda: {"shift": shift, "rotate": rotate}[kind](state, layout, direction)
    # The largest temporary is one chunk of 2**(m-2) amplitudes; the rest
    # of the peak is the run's few small objects.
    assert _peak_bytes(go) < 2 ** (m - 2) * state.amplitudes.itemsize * 1.125


@pytest.mark.parametrize("m", [13, 14, 16])
def test_blocked_scan_matches_flatnonzero(m):
    size = 2**m
    rng = np.random.default_rng(m)
    edges = [e + d for e in range(0, size + 1, _SCAN_BLOCK) for d in (-2, -1, 0, 1)]
    for support in (
        [0],
        [size - 1],
        [e for e in edges if 0 <= e < size],
        rng.choice(size, size=size // 3, replace=False),
        np.arange(size),
    ):
        state = StateVector.from_label(m, 0)
        amps = state.amplitudes
        amps[:] = -0.0
        amps.imag[rng.random(size) < 0.5] = -0.0
        amps[support] = 1.0 + 1j * rng.integers(0, 2, size=len(support))
        want = np.flatnonzero(amps)
        for limit in (None, 0, want.size - 1, want.size, want.size + 1):
            got = state.nonzero_labels(limit=limit)
            if limit is not None and want.size > limit:
                assert got is None
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)
        # Without a limit the labels are held once, not once per block and
        # again joined.
        assert _peak_bytes(state.nonzero_labels) < want.nbytes + 4096


def _state_on(m, labels, rng):
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[labels] = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps[amps == 0] = -0.0
    return StateVector(amps / np.linalg.norm(amps))


def _dense_and_sparse_failures(m, support, violating, run):
    """The PreconditionError messages of ``run`` on a support above 1/8
    (every label of ``support``) and on one well below it (its first two
    labels), both holding the ``violating`` label; each state must come
    back untouched."""
    rng = np.random.default_rng(3)
    assert len(support) + 1 > SUPPORT_PATH_MAX_SHARE * 2**m > 3
    messages = []
    for labels in (list(support), list(support[:2])):
        state = _state_on(m, labels + [violating], rng)
        before = state.amplitudes.copy()
        with pytest.raises(PreconditionError) as excinfo:
            run(state)
        assert np.array_equal(_bits(state.amplitudes), _bits(before))
        messages.append(str(excinfo.value))
    return messages


def test_dense_shift_names_the_violated_control_like_the_support_path():
    layout = shift_layout(3, 2)
    c = layout.wires("c")[0]
    valid = list(range(1 << c))  # every label with control 0
    messages = _dense_and_sparse_failures(
        layout.num_wires, valid, (1 << c) | 5, lambda state: shift(state, layout)
    )
    assert messages == ["control wire 'c' must be zero on every supported basis state"] * 2


@pytest.mark.parametrize("violated", ["a", "c", "B"])
def test_dense_select_qubit_names_the_violated_check_like_the_support_path(violated):
    if violated == "B":
        # A multiplier answers its zero checks the same way. Here A, C, B
        # and ancA are free, so B is superposed over more than 1/8 of the labels.
        spec = MulQuantumSpec(1, 1, 1, 1, 2)
        layout = mul_quantum_layout(spec)
        blocked = layout.wires("ancC") + layout.wires("carry") + layout.wires("c")
        bad = (1 << layout.wires("B")[0]) | (1 << layout.wires("c")[0])
        run = lambda state: multiply_registers(state, spec, layout)
    else:
        layout = shift_layout(4, 3)
        top_a = layout.wires("a")[1:]
        blocked = top_a + layout.wires("c")
        # A label violating both checks must be named by the first, as on the support path.
        bad = (1 << top_a[-1]) | (1 << layout.wires("c")[0]) if violated == "a" else 1 << layout.wires("c")[0]
        run = lambda state: select_qubit(state, layout, "b", 3, ancilla="a")
    m = layout.num_wires
    support = [label for label in range(2**m) if not any((label >> w) & 1 for w in blocked)]
    messages = _dense_and_sparse_failures(m, support, bad, run)
    want = {
        "a": "top 2 slots of ancilla 'a' must be zero on every supported basis state",
        "c": "shift control wire must be zero on every supported basis state",
        "B": "accumulator B must be zero on every supported basis state",
    }[violated]
    assert messages == [want] * 2
