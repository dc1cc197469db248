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
def swap_run_circuits(draw):
    """A permutation circuit made mostly of SWAP runs (random pairs, one pair
    repeated, or a cascade over every wire), broken by single X, CNOT,
    TOFFOLI or CSWAP gates, and a state with -0.0 on some labels and parts."""
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
    circuit = Circuit(m, [g for piece in draw(st.lists(st.one_of(pieces), max_size=8)) for g in piece])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    amps.imag[rng.random(2**m) < 0.3] = -0.0
    amps[rng.random(2**m) < draw(st.floats(0.0, 1.0))] = complex(-0.0, -0.0)
    amps[0] = 1.0
    return circuit, StateVector(amps / np.linalg.norm(amps))


@settings(max_examples=300, deadline=None)
@given(swap_run_circuits())
def test_fused_dense_path_matches_gate_by_gate(case):
    circuit, state = case
    reference = state.copy()
    for gate in circuit:
        apply_gate(reference, gate)
    fused = run_on_support(state.copy(), circuit, None)
    assert np.array_equal(_bits(fused.amplitudes), _bits(reference.amplitudes))
    # Each fused run leaves at least two wires to chunk over.
    for step in _dense_steps(circuit):
        if not isinstance(step, Gate):
            assert len(step) > 1
            assert len({w for gate in step for w in gate.wires}) <= circuit.num_wires - 2


def test_shift_passes_fuse_their_swap_cascades():
    layout = shift_layout(10, 5)
    a, b, c = layout.wires("a"), layout.wires("b"), layout.wires("c")[0]
    left = Circuit(layout.num_wires, shift_cascade(a, b, c))
    right = left.reversed()
    kinds = lambda circuit: [s.kind if isinstance(s, Gate) else len(s) for s in _dense_steps(circuit)]
    assert kinds(left) == [7, 7, "CSWAP"]
    assert kinds(right) == ["CSWAP", 7, 7]
    # Below four wires no run can leave two wires to chunk over.
    assert kinds(Circuit(3, [Gate.swap(0, 1), Gate.swap(1, 2)])) == ["SWAP", "SWAP"]


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
        got = state.nonzero_labels()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for limit in (0, want.size - 1, want.size, want.size + 1):
            limited = state.nonzero_labels(limit=limit)
            if want.size > limit:
                assert limited is None
            else:
                assert np.array_equal(limited, want)


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
