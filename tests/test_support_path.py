"""Properties of the support path: permutation circuits run on the nonzero labels only."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qshift import (
    Circuit,
    Gate,
    MulQuantumSpec,
    RegisterLayout,
    StateVector,
    apply_circuit_to_label,
    extended_addend,
    multiply_registers,
    run_circuit,
)
from qshift.gates import GATE_ARITY
from qshift.state import SUPPORT_PATH_MAX_SHARE, run_on_support, support_path

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
    assert (support_path(state, labels) is not None) == sparse
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
