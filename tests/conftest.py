"""Shared test helpers: independent dense-matrix gate application, a gate-free adder and generators."""

from typing import Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from qshift import Circuit, Gate, MulQuantumSpec, PreconditionError, RegisterLayout, StateVector
from qshift.errors import disjoint, instance, register_wires
from qshift.gates import GATE_ARITY

_SQ = 1.0 / np.sqrt(2.0)

# Local basis convention: the first wire in the gate tuple is the most
# significant bit of the local index.
GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ,
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _permutation_matrix(dim, swaps):
    mat = np.eye(dim, dtype=complex)
    for i, j in swaps:
        mat[[i, j]] = mat[[j, i]]
    return mat


GATE_MATRICES["TOFFOLI"] = _permutation_matrix(8, [(6, 7)])
GATE_MATRICES["CSWAP"] = _permutation_matrix(8, [(5, 6)])


def apply_gate_matrix(amplitudes: np.ndarray, gate: Gate, num_wires: int) -> np.ndarray:
    """Reference gate application by dense matrix contraction."""
    arity = GATE_ARITY[gate.kind]
    mat = GATE_MATRICES[gate.kind].reshape((2,) * (2 * arity))
    tensor = amplitudes.reshape((2,) * num_wires)
    axes = [num_wires - 1 - w for w in gate.wires]
    out = np.tensordot(mat, tensor, axes=(list(range(arity, 2 * arity)), axes))
    out = np.moveaxis(out, range(arity), axes)
    return out.reshape(-1)


def apply_circuit_matrix(amplitudes: np.ndarray, circuit: Circuit) -> np.ndarray:
    out = amplitudes.copy()
    for gate in circuit:
        out = apply_gate_matrix(out, gate, circuit.num_wires)
    return out


def oracle_add(state: StateVector, reg_a: Sequence[int], reg_b: Sequence[int]) -> StateVector:
    """Permutation-level adder used as an independent cross-check.

    Relabels amplitudes directly from integer arithmetic; no gates.
    """
    a = register_wires(reg_a, "addend", instance(state, StateVector, "state").num_wires)
    b = register_wires(reg_b, "target", state.num_wires)
    for name, wires in (("addend", a), ("target", b)):
        if not wires:
            raise PreconditionError(f"{name} register must have at least one wire")
    disjoint({"addend": a, "target": b})
    labels = np.arange(state.amplitudes.size, dtype=np.int64)
    a_val = np.zeros_like(labels)
    for slot, wire in enumerate(a):
        a_val |= ((labels >> wire) & 1) << slot
    b_val = np.zeros_like(labels)
    b_mask = 0
    for slot, wire in enumerate(b):
        b_val |= ((labels >> wire) & 1) << slot
        b_mask |= 1 << wire
    new_b = (a_val + b_val) & ((1 << len(b)) - 1)
    new_labels = labels & ~b_mask
    for slot, wire in enumerate(b):
        new_labels |= ((new_b >> slot) & 1) << wire
    out = np.zeros_like(state.amplitudes)
    out[new_labels] = state.amplitudes
    state.amplitudes = out
    return state


def random_state(rng: np.random.Generator, num_wires: int) -> StateVector:
    dim = 1 << num_wires
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return StateVector(amps)


def holding(amps: np.ndarray) -> StateVector:
    """A state holding a copy of ``amps``, unit norm or not, assigned through ``.amplitudes``: its live-prefix
    bound is the whole buffer, so every step reads the whole array."""
    state = StateVector.from_label(int(amps.size).bit_length() - 1, 0)
    state.amplitudes = amps
    return state


def random_gate(rng: np.random.Generator, num_wires: int, kinds) -> Gate:
    kind = kinds[rng.integers(len(kinds))]
    wires = rng.choice(num_wires, size=GATE_ARITY[kind], replace=False)
    return Gate(kind, tuple(int(w) for w in wires))


def random_circuit(rng: np.random.Generator, num_wires: int, length: int, kinds=None) -> Circuit:
    if kinds is None:
        kinds = ("X", "H", "CNOT", "SWAP", "CSWAP", "TOFFOLI")
    usable = [k for k in kinds if GATE_ARITY[k] <= num_wires]
    return Circuit(num_wires, [random_gate(rng, num_wires, usable) for _ in range(length)])


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)
