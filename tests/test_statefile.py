"""State-file round trips, determinism, and malformed-input rejection."""

import numpy as np
import pytest

from qshift import (
    Gate,
    PreconditionError,
    RegisterLayout,
    StateVector,
    apply_gate,
    read_state,
    state_from_text,
    state_to_text,
    write_state,
)
from conftest import random_state


def _layout():
    return RegisterLayout([("a", [0, 1]), ("b", [2, 3, 4])])


def test_round_trip_is_amplitude_exact(rng, tmp_path):
    layout = _layout()
    for _ in range(20):
        state = random_state(rng, 5)
        path = tmp_path / "s.txt"
        write_state(state, layout, str(path))
        back = read_state(str(path), layout)
        assert (back.amplitudes == state.amplitudes).all()


def test_serialization_is_deterministic(rng):
    layout = _layout()
    state = random_state(rng, 5)
    assert state_to_text(state, layout) == state_to_text(state.copy(), layout)


def test_format_shape():
    layout = _layout()
    state = StateVector.from_label(5, 0)
    apply_gate(state, Gate.h(2))  # b slot 1
    text = state_to_text(state, layout)
    lines = text.splitlines()
    assert lines[0] == "wires=5"
    assert len(lines) == 3
    # display order: a (2 bits MSB-first) then b (3 bits MSB-first)
    assert lines[1].split()[0] == "00000"
    assert lines[2].split()[0] == "00001"
    assert lines[1].split()[1] == f"{1/np.sqrt(2):.17g}"


def test_rejects_bad_inputs():
    layout = _layout()
    with pytest.raises(PreconditionError):
        state_from_text("nonsense\n", layout)
    with pytest.raises(PreconditionError):
        state_from_text("wires=4\n0000 1 0\n", layout)  # wrong width
    with pytest.raises(PreconditionError):
        state_from_text("wires=5\n00001 1 0\n00001 1 0\n", layout)  # duplicate
    with pytest.raises(PreconditionError):
        state_from_text("wires=5\n00001 0.5 0\n", layout)  # bad norm
    with pytest.raises(PreconditionError):
        state_from_text("wires=5\n00001 one 0\n", layout)
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(PreconditionError):
            state_from_text("wires=5\n00001 5 0\n", layout, norm_tol=tol)
    for amplitude in ("nan 0", "1 inf", "-inf 0"):
        with pytest.raises(PreconditionError):
            state_from_text(f"wires=5\n00001 {amplitude}\n", layout)
    # Over the 24-wire ceiling: rejected before 2**40 amplitudes are allocated.
    with pytest.raises(PreconditionError):
        state_from_text("wires=40\n" + "0" * 40 + " 1 0\n", RegisterLayout.single("q", 40))


def test_negative_zero_is_normalized():
    layout = RegisterLayout([("q", [0])])
    state = StateVector(np.array([1.0, -0.0 + 0.0j]))
    assert "-0" not in state_to_text(state, layout)
