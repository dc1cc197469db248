"""State-file round trips, determinism, and malformed-input rejection."""

import os
import stat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshift import statefile
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
    # Several faults: the first in file order is named, in one block or one per line.
    for block in (1, statefile.READ_BLOCK_CHARS):
        with mock.patch.object(statefile, "READ_BLOCK_CHARS", block):
            with pytest.raises(PreconditionError, match="duplicate basis label '00001'"):
                state_from_text("wires=5\n00001 1 0\n00001 1 0\n00010 one 0\n", layout)
            with pytest.raises(PreconditionError, match="duplicate basis label '00010'"):
                state_from_text("wires=5\n00001 1 0\n00010 1 0\n00010 1 0\n00001 1 0\n", layout)
    # Shortest possible lines, repeated: the parser's label buffer must hold them all.
    with pytest.raises(PreconditionError, match="duplicate basis label '00001'"):
        state_from_text("wires=5\n" + "00001 0 0\n" * 500, layout)
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


def test_written_file_mode_follows_umask(tmp_path):
    path = tmp_path / "s.txt"
    state = StateVector.from_label(5, 0)
    old = os.umask(0o022)
    try:
        write_state(state, _layout(), str(path))
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        write_state(state, _layout(), str(path))  # replacing the file keeps the mode
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
    finally:
        os.umask(old)


@st.composite
def layouts(draw, min_wires=1, max_wires=8):
    """Random widths, wire assignment and segment order."""
    m = draw(st.integers(min_wires, max_wires))
    wires = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=3))) if m > 1 else []
    bounds = [0, *cuts, m]
    return RegisterLayout(
        [(f"s{i}", wires[lo:hi]) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    )


_components = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300]),
)


@st.composite
def supported_states(draw, layout):
    """A random support with random amplitudes; -0.0 components included."""
    m = layout.num_wires
    labels = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=40, unique=True))
    amps = np.zeros(1 << m, dtype=np.complex128)
    for label in labels:
        amps[label] = complex(draw(_components), draw(_components))
    norm = np.linalg.norm(amps)
    if norm < 1e-100:  # nothing left to normalize
        amps[labels[0]] = 1.0
        norm = np.linalg.norm(amps)
    return StateVector(amps / norm)


def _reference_text(state, layout):
    """The format, written line by line from each label's display bitstring."""
    rows = []
    for label in range(1 << state.num_wires):
        amp = complex(state.amplitudes[label])
        if amp != 0:
            rows.append(f"{layout.display_label(label)} {amp.real + 0.0:.17g} {amp.imag + 0.0:.17g}")
    return "".join(f"{row}\n" for row in [f"wires={state.num_wires}", *sorted(rows)])


# Reader block sizes: one character cuts the text after every line, 64 after every few.
_block_sizes = st.sampled_from([1, 64, statefile.READ_BLOCK_CHARS])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_text_matches_reference_and_round_trips(data):
    layout = data.draw(layouts())
    state = data.draw(supported_states(layout))
    assert layout.display_wires == tuple(
        w for name in layout.segment_names for w in reversed(layout.wires(name))
    )
    text = state_to_text(state, layout)
    assert text == _reference_text(state, layout)
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))  # all line ends read alike
    with mock.patch.object(statefile, "READ_BLOCK_CHARS", data.draw(_block_sizes)):
        back = state_from_text(text.replace("\n", eol), layout)
    assert back.amplitudes.tobytes() == (state.amplitudes + 0.0).tobytes()  # -0.0 folded


def _mutate(kind, lines, i, pos, m):
    """One fault in line ``i`` (or the header); returns the lines and the expected message."""
    bits, re, im = lines[i].split()
    bad_bits = None
    if kind == "two fields":
        lines[i] = f"{bits} {re}"
    elif kind == "four fields":
        lines[i] = f"{bits} {re} {im} 0"
    elif kind == "digit 2":
        bad_bits = bits[:pos] + "2" + bits[pos + 1:]
    elif kind == "short bitstring":
        bad_bits = bits[1:]
    elif kind == "non-ASCII digit":
        bad_bits = bits[:pos] + "\u0661" + bits[pos + 1:]  # ARABIC-INDIC DIGIT ONE
    elif kind == "duplicate":
        lines.insert(i + pos % 2, lines[i])
        return lines, f"duplicate basis label {bits!r}"
    elif kind == "word":
        lines[i] = f"{bits} one {im}"
    elif kind in ("nan", "inf"):
        lines[i] = f"{bits} {re} -inf" if kind == "inf" else f"{bits} nan {im}"
        return lines, "state file has a NaN or infinite amplitude"
    elif kind == "header":
        lines[0] = f"wires={m + 1}"
        return lines, f"file has {m + 1} wires, layout expects {m}"
    if bad_bits is not None:
        lines[i] = f"{bad_bits} {re} {im}"
        return lines, f"bitstring {bad_bits!r} is not {m} bits"
    return lines, f"bad amplitude line {lines[i]!r}"


_FAULTS = (
    "two fields", "four fields", "digit 2", "short bitstring", "non-ASCII digit",
    "duplicate", "word", "nan", "inf", "header",
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_fault_is_named(data):
    layout = data.draw(layouts(min_wires=2))
    state = data.draw(supported_states(layout))
    lines = state_to_text(state, layout).splitlines()
    m = layout.num_wires
    i = data.draw(st.integers(1, len(lines) - 1))
    pos = data.draw(st.integers(0, m - 1))
    lines, expected = _mutate(data.draw(st.sampled_from(_FAULTS)), lines, i, pos, m)
    with mock.patch.object(statefile, "READ_BLOCK_CHARS", data.draw(_block_sizes)):
        with pytest.raises(PreconditionError) as err:
            state_from_text("\n".join(lines) + "\n", layout)
    assert str(err.value) == expected
