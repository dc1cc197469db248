"""State-file round trips, determinism, and malformed-input rejection."""

import os
import stat
import subprocess
import sys
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
    # A malformed line before a repeat is named first, and a repeat whose two lines
    # fall in different blocks is found, also ahead of a later malformed line.
    spread = "wires=5\n00001 1 0\n" + "".join(f"{i:05b} 0 0\n" for i in range(2, 12)) + "00001 0 0\n"
    with mock.patch.object(statefile, "READ_BLOCK_CHARS", 64):
        first, *later = statefile._line_blocks(spread)
    assert "00001 1 0" in first and "00001 0 0" not in first and later
    for block in (1, 64, statefile.READ_BLOCK_CHARS):
        with mock.patch.object(statefile, "READ_BLOCK_CHARS", block):
            with pytest.raises(PreconditionError, match="^bad amplitude line '00010 one 0'$"):
                state_from_text("wires=5\n00001 1 0\n00010 one 0\n00001 1 0\n", layout)
            with pytest.raises(PreconditionError, match="^duplicate basis label '00001'$"):
                state_from_text(spread, layout)
            with pytest.raises(PreconditionError, match="^duplicate basis label '00001'$"):
                state_from_text(spread + "11111 one 0\n", layout)
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
        state_from_text("wires=40\n" + "0" * 40 + " 1 0\n", RegisterLayout.packed([("q", 40)]))


def test_the_norm_is_checked_over_the_listed_amplitudes_alone(monkeypatch):
    # Every label the file does not list holds 0, so the check reads the listed lines' amplitudes, not 2**m.
    checked, check = [], statefile.check_unit_norm

    def spy(amplitudes, *args):
        checked.append(amplitudes.copy())
        return check(amplitudes, *args)

    monkeypatch.setattr(statefile, "check_unit_norm", spy)
    state = state_from_text("wires=5\n10000 0 0.8\n00001 0.6 0\n", _layout())
    (listed,) = checked
    assert listed.tolist() == [0.8j, 0.6] and state.norm() == pytest.approx(1.0)
    with pytest.raises(PreconditionError, match=r"^state file norm 0\.6 deviates from 1 beyond 1e-12$"):
        state_from_text("wires=5\n00001 0.6 0\n", _layout())
    # With no line listed the norm is 0, which a tolerance of 1 admits: the zero state, bounded
    # at 0, as an empty support gives it.
    layout = RegisterLayout.packed([("q", 3)])
    for state in (
        state_from_text("wires=3\n", layout, norm_tol=1),
        state_from_text("\nwires=3\n \n", layout, norm_tol=2.5),
        StateVector.from_support(3, [], [], norm_tol=1),
    ):
        assert state._live == 0 and state_to_text(state, layout) == "wires=3\n"
        assert np.array_equal(state.amplitudes.view(np.uint64), np.zeros(16, np.uint64))
    with pytest.raises(PreconditionError, match=r"^state file norm 0\.0 deviates from 1 beyond 0\.5$"):
        state_from_text("wires=3\n", layout, norm_tol=0.5)


@pytest.mark.parametrize("block_chars", [1, 64, statefile.READ_BLOCK_CHARS])
def test_blank_lines_are_skipped(block_chars, monkeypatch, rng):
    # Blank and whitespace-only lines lead, sit between lines and trail, and
    # at small block sizes some blocks hold nothing else. Each block parses
    # whole, with no line-by-line walk.
    layout = _layout()
    state = random_state(rng, 5)
    header, *lines = state_to_text(state, layout).splitlines()
    blanks = ["", " ", "\t", "  \t "]
    body = ["", "   ", header, *blanks * 20]
    for i, line in enumerate(lines):
        body += blanks[: i % 5] + [line]
    text = "\n".join(body + blanks * 20) + "\n"

    def walked(*args):
        raise AssertionError("a block with blank lines was walked line by line")

    monkeypatch.setattr(statefile, "READ_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(statefile, "_raise_first_fault", walked)
    assert np.array_equal(state_from_text(text, layout).amplitudes, state.amplitudes)


def test_a_file_the_writer_wrote_is_parsed_with_no_per_line_split(rng):
    # Each block is split once into its fields, which the writer's line form, formatted
    # from them, checks; no block is cut into lines but the first, to find the header.
    layout = _layout()
    text = state_to_text(random_state(rng, 5), layout)
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == statefile.__file__:
            calls.append((frame.f_code.co_name, arg.__name__))

    with mock.patch.object(statefile, "READ_BLOCK_CHARS", 64):
        blocks = len(list(statefile._line_blocks(text, text.index("\n") + 1)))
        sys.setprofile(profile)
        try:
            state_from_text(text, layout)
        finally:
            sys.setprofile(None)
    assert calls.count(("_parse_block", "split")) == blocks > 1
    assert [name for _, name in calls].count("split") == blocks + 1  # and the header's "wires=" split
    cuts = [where for where, name in calls if name == "splitlines"]
    assert cuts == ["<genexpr>", "state_from_text"]  # the first block's lines, then the header line's end


def test_a_fault_walks_only_its_own_block(monkeypatch):
    # A malformed last line is named by walking the last block alone, and a repeat that only
    # the end-of-parse check finds is named from the labels read, with no walk.
    layout = RegisterLayout.packed([("q", 8)])
    lines = [f"{i:08b} {1 / 16} 0\n" for i in range(256)]
    walked = []
    label_from_display = RegisterLayout.label_from_display
    monkeypatch.setattr(
        RegisterLayout, "label_from_display", lambda self, bits: walked.append(bits) or label_from_display(self, bits)
    )
    monkeypatch.setattr(statefile, "READ_BLOCK_CHARS", 64)
    text = "wires=8\n" + "".join(lines[:255]) + "11111111 one 0\n"
    *_, last = statefile._line_blocks(text, len("wires=8\n"))
    with pytest.raises(PreconditionError, match="^bad amplitude line '11111111 one 0'$"):
        state_from_text(text, layout)
    assert walked == [line.split()[0] for line in last.splitlines()] and 0 < len(walked) < 10
    walked.clear()
    with pytest.raises(PreconditionError, match="^duplicate basis label '00000011'$"):
        state_from_text("wires=8\n" + "".join(lines[:255] + lines[3:4] + lines[1:2]), layout)
    assert walked == []
    # A repeat in the first block comes before the malformed last line, and is named with no walk.
    with pytest.raises(PreconditionError, match="^duplicate basis label '00000001'$"):
        state_from_text("wires=8\n" + "".join(lines[:2] + lines[1:2] + lines[3:255]) + "11111111 one 0\n", layout)
    assert walked == []


def test_negative_zero_is_normalized():
    layout = RegisterLayout([("q", [0])])
    state = StateVector(np.array([1.0, -0.0 + 0.0j]))
    assert "-0" not in state_to_text(state, layout)


@pytest.mark.parametrize(
    "call, kind",
    [
        pytest.param(lambda: read_state(None, _layout()), "NoneType", id="read None"),
        pytest.param(lambda: write_state(StateVector.from_label(5, 0), _layout(), 3.5), "float", id="write float"),
        pytest.param(lambda: write_state(StateVector.from_label(5, 0), _layout(), None), "NoneType", id="write None"),
        pytest.param(lambda: write_state(StateVector.from_label(5, 0), _layout(), True), "bool", id="write bool"),
        pytest.param(lambda: write_state(StateVector.from_label(5, 0), _layout(), 1), "int", id="write int"),
    ],
)
def test_a_path_that_os_fspath_refuses_is_named_by_its_type(call, kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(PreconditionError) as excinfo:
        call()
    assert str(excinfo.value) == f"state file path of type {kind} is not a str, bytes or os.PathLike"
    assert os.listdir(tmp_path) == []


def test_a_bool_or_int_read_path_is_refused_before_anything_is_opened():
    # open(True) and open(1) open file descriptor 1, and leaving the read's
    # block would close the process's stdout; run apart, so the test
    # runner's own stdout stays open whatever happens.
    script = (
        "import os, qshift\n"
        "for path in (True, 1):\n"
        "    try:\n"
        "        qshift.read_state(path, qshift.shift_layout(2, 2))\n"
        "    except qshift.PreconditionError as exc:\n"
        "        print(exc)\n"
        "os.fstat(1)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        f"state file path of type {kind} is not a str, bytes or os.PathLike" for kind in ("bool", "int")
    ]


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
# Field separators are runs of blanks that str.split knows and no line end; line ends are
# every ASCII one that str.splitlines knows.
_separators = st.text(" \t\x1f", min_size=1, max_size=3)
_line_ends = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"])


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
    # All field separators and line ends read alike.
    respaced = "".join(
        data.draw(_separators).join(line.split(" ")) + data.draw(_line_ends) for line in text.splitlines()
    )
    with mock.patch.object(statefile, "READ_BLOCK_CHARS", data.draw(_block_sizes)):
        back = state_from_text(respaced, layout)
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
    elif kind == "moved field":  # a 2-field line, then one with the field moved in: as many fields as before
        lines[i] = f"{bits} {re}"
        if i + 1 < len(lines):
            lines[i + 1] = f"{im} {lines[i + 1]}"
        else:
            lines.append(im)
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
    "duplicate", "word", "moved field", "nan", "inf", "header",
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
