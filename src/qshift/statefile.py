"""Text serialization of state vectors.

Format: a header line ``wires=<m>`` followed by one line per nonzero
amplitude, ``<bitstring> <real> <imag>``. Bitstrings follow the layout's
display order (segments in declaration order, each MSB-first) and lines are
sorted by bitstring, so identical states serialize byte-identically.
Amplitude components use 17 significant digits, which round-trips doubles
exactly. Files are ASCII.

Label and bitstring work runs as whole-array bit operations, and the reader splits
each block of lines once, so the only per-line work left on the writer's own files
is float formatting and parsing. The read state keeps the bound after its highest
label. A fault is named in file order, walking only the block that holds it.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from .errors import PreconditionError, instance
from .state import (
    NORM_TOL, RegisterLayout, StateVector, check_layout_on_state, check_unit_norm, check_wire_count, first_repeat,
)

# Parse block size. Each block's fields, digits and floats are freed before
# the next, so beyond the text, the values read and the amplitudes a parse
# holds one block. On a 32768-line, 18-wire file (2.1 MB of text; 2 cores,
# numpy 2.4, a busy host), 1 << 17-character blocks (~1900 lines) read in a
# median 64 ms with a tracemalloc peak of 6.7 MB; the whole text as one block
# took 69 ms and 15.2 MB, 1 << 15-character blocks 71 ms and 1 << 18 63 ms.
READ_BLOCK_CHARS = 1 << 17

_ZERO = ord("0")


def state_to_text(state: StateVector, layout: RegisterLayout) -> str:
    check_layout_on_state(state, layout)
    m = state.num_wires
    labels, amps = state.support()
    # All bitstrings have m characters, so their order is that of the
    # integers they spell.
    key = np.zeros_like(labels)
    for col, wire in enumerate(layout.display_wires):
        key |= ((labels >> wire) & 1) << (m - 1 - col)
    order = np.argsort(key)
    del key
    labels, amps = labels[order], amps[order]
    chars = np.empty((labels.size, m), dtype=np.uint32)  # UCS-4 code points
    for col, wire in enumerate(layout.display_wires):
        chars[:, col] = (labels >> wire) & 1
    chars += _ZERO
    fields: list = [m] + [None] * (3 * labels.size)
    fields[1::3] = chars.view(f"U{m}").ravel().tolist()
    del chars
    fields[2::3] = (amps.real + 0.0).tolist()  # + 0.0 folds -0.0 into 0.0
    fields[3::3] = (amps.imag + 0.0).tolist()
    # One %-format call: the C formatter loops over the lines.
    return ("wires=%d\n" + "%s %.17g %.17g\n" * labels.size) % tuple(fields)


def _labels_from_bits(bits: list[str], layout: RegisterLayout) -> np.ndarray | None:
    """Labels of valid display bitstrings, or None if any is not ``m`` ASCII 0/1s."""
    m = layout.num_wires
    joined = "".join(bits)
    if set(map(len, bits)) - {m} or not joined.isascii():
        return None
    digits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, m) - _ZERO
    if (digits > 1).any():  # uint8 wraps characters below '0' to large values
        return None
    labels = np.zeros(len(bits), dtype=np.int64)
    for col, wire in enumerate(layout.display_wires):
        labels |= digits[:, col].astype(np.int64) << wire
    return labels


def _parse_block(block: str, layout: RegisterLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels, real and imaginary parts of a block's nonblank lines, or None if one is faulty. The fields are
    the lines' triplets if the writer's line form, filled with them, gives the block back, or if each holds three."""
    fields = block.split()
    n = len(fields) // 3
    written = 3 * n == len(fields) and ("%s %s %s\n" * n) % tuple(fields) == block
    if not written and set(map(len, map(str.split, block.splitlines()))) - {0, 3}:  # CRLF, tabs, blank lines
        return None
    labels = _labels_from_bits(fields[0::3], layout)
    if labels is None:
        return None
    try:  # accepts and rejects the same strings as float()
        real = np.array(fields[1::3], dtype=np.float64)
        imag = np.array(fields[2::3], dtype=np.float64)
    except ValueError:
        return None
    return labels, real, imag


def _raise_first_fault(block: str, earlier: np.ndarray, layout: RegisterLayout) -> None:
    """Raise PreconditionError on the first fault in file order: a repeat among ``earlier``, the labels read
    before ``block``, found from the array whole, else the first faulty nonblank line of ``block``: not three
    fields, a bad bitstring, a label read before, or an amplitude ``float()`` refuses. Called once the block
    parse has found a fault, this names it with one message."""
    twice = first_repeat(earlier)
    if twice is not None:
        raise _repeated(int(earlier[twice]), layout)
    seen = set(earlier.tolist())
    for ln in filter(str.strip, block.splitlines()):
        parts = ln.split()
        if len(parts) != 3:
            raise PreconditionError(f"bad amplitude line {ln!r}")
        label = layout.label_from_display(parts[0])
        if label in seen:
            raise _repeated(label, layout)
        seen.add(label)
        try:
            float(parts[1])
            float(parts[2])
        except ValueError:
            raise PreconditionError(f"bad amplitude line {ln!r}") from None


def _repeated(label: int, layout: RegisterLayout) -> PreconditionError:
    return PreconditionError(f"duplicate basis label {layout.display_label(label)!r}")


def _line_blocks(text: str, start: int = 0) -> Iterator[str]:
    """``text[start:]`` in blocks of whole lines, about ``READ_BLOCK_CHARS`` characters each.

    Each block but the last ends just after a newline, so no line and no
    ``\\r\\n`` pair is cut in two.
    """
    while start < len(text):
        cut = text.find("\n", start + READ_BLOCK_CHARS)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end]
        start = end


def state_from_text(text: str, layout: RegisterLayout, *, norm_tol: float = NORM_TOL) -> StateVector:
    if not isinstance(text, str):  # a name, not a repr: bytes read from a file may be megabytes
        raise PreconditionError(f"state text of type {type(text).__name__} is not a str")
    header, start = "", 0
    for line in (line for block in _line_blocks(text) for line in block.splitlines(keepends=True)):
        start += len(line)
        if line.strip():  # the header is the first nonblank line
            header = line.splitlines()[0]
            break
    if not header.startswith("wires="):
        raise PreconditionError("state file must start with a wires=<m> header")
    try:
        m = int(header.split("=", 1)[1])
    except ValueError:
        raise PreconditionError(f"bad header {header!r}") from None
    if m != instance(layout, RegisterLayout, "layout").num_wires:
        raise PreconditionError(
            f"file has {m} wires, layout expects {layout.num_wires}"
        )
    check_wire_count(m)  # the ceiling, before the parse
    # Every label read comes from a line of at least m + 4 characters and a
    # line break, which bounds their count. Arrays allocated up front hold
    # them all: per-block arrays kept to the end of the parse fragmented the
    # heap, and the cli-files benchmark's peak RSS rose by 1-3 MB.
    size = (len(text) + 1) // (m + 5) + 1
    seen, values, count = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.complex128), 0
    for block in _line_blocks(text, start):
        parsed = _parse_block(block, layout)
        if parsed is None:
            _raise_first_fault(block, seen[:count], layout)
        end = count + parsed[0].size  # real and imag go in by two real writes: real + 1j * imag turns inf to nan
        seen[count:end], values.real[count:end], values.imag[count:end] = parsed
        count = end
    labels, values = seen[:count], values[:count]
    twice = first_repeat(labels)
    if twice is not None:
        raise _repeated(int(labels[twice]), layout)
    check_unit_norm(values, norm_tol, "state file")
    return StateVector.from_support(m, labels, values, norm_tol=norm_tol)


def write_state(state: StateVector, layout: RegisterLayout, path: str) -> None:
    """Write atomically: the target appears only after a complete serialize.

    The file gets the mode a plain ``open(path, "w")`` would give it:
    0o666 less the process umask.
    """
    path, text = _path(path), state_to_text(state, layout)
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".qshift-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _path(path) -> str:
    """``path`` as a str, refused by type before any open: ``open(True)`` would open stdout."""
    try:
        return os.fsdecode(path)
    except TypeError:
        kind = type(path).__name__
        raise PreconditionError(f"state file path of type {kind} is not a str, bytes or os.PathLike") from None


def read_state(path: str, layout: RegisterLayout, *, norm_tol: float = NORM_TOL) -> StateVector:
    with open(_path(path), "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise PreconditionError(
            f"state file {path!r} has a non-ASCII byte at offset {exc.start}"
        ) from None
    del data
    return state_from_text(text, layout, norm_tol=norm_tol)
