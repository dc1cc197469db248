"""Text serialization of state vectors.

Format: a header line ``wires=<m>`` followed by one line per nonzero
amplitude, ``<bitstring> <real> <imag>``. Bitstrings follow the layout's
display order (segments in declaration order, each MSB-first) and lines are
sorted by bitstring, so identical states serialize byte-identically.
Amplitude components use 17 significant digits, which round-trips doubles
exactly. Files are ASCII.

Label and bitstring work runs as whole-array bit operations; the only
per-line work left is float formatting and parsing and ``str.split``. A file
with a malformed line or a repeated label is walked line by line from its
header, to name the first fault in file order.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator

import numpy as np

from .errors import PreconditionError, instance
from .state import NORM_TOL, RegisterLayout, StateVector, check_layout_on_state, check_unit_norm

# Parse block size. Each block's lines, tokens, digits and floats are freed
# before the next, so beyond the text and the amplitudes a parse holds one
# block. On a 32768-line, 18-wire file (2.1 MB of text; 2 cores, numpy 2.4),
# 1 << 17-character blocks (~1900 lines) parsed in a median 38 ms with a
# tracemalloc peak of 6.3 MB; the whole text as one block took 52 ms and
# 23.1 MB, and 8192-character blocks took 40 ms and 6.1 MB.
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


def _labels_from_bits(bits: tuple[str, ...], layout: RegisterLayout) -> np.ndarray | None:
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


def _parse_block(
    block: list[str], layout: RegisterLayout
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels, real and imaginary parts of a block's nonblank lines, or None if one is faulty."""
    rows = list(filter(None, map(str.split, block)))
    if set(map(len, rows)) - {3}:
        return None
    bits, re_text, im_text = zip(*rows) if rows else ((), (), ())
    labels = _labels_from_bits(bits, layout)
    if labels is None:
        return None
    try:  # accepts and rejects the same strings as float()
        re = np.array(re_text, dtype=np.float64)
        im = np.array(im_text, dtype=np.float64)
    except ValueError:
        return None
    return labels, re, im


def _raise_first_fault(text: str, layout: RegisterLayout) -> None:
    """Raise PreconditionError on the first faulty line after the header of ``text``:
    not three fields, a bad bitstring, a label an earlier line holds, or an amplitude
    ``float()`` refuses. Called once the block parse or the repeat check has found a
    fault, this plain loop names it with one message and in file order."""
    lines = filter(str.strip, itertools.chain.from_iterable(_line_blocks(text)))  # one block held at a time
    next(lines)  # the header
    seen = set()
    for ln in lines:
        parts = ln.split()
        if len(parts) != 3:
            raise PreconditionError(f"bad amplitude line {ln!r}")
        label = layout.label_from_display(parts[0])
        if label in seen:
            raise PreconditionError(f"duplicate basis label {parts[0]!r}")
        seen.add(label)
        try:
            float(parts[1])
            float(parts[2])
        except ValueError:
            raise PreconditionError(f"bad amplitude line {ln!r}") from None


def _line_blocks(text: str) -> Iterator[list[str]]:
    """``text.splitlines()`` in blocks of about ``READ_BLOCK_CHARS`` characters.

    Each block but the last ends just after a newline, so no line and no
    ``\\r\\n`` pair is cut in two.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + READ_BLOCK_CHARS)
        end = len(text) if cut < 0 else cut + 1
        yield text[start:end].splitlines()
        start = end


def state_from_text(text: str, layout: RegisterLayout, *, norm_tol: float = NORM_TOL) -> StateVector:
    if not isinstance(text, str):  # a name, not a repr: bytes read from a file may be megabytes
        raise PreconditionError(f"state text of type {type(text).__name__} is not a str")
    blocks = _line_blocks(text)
    for block in blocks:
        head = next((i for i, ln in enumerate(block) if ln.strip()), None)
        if head is not None:
            header, rest = block[head], block[head + 1:]
            break
    else:
        header = ""
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
    state = StateVector.from_label(m, 0)  # checks the wire ceiling before allocating
    amps = state.amplitudes
    amps[0] = 0.0
    # Every label read comes from a line of at least m + 4 characters and a
    # line break, which bounds their count. One array allocated up front
    # holds them all: per-block arrays kept to the end of the parse
    # fragmented the heap, and the cli-files benchmark's peak RSS rose by
    # 1-3 MB.
    seen = np.empty((len(text) + 1) // (m + 5) + 1, dtype=np.int64)
    count = 0
    for block in itertools.chain([rest], blocks):
        parsed = _parse_block(block, layout)
        if parsed is None:
            _raise_first_fault(text, layout)
        labels, re, im = parsed
        amps.real[labels] = re  # two real writes: re + 1j * im would turn inf into nan
        amps.imag[labels] = im
        seen[count:count + labels.size] = labels
        count += labels.size
    ordered = np.sort(seen[:count], kind="stable")  # merges a file's long ascending runs
    if (ordered[1:] == ordered[:-1]).any():
        _raise_first_fault(text, layout)
    check_unit_norm(amps[seen[:count]], norm_tol, "state file")  # every other amplitude is 0
    return state


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
