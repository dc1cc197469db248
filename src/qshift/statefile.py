"""Text serialization of state vectors.

Format: a header line ``wires=<m>`` followed by one line per nonzero
amplitude, ``<bitstring> <real> <imag>``. Bitstrings follow the layout's
display order (segments in declaration order, each MSB-first) and lines are
sorted by bitstring, so identical states serialize byte-identically.
Amplitude components use 17 significant digits, which round-trips doubles
exactly.
"""

from __future__ import annotations

import os
import tempfile

from .errors import PreconditionError
from .state import NORM_TOL, RegisterLayout, StateVector, check_unit_norm


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"  # + 0.0 folds -0.0 into 0.0


def state_to_text(state: StateVector, layout: RegisterLayout) -> str:
    if layout.num_wires != state.num_wires:
        raise PreconditionError("layout and state wire counts differ")
    lines = [f"wires={state.num_wires}"]
    rows = []
    for label in state.nonzero_labels():
        amp = state.amplitudes[label]
        rows.append((layout.display_label(int(label)), amp.real, amp.imag))
    rows.sort(key=lambda r: r[0])
    for bits, re, im in rows:
        lines.append(f"{bits} {_fmt(re)} {_fmt(im)}")
    return "\n".join(lines) + "\n"


def state_from_text(text: str, layout: RegisterLayout, *, norm_tol: float = NORM_TOL) -> StateVector:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("wires="):
        raise PreconditionError("state file must start with a wires=<m> header")
    try:
        m = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise PreconditionError(f"bad header {lines[0]!r}") from None
    if m != layout.num_wires:
        raise PreconditionError(
            f"file has {m} wires, layout expects {layout.num_wires}"
        )
    state = StateVector.from_label(m, 0)  # checks the wire ceiling before allocating
    amps = state.amplitudes
    amps[0] = 0.0
    seen: set[int] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise PreconditionError(f"bad amplitude line {ln!r}")
        label = layout.label_from_display(parts[0])
        if label in seen:
            raise PreconditionError(f"duplicate basis label {parts[0]!r}")
        seen.add(label)
        try:
            amps[label] = complex(float(parts[1]), float(parts[2]))
        except ValueError:
            raise PreconditionError(f"bad amplitude line {ln!r}") from None
    check_unit_norm(amps, norm_tol, "state file")
    return state


def write_state(state: StateVector, layout: RegisterLayout, path: str) -> None:
    """Write atomically: the target appears only after a complete serialize."""
    text = state_to_text(state, layout)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qshift-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_state(path: str, layout: RegisterLayout, *, norm_tol: float = NORM_TOL) -> StateVector:
    with open(path) as fh:
        return state_from_text(fh.read(), layout, norm_tol=norm_tol)
