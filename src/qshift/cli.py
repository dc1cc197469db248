"""Command-line front end: state-file I/O, subcommand dispatch, report formatting.

Exit statuses: 0 success, 1 domain error (violated precondition, named in
the message), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .arithmetic import (
    MulConstSpec,
    MulQuantumSpec,
    cost_report,
    mul_const_layout,
    mul_quantum_layout,
    multiply_by_constant,
    multiply_registers,
)
from .errors import PreconditionError, instance, tolerance
from .gates import Circuit, Gate
from .shift_register import ShiftSpec, gate_count, rotate, shift, shift_layout
from .state import NORM_TOL, RegisterLayout, StateVector, run_circuit
from .statefile import read_state, write_state


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return value


def _tolerance(text: str) -> float:
    try:
        return tolerance(float(text), "--tol")
    except PreconditionError:
        raise argparse.ArgumentTypeError(f"{text!r} must be a finite nonnegative number") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _binary_literal(text: str) -> int:
    if not text or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"{text!r} is not a binary literal")
    return int(text, 2)


# The width flags of each state-file layout, in the order its spec takes them.
_LAYOUT_WIDTHS = {"shift": "n k", "mul-const": "nA kA nB", "mul-quantum": "nA kA nC kC nB"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshift",
        description="Swap-network shift/rotation registers and shift-and-add multiplication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_widths(p, names, required=True, **helps):
        for name in names.split():
            p.add_argument(f"--{name}", type=_positive_int, required=required, help=helps.get(name))

    def add_files(p, tol_help=None):
        p.add_argument("--in", dest="infile", required=True, metavar="FILE")
        p.add_argument("--out", dest="outfile", required=True, metavar="FILE")
        p.add_argument("--tol", type=_tolerance, default=NORM_TOL, help=tol_help)

    for name, what in (("shift", "shift"), ("rotate", "rotation")):
        p = sub.add_parser(name, help=f"apply one {what} pass to a state file")
        add_widths(p, _LAYOUT_WIDTHS["shift"], n="data width", k="ancilla width")
        p.add_argument("--dir", choices=("left", "right"), default="left")
        add_files(p, "state-file norm tolerance")
        if name == "shift":
            p.add_argument("--rotate", action="store_true", help="rotate instead of shift")

    p = sub.add_parser("gatecount", help="gate tallies for one register pass")
    add_widths(p, _LAYOUT_WIDTHS["shift"])
    p.add_argument("--decompose", choices=("none", "cnot", "all"), default="none")

    p = sub.add_parser("mul-const", help="multiply register A by a classical constant")
    add_widths(p, _LAYOUT_WIDTHS["mul-const"])
    p.add_argument("--l", type=_binary_literal, required=True, metavar="BITS")
    add_files(p)

    p = sub.add_parser("mul-quantum", help="multiply registers A and C into B")
    add_widths(p, _LAYOUT_WIDTHS["mul-quantum"])
    add_files(p)

    p = sub.add_parser("cost", help="shift/add accounting, quantum vs classical")
    add_widths(p, "nA kA")
    p.add_argument("--l", type=_binary_literal, required=True, metavar="BITS")
    p.add_argument("--values", type=_positive_int, default=None,
                   help="superposed value count (default 2**nA)")

    p = sub.add_parser("prepare", help="write an initial state file")
    p.add_argument("--layout", choices=tuple(_LAYOUT_WIDTHS), required=True)
    # Every layout's flags, each once: mul-const's are among mul-quantum's.
    add_widths(p, f"{_LAYOUT_WIDTHS['shift']} {_LAYOUT_WIDTHS['mul-quantum']}", required=False)
    p.add_argument("--kind", required=True, metavar="KIND",
                   help='"zero", "basis <bits>" or "uniform <segment[:slots]>"')
    p.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused: parsing leaves it
    unchanged and no argument has a mutable default, so calls cannot see
    each other's values. Building it takes ~2.5 ms; holding it takes
    ~0.23 MB, which importers that never parse do not pay."""
    return build_parser()


def parse_args(argv) -> argparse.Namespace:
    return _parser().parse_args(argv)


def _layout_for(config: argparse.Namespace, kind: str) -> tuple[RegisterLayout, object]:
    """The layout ``kind`` on ``config``'s width flags and its spec (None for shift); names missing flags."""
    names = _LAYOUT_WIDTHS[kind].split()
    gone = [name for name in names if getattr(config, name, None) is None]
    if gone:
        raise PreconditionError(f"layout {kind!r} needs --" + " --".join(gone))
    widths = [getattr(config, name) for name in names]
    if kind == "shift":
        return shift_layout(*widths), None
    if kind == "mul-const":
        # prepare takes no multiplier; the layout does not depend on it.
        spec = MulConstSpec(*widths, getattr(config, "l", 0))
        return mul_const_layout(spec), spec
    spec = MulQuantumSpec(*widths)
    return mul_quantum_layout(spec), spec


def _segment_wires(layout: RegisterLayout, spec: str) -> tuple[int, ...]:
    name, _, slots = spec.partition(":")
    wires = layout.wires(name)
    if not slots:
        return wires
    lo, _, hi = slots.partition("-")
    try:
        first = int(lo)
        last = int(hi) if hi else first
    except ValueError:
        raise PreconditionError(f"bad slot range {slots!r}") from None
    if not 1 <= first <= last <= len(wires):
        raise PreconditionError(
            f"slots {slots!r} outside segment {name!r} of width {len(wires)}"
        )
    return wires[first - 1:last]


def prepare_state(kind: str, layout: RegisterLayout) -> StateVector:
    """Build the zero state, a basis state, or a uniform superposition.

    "uniform A" puts H on every wire of segment A; "uniform A:1" or
    "uniform A:1-2" restricts to a slot range.
    """
    words, m = instance(kind, str, "preparation kind").split(), instance(layout, RegisterLayout, "layout").num_wires
    if words == ["zero"]:
        return StateVector.from_label(m, 0)
    if len(words) == 2 and words[0] == "basis":
        return StateVector.from_label(m, layout.label_from_display(words[1]))
    if len(words) == 2 and words[0] == "uniform":
        gates = [Gate.h(wire) for wire in _segment_wires(layout, words[1])]
        return run_circuit(StateVector.from_label(m, 0), Circuit(m, gates))
    raise PreconditionError(f"malformed preparation kind {kind!r}")


def _branch_table(state: StateVector, layout: RegisterLayout) -> str:
    labels, amps = state.support()
    a = layout.values(labels, "A")
    b = layout.values(labels, "B")
    # np.hypot rounds as the scalar abs() does; np.abs on a complex array
    # may differ in the last bit.
    amp = np.hypot(amps.real, amps.imag)
    order = np.lexsort((amp, b, a))  # by A, then B, then amplitude
    lines = [f"{'A':>6} {'B':>6} {'amplitude':>20}"]
    for a_val, b_val, amp_val in zip(a[order].tolist(), b[order].tolist(), amp[order].tolist()):
        lines.append(f"{a_val:>6} {b_val:>6} {amp_val:>20.12g}")
    return "\n".join(lines)


def run(config: argparse.Namespace) -> int:
    """Execute one parsed subcommand; raises PreconditionError on domain errors."""
    cmd = config.command
    if cmd in ("gatecount", "cost"):
        if cmd == "gatecount":
            report = gate_count(ShiftSpec(config.n, config.k), config.decompose)
        else:
            report = cost_report(config.nA, config.kA, config.l, config.values)
        print(report.as_text())
        print(report.as_keyvalues())
        return 0
    if cmd == "prepare":
        layout, _ = _layout_for(config, config.layout)
        write_state(prepare_state(config.kind, layout), layout, config.outfile)
        return 0
    # The state-file commands: pick a layout and a pipeline, then read, run, write.
    layout, spec = _layout_for(config, "shift" if cmd == "rotate" else cmd)
    if cmd in ("shift", "rotate"):
        rotating = cmd == "rotate" or getattr(config, "rotate", False)
        pipeline = functools.partial(rotate if rotating else shift, layout=layout,
                                     direction=config.dir)
    else:
        multiply = multiply_by_constant if cmd == "mul-const" else multiply_registers
        pipeline = functools.partial(multiply, spec=spec, layout=layout)
    state = pipeline(read_state(config.infile, layout, norm_tol=config.tol))
    write_state(state, layout, config.outfile)
    if cmd.startswith("mul-"):
        print(_branch_table(state, layout))
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(config)
    except (PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
