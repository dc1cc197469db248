"""Command-line front end: state-file I/O, subcommand dispatch, report formatting.

Exit statuses: 0 success, 1 domain error (violated precondition, named in
the message), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
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
from .errors import PreconditionError
from .gates import Gate
from .shift_register import ShiftSpec, gate_count, rotate, shift, shift_layout
from .state import NORM_TOL, RegisterLayout, StateVector, apply_gate
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
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value < math.inf:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"{text!r} must be a finite nonnegative number")
    return value


def _binary_literal(text: str) -> int:
    if not text or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"{text!r} is not a binary literal")
    return int(text, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshift",
        description="Swap-network shift/rotation registers and shift-and-add multiplication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shift_args(p):
        p.add_argument("--n", type=_positive_int, required=True, help="data width")
        p.add_argument("--k", type=_positive_int, required=True, help="ancilla width")
        p.add_argument("--dir", choices=("left", "right"), default="left")
        p.add_argument("--in", dest="infile", required=True, metavar="FILE")
        p.add_argument("--out", dest="outfile", required=True, metavar="FILE")
        p.add_argument("--tol", type=_tolerance, default=NORM_TOL, help="state-file norm tolerance")

    p_shift = sub.add_parser("shift", help="apply one shift pass to a state file")
    add_shift_args(p_shift)
    p_shift.add_argument("--rotate", action="store_true", help="rotate instead of shift")

    p_rot = sub.add_parser("rotate", help="apply one rotation pass to a state file")
    add_shift_args(p_rot)

    p_gc = sub.add_parser("gatecount", help="gate tallies for one register pass")
    p_gc.add_argument("--n", type=_positive_int, required=True)
    p_gc.add_argument("--k", type=_positive_int, required=True)
    p_gc.add_argument("--decompose", choices=("none", "cnot", "all"), default="none")

    p_mc = sub.add_parser("mul-const", help="multiply register A by a classical constant")
    p_mc.add_argument("--nA", type=_positive_int, required=True)
    p_mc.add_argument("--kA", type=_positive_int, required=True)
    p_mc.add_argument("--nB", type=_positive_int, required=True)
    p_mc.add_argument("--l", type=_binary_literal, required=True, metavar="BITS")
    p_mc.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_mc.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    p_mc.add_argument("--tol", type=_tolerance, default=NORM_TOL)

    p_mq = sub.add_parser("mul-quantum", help="multiply registers A and C into B")
    p_mq.add_argument("--nA", type=_positive_int, required=True)
    p_mq.add_argument("--kA", type=_positive_int, required=True)
    p_mq.add_argument("--nC", type=_positive_int, required=True)
    p_mq.add_argument("--kC", type=_positive_int, required=True)
    p_mq.add_argument("--nB", type=_positive_int, required=True)
    p_mq.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_mq.add_argument("--out", dest="outfile", required=True, metavar="FILE")
    p_mq.add_argument("--tol", type=_tolerance, default=NORM_TOL)

    p_cost = sub.add_parser("cost", help="shift/add accounting, quantum vs classical")
    p_cost.add_argument("--nA", type=_positive_int, required=True)
    p_cost.add_argument("--kA", type=_positive_int, required=True)
    p_cost.add_argument("--l", type=_binary_literal, required=True, metavar="BITS")
    p_cost.add_argument("--values", type=_positive_int, default=None,
                        help="superposed value count (default 2**nA)")

    p_prep = sub.add_parser("prepare", help="write an initial state file")
    p_prep.add_argument("--layout", choices=("shift", "mul-const", "mul-quantum"),
                        required=True)
    p_prep.add_argument("--n", type=_positive_int)
    p_prep.add_argument("--k", type=_positive_int)
    p_prep.add_argument("--nA", type=_positive_int)
    p_prep.add_argument("--kA", type=_positive_int)
    p_prep.add_argument("--nC", type=_positive_int)
    p_prep.add_argument("--kC", type=_positive_int)
    p_prep.add_argument("--nB", type=_positive_int)
    p_prep.add_argument("--kind", required=True, metavar="KIND",
                        help='"zero", "basis <bits>" or "uniform <segment[:slots]>"')
    p_prep.add_argument("--out", dest="outfile", required=True, metavar="FILE")
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


def _layout_for(config: argparse.Namespace) -> RegisterLayout:
    kind = config.layout

    def require(names):
        gone = [n for n in names if getattr(config, n, None) is None]
        if gone:
            raise PreconditionError(
                f"layout {kind!r} needs --" + " --".join(gone)
            )

    if kind == "shift":
        require(["n", "k"])
        return shift_layout(config.n, config.k)
    if kind == "mul-const":
        require(["nA", "kA", "nB"])
        return mul_const_layout(MulConstSpec(config.nA, config.kA, config.nB, 0))
    require(["nA", "kA", "nC", "kC", "nB"])
    return mul_quantum_layout(
        MulQuantumSpec(config.nA, config.kA, config.nC, config.kC, config.nB)
    )


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
    words = kind.split()
    if words == ["zero"]:
        return StateVector.from_label(layout.num_wires, 0)
    if len(words) == 2 and words[0] == "basis":
        return StateVector.from_label(layout.num_wires, layout.label_from_display(words[1]))
    if len(words) == 2 and words[0] == "uniform":
        state = StateVector.from_label(layout.num_wires, 0)
        for wire in _segment_wires(layout, words[1]):
            apply_gate(state, Gate.h(wire))
        return state
    raise PreconditionError(f"malformed preparation kind {kind!r}")


def _branch_table(state: StateVector, layout: RegisterLayout) -> str:
    labels = state.nonzero_labels()
    a = layout.values(labels, "A")
    b = layout.values(labels, "B")
    amps = state.amplitudes[labels]
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
    if cmd in ("shift", "rotate"):
        layout = shift_layout(config.n, config.k)
        state = read_state(config.infile, layout, norm_tol=config.tol)
        rotating = cmd == "rotate" or getattr(config, "rotate", False)
        if rotating:
            rotate(state, layout, config.dir)
        else:
            shift(state, layout, config.dir)
        write_state(state, layout, config.outfile)
        return 0
    if cmd == "gatecount":
        report = gate_count(ShiftSpec(config.n, config.k), config.decompose)
        print(report.as_text())
        print(report.as_keyvalues())
        return 0
    if cmd == "mul-const":
        spec = MulConstSpec(config.nA, config.kA, config.nB, config.l)
        layout = mul_const_layout(spec)
        state = read_state(config.infile, layout, norm_tol=config.tol)
        multiply_by_constant(state, spec, layout)
        write_state(state, layout, config.outfile)
        print(_branch_table(state, layout))
        return 0
    if cmd == "mul-quantum":
        spec = MulQuantumSpec(config.nA, config.kA, config.nC, config.kC, config.nB)
        layout = mul_quantum_layout(spec)
        state = read_state(config.infile, layout, norm_tol=config.tol)
        multiply_registers(state, spec, layout)
        write_state(state, layout, config.outfile)
        print(_branch_table(state, layout))
        return 0
    if cmd == "cost":
        report = cost_report(config.nA, config.kA, config.l, config.values)
        print(report.as_text())
        print(report.as_keyvalues())
        return 0
    if cmd == "prepare":
        layout = _layout_for(config)
        state = prepare_state(config.kind, layout)
        write_state(state, layout, config.outfile)
        return 0
    raise PreconditionError(f"unknown command {cmd!r}")  # pragma: no cover


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
