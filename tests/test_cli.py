"""End-to-end CLI behavior: exit codes, state files, branch tables, determinism."""

import argparse
from pathlib import Path

import numpy as np
import pytest

from qshift import (
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    StateVector,
    apply_gate,
    mul_const_layout,
    mul_quantum_layout,
    read_state,
    shift_layout,
    write_state,
)
from qshift.cli import build_parser, main, parse_args, prepare_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_shift():
    config = parse_args(
        ["shift", "--n", "4", "--k", "2", "--dir", "left", "--in", "s.txt", "--out", "t.txt"]
    )
    assert config.command == "shift"
    assert (config.n, config.k, config.dir) == (4, 2, "left")
    assert config.infile == "s.txt" and config.outfile == "t.txt"


def test_parse_args_gatecount():
    config = parse_args(["gatecount", "--n", "4", "--k", "2", "--decompose", "cnot"])
    assert config.command == "gatecount" and config.decompose == "cnot"


def test_parse_args_calls_are_independent():
    rotating = parse_args(
        ["shift", "--n", "4", "--k", "2", "--in", "a", "--out", "b", "--rotate", "--tol", "0.5"]
    )
    plain = parse_args(["shift", "--n", "3", "--k", "1", "--in", "c", "--out", "d"])
    assert rotating is not plain
    assert (rotating.rotate, rotating.tol, rotating.n) == (True, 0.5, 4)
    assert (plain.rotate, plain.tol, plain.n) == (False, 1e-12, 3)
    assert not hasattr(parse_args(["rotate", "--n", "4", "--k", "2", "--in", "a", "--out", "b"]), "rotate")


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["shift", "--n", "0", "--k", "2", "--dir", "left", "--in", "a", "--out", "b"],
        ["shift", "--n", "4", "--k", "2", "--dir", "up", "--in", "a", "--out", "b"],
        ["gatecount", "--n", "4"],
        ["mul-const", "--nA", "4", "--kA", "2", "--nB", "4", "--l", "12", "--in", "a", "--out", "b"],
        ["shift", "--n", "4", "--k", "2", "--in", "a", "--out", "b", "--tol", "nan"],
        ["shift", "--n", "4", "--k", "2", "--in", "a", "--out", "b", "--tol", "inf"],
        ["shift", "--n", "4", "--k", "2", "--in", "a", "--out", "b", "--tol", "-1"],
        ["mul-quantum", "--nA", "1", "--kA", "1", "--nC", "1", "--kC", "1", "--nB", "2",
         "--in", "a", "--out", "b", "--tol", "nan"],
        ["frobnicate"],
        [],
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2, argv


def test_prepare_zero_and_basis(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, _, _ = run_cli(
        capsys, "prepare", "--layout", "shift", "--n", "2", "--k", "1",
        "--kind", "zero", "--out", str(out),
    )
    assert code == 0
    layout = shift_layout(2, 1)
    state = read_state(str(out), layout)
    assert state.amplitude(0) == 1

    code, _, _ = run_cli(
        capsys, "prepare", "--layout", "shift", "--n", "2", "--k", "1",
        "--kind", "basis 0110", "--out", str(out),
    )
    assert code == 0
    state = read_state(str(out), layout)
    label = int(state.nonzero_labels()[0])
    assert layout.value(label, "b") == 3
    assert layout.value(label, "a") == 0


def test_prepare_uniform_segment(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, _, _ = run_cli(
        capsys, "prepare", "--layout", "shift", "--n", "2", "--k", "1",
        "--kind", "uniform b", "--out", str(out),
    )
    assert code == 0
    state = read_state(str(out), shift_layout(2, 1))
    support = state.nonzero_labels()
    assert len(support) == 4
    assert np.allclose(np.abs(state.amplitudes[support]), 0.5)


def test_prepare_uniform_single_slot(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, _, _ = run_cli(
        capsys, "prepare", "--layout", "mul-const", "--nA", "4", "--kA", "3", "--nB", "4",
        "--kind", "uniform A:1", "--out", str(out),
    )
    assert code == 0
    layout = mul_const_layout(MulConstSpec(4, 3, 4, 0))
    state = read_state(str(out), layout)
    values = sorted(layout.value(int(l), "A") for l in state.nonzero_labels())
    assert values == [0, 1]


def test_prepare_malformed_kind(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "prepare", "--layout", "shift", "--n", "2", "--k", "1",
        "--kind", "warm", "--out", str(tmp_path / "s.txt"),
    )
    assert code == 1 and "kind" in err


@pytest.mark.parametrize(
    "layout, given, missing",
    [
        # Another layout's flags do not stand in for the missing ones.
        ("shift", ["--nA", "2"], "--n --k"),
        ("mul-const", ["--kA", "2", "--n", "3"], "--nA --nB"),
        ("mul-quantum", ["--nA", "2"], "--kA --nC --kC --nB"),
    ],
)
def test_prepare_names_missing_width_flags(tmp_path, capsys, layout, given, missing):
    out = tmp_path / "s.txt"
    code, stdout, err = run_cli(capsys, "prepare", "--layout", layout, *given, "--kind", "zero", "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: layout {layout!r} needs {missing}\n")
    assert not out.exists()


def test_shift_round_trip_files(tmp_path, capsys):
    a, b, c = (str(tmp_path / name) for name in ("a.txt", "b.txt", "c.txt"))
    run_cli(capsys, "prepare", "--layout", "shift", "--n", "3", "--k", "2",
            "--kind", "basis 001100", "--out", a)
    code, _, _ = run_cli(capsys, "shift", "--n", "3", "--k", "2", "--dir", "left",
                         "--in", a, "--out", b)
    assert code == 0
    code, _, _ = run_cli(capsys, "shift", "--n", "3", "--k", "2", "--dir", "right",
                         "--in", b, "--out", c)
    assert code == 0
    assert Path(a).read_text() == Path(c).read_text()


def test_rotate_subcommand_matches_shift_rotate_flag(tmp_path, capsys):
    src = str(tmp_path / "src.txt")
    via_rotate = str(tmp_path / "r.txt")
    via_flag = str(tmp_path / "f.txt")
    run_cli(capsys, "prepare", "--layout", "shift", "--n", "3", "--k", "1",
            "--kind", "basis 01010", "--out", src)
    run_cli(capsys, "rotate", "--n", "3", "--k", "1", "--dir", "left",
            "--in", src, "--out", via_rotate)
    run_cli(capsys, "shift", "--n", "3", "--k", "1", "--dir", "left", "--rotate",
            "--in", src, "--out", via_flag)
    assert Path(via_rotate).read_text() == Path(via_flag).read_text()


def test_gatecount_output(capsys):
    code, out, _ = run_cli(capsys, "gatecount", "--n", "4", "--k", "2", "--decompose", "cnot")
    assert code == 0
    assert "cnot=15" in out and "cswap=1" in out


# The reports' exact stdout: a table, then the same figures as key=value lines.
_GATECOUNT_OUT = {
    "none": """\
gate                count
cswap                   1
swap                    5
cnot equivalent        17
toffoli equivalent      1
cswap=1
swap=5
cnot_equivalent=17
toffoli_equivalent=1
""",
    "cnot": """\
gate                count
cnot                   15
cswap                   1
cnot equivalent        17
toffoli equivalent      1
cnot=15
cswap=1
cnot_equivalent=17
toffoli_equivalent=1
""",
    "all": """\
gate                count
cnot                   17
toffoli                 1
cnot equivalent        17
toffoli equivalent      1
cnot=17
toffoli=1
cnot_equivalent=17
toffoli_equivalent=1
""",
}


@pytest.mark.parametrize("decompose", sorted(_GATECOUNT_OUT))
def test_gatecount_prints_its_report_exactly(capsys, decompose):
    code, out, err = run_cli(capsys, "gatecount", "--n", "4", "--k", "2", "--decompose", decompose)
    assert (code, out, err) == (0, _GATECOUNT_OUT[decompose], "")


def test_mul_const_golden_end_to_end(tmp_path, capsys):
    src = str(tmp_path / "in.txt")
    dst = str(tmp_path / "out.txt")
    run_cli(capsys, "prepare", "--layout", "mul-const", "--nA", "4", "--kA", "3",
            "--nB", "4", "--kind", "uniform A:1", "--out", src)
    code, out, _ = run_cli(capsys, "mul-const", "--nA", "4", "--kA", "3", "--nB", "4",
                           "--l", "1100", "--in", src, "--out", dst)
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln.strip()]
    assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("8", "12")]
    for r in rows:
        assert abs(float(r[2]) - 1 / np.sqrt(2)) < 1e-10
    layout = mul_const_layout(MulConstSpec(4, 3, 4, 0b1100))
    state = read_state(dst, layout)
    assert len(state.nonzero_labels()) == 2


def test_mul_const_capacity_error_no_output(tmp_path, capsys):
    src = str(tmp_path / "in.txt")
    dst = str(tmp_path / "out.txt")
    run_cli(capsys, "prepare", "--layout", "mul-const", "--nA", "4", "--kA", "2",
            "--nB", "4", "--kind", "uniform A", "--out", src)
    code, _, err = run_cli(capsys, "mul-const", "--nA", "4", "--kA", "2", "--nB", "4",
                           "--l", "111", "--in", src, "--out", dst)
    assert code == 1
    assert "accumulator" in err
    assert not (tmp_path / "out.txt").exists()


def test_mul_quantum_end_to_end(tmp_path, capsys):
    src = str(tmp_path / "in.txt")
    dst = str(tmp_path / "out.txt")
    args = ["--nA", "2", "--kA", "1", "--nC", "2", "--kC", "1", "--nB", "4"]
    run_cli(capsys, "prepare", "--layout", "mul-quantum", *args,
            "--kind", "uniform C", "--out", src)
    # A stays zero, so every branch multiplies to zero
    code, out, _ = run_cli(capsys, "mul-quantum", *args, "--in", src, "--out", dst)
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln.strip()]
    assert all(r[1] == "0" for r in rows)

    # basis inputs give a real product: A=3 times C=2 fills B with 6
    # display order is A, C, B, ancA, ancC, carry, c (each MSB-first)
    run_cli(capsys, "prepare", "--layout", "mul-quantum", *args,
            "--kind", "basis 11100000000000", "--out", src)
    code, out, _ = run_cli(capsys, "mul-quantum", *args, "--in", src, "--out", dst)
    assert code == 0
    rows = [ln.split() for ln in out.splitlines()[1:] if ln.strip()]
    assert len(rows) == 1 and rows[0][1] == "6"


def test_branch_table_sorted_by_a_then_b(tmp_path, capsys):
    src = str(tmp_path / "in.txt")
    args = ["--nA", "2", "--kA", "1", "--nC", "2", "--kC", "1", "--nB", "4"]
    layout = mul_quantum_layout(MulQuantumSpec(2, 1, 2, 1, 4))
    state = StateVector.from_label(layout.num_wires, 0)
    for wire in layout.wires("A") + layout.wires("C"):
        apply_gate(state, Gate.h(wire))
    write_state(state, layout, src)
    code, out, _ = run_cli(capsys, "mul-quantum", *args, "--in", src,
                           "--out", str(tmp_path / "out.txt"))
    assert code == 0
    rows = [tuple(int(x) for x in ln.split()[:2]) for ln in out.splitlines()[1:]]
    assert rows == sorted(rows)
    assert rows != sorted(rows, key=lambda r: (r[1], r[0]))  # the two orders differ here


def test_cost_output(capsys):
    code, out, _ = run_cli(capsys, "cost", "--nA", "4", "--kA", "3", "--l", "1100")
    assert code == 0
    assert "swap_gates=18" in out
    assert "additions=2" in out
    assert "classical_operations=48" in out


_COST_OUT = {
    ("--l", "1100"): """\
multiplier 1100 on a 4-wire register (3 shift ancilla), 16 superposed values
shifts                     3
swaps per shift            6
swap gates                18
additions                  2
classical operations      48
multiplier=1100
a_width=4
a_ancilla=3
shifts=3
swaps_per_shift=6
swap_gates=18
additions=2
num_values=16
classical_operations=48
""",
    ("--l", "0"): """\
multiplier 0 on a 4-wire register (3 shift ancilla), 16 superposed values
shifts                     0
swaps per shift            6
swap gates                 0
additions                  0
classical operations       0
multiplier=0
a_width=4
a_ancilla=3
shifts=0
swaps_per_shift=6
swap_gates=0
additions=0
num_values=16
classical_operations=0
""",
    ("--l", "1100", "--values", "5"): """\
multiplier 1100 on a 4-wire register (3 shift ancilla), 5 superposed values
shifts                     3
swaps per shift            6
swap gates                18
additions                  2
classical operations      15
multiplier=1100
a_width=4
a_ancilla=3
shifts=3
swaps_per_shift=6
swap_gates=18
additions=2
num_values=5
classical_operations=15
""",
}


@pytest.mark.parametrize("flags", list(_COST_OUT), ids=" ".join)
def test_cost_prints_its_report_exactly(capsys, flags):
    code, out, err = run_cli(capsys, "cost", "--nA", "4", "--kA", "3", *flags)
    assert (code, out, err) == (0, _COST_OUT[flags], "")


def test_cost_refuses_the_schedule_mul_const_refuses(tmp_path, capsys):
    # Both commands refuse 3 shifts on a 1-wire ancilla, with one message.
    message = "error: multiplier 0b1000 needs 3 shifts but the ancilla holds only 1\n"
    code, out, err = run_cli(capsys, "cost", "--nA", "2", "--kA", "1", "--l", "1000")
    assert (code, out, err) == (1, "", message)
    code, out, err = run_cli(capsys, "mul-const", "--nA", "2", "--kA", "1", "--nB", "6", "--l", "1000",
                             "--in", str(tmp_path / "in.txt"), "--out", str(tmp_path / "out.txt"))
    assert (code, out, err) == (1, "", message)


def test_identical_invocations_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("one", "two"):
        src = str(tmp_path / f"{name}-in.txt")
        dst = str(tmp_path / f"{name}-out.txt")
        run_cli(capsys, "prepare", "--layout", "mul-const", "--nA", "3", "--kA", "2",
                "--nB", "5", "--kind", "uniform A:1-2", "--out", src)
        run_cli(capsys, "mul-const", "--nA", "3", "--kA", "2", "--nB", "5",
                "--l", "101", "--in", src, "--out", dst)
        outs.append(Path(dst).read_text())
    assert outs[0] == outs[1]


def test_prepare_state_rejects_unknown_segment():
    layout = shift_layout(2, 1)
    with pytest.raises(Exception):
        prepare_state("uniform nope", layout)


def test_non_ascii_input_file_is_domain_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"wires=4\n\xff\xfe 1 0\n")
    out = tmp_path / "o.txt"
    code, _, err = run_cli(capsys, "shift", "--n", "2", "--k", "1", "--in", str(src),
                           "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and str(src) in err and "offset 8" in err
    assert not out.exists()


def test_missing_input_file_is_domain_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "shift", "--n", "2", "--k", "1", "--dir", "left",
                           "--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "o.txt"))
    assert code != 0


# Every subcommand's help line and every flag's declaration, in declaration
# order: (option, dest, type, default, choices, required, metavar, help, action).
_IO = [
    ("--in", "infile", None, None, None, True, "FILE", None, "_StoreAction"),
    ("--out", "outfile", None, None, None, True, "FILE", None, "_StoreAction"),
]
_PASS_FLAGS = [
    ("--n", "n", "_positive_int", None, None, True, None, "data width", "_StoreAction"),
    ("--k", "k", "_positive_int", None, None, True, None, "ancilla width", "_StoreAction"),
    ("--dir", "dir", None, "left", ("left", "right"), False, None, None, "_StoreAction"),
    *_IO,
    ("--tol", "tol", "_tolerance", 1e-12, None, False, None, "state-file norm tolerance",
     "_StoreAction"),
]
_FLAGS = {
    "shift": ("apply one shift pass to a state file", [
        *_PASS_FLAGS,
        ("--rotate", "rotate", None, False, None, False, None, "rotate instead of shift",
         "_StoreTrueAction"),
    ]),
    "rotate": ("apply one rotation pass to a state file", _PASS_FLAGS),
    "gatecount": ("gate tallies for one register pass", [
        ("--n", "n", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--k", "k", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--decompose", "decompose", None, "none", ("none", "cnot", "all"), False, None, None,
         "_StoreAction"),
    ]),
    "mul-const": ("multiply register A by a classical constant", [
        ("--nA", "nA", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--kA", "kA", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--nB", "nB", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--l", "l", "_binary_literal", None, None, True, "BITS", None, "_StoreAction"),
        *_IO,
        ("--tol", "tol", "_tolerance", 1e-12, None, False, None, None, "_StoreAction"),
    ]),
    "mul-quantum": ("multiply registers A and C into B", [
        ("--nA", "nA", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--kA", "kA", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--nC", "nC", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--kC", "kC", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--nB", "nB", "_positive_int", None, None, True, None, None, "_StoreAction"),
        *_IO,
        ("--tol", "tol", "_tolerance", 1e-12, None, False, None, None, "_StoreAction"),
    ]),
    "cost": ("shift/add accounting, quantum vs classical", [
        ("--nA", "nA", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--kA", "kA", "_positive_int", None, None, True, None, None, "_StoreAction"),
        ("--l", "l", "_binary_literal", None, None, True, "BITS", None, "_StoreAction"),
        ("--values", "values", "_positive_int", None, None, False, None,
         "superposed value count (default 2**nA)", "_StoreAction"),
    ]),
    "prepare": ("write an initial state file", [
        ("--layout", "layout", None, None, ("shift", "mul-const", "mul-quantum"), True, None,
         None, "_StoreAction"),
        ("--n", "n", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--k", "k", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--nA", "nA", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--kA", "kA", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--nC", "nC", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--kC", "kC", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--nB", "nB", "_positive_int", None, None, False, None, None, "_StoreAction"),
        ("--kind", "kind", None, None, None, True, "KIND",
         '"zero", "basis <bits>" or "uniform <segment[:slots]>"', "_StoreAction"),
        _IO[1],
    ]),
}


def test_parser_declares_exactly_the_pinned_flags():
    parser = build_parser()
    top = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    assert [(a.dest, a.required) for a in top] == [("command", True)]
    sub = top[0]
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, help_line) for name, (help_line, _) in _FLAGS.items()
    ]
    for name, (_, flags) in _FLAGS.items():
        got = [
            (a.option_strings[0], a.dest, getattr(a.type, "__name__", None), a.default,
             None if a.choices is None else tuple(a.choices), a.required, a.metavar, a.help,
             type(a).__name__)
            for a in sub.choices[name]._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert [a.option_strings for a in sub.choices[name]._actions][1:] == [
            [flag[0]] for flag in flags
        ], name
        assert got == flags, name
