"""End-to-end CLI behavior: exit codes, state files, branch tables, determinism."""

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
from qshift.cli import main, parse_args, prepare_state


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
