"""The benchmark's three workloads and the gate-free oracles that check them.

Each workload builds its inputs from a seed when it is constructed. ``op``
runs one operation; ``problem`` checks its result against a classical
oracle that applies no gates and returns a description of the first
mismatch, or None. ``calibration`` builds the reference kernel timed after
every operation (see calibration.py), sized to about a tenth of an
operation. ``reset`` restarts the workload's cycle after a failed
operation, and ``self_test`` feeds the oracle deliberately corrupted
results to show that it can fail.

Operations call qshift through the package namespace (``qshift.shift``,
not a name bound at import time) so that the traced run sees them.

All three workloads use the canonical layouts the ``qshift`` CLI builds.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import qshift
import qshift.cli
from calibration import StridedExchange, TextRoundTrip


def _random_amplitudes(rng: np.random.Generator, count: int) -> np.ndarray:
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    return amps / np.linalg.norm(amps)


def _bits(value: int, width: int) -> tuple[int, ...]:
    """Bits of an integer in slot order (slot 1, the LSB, first)."""
    return tuple((value >> slot) & 1 for slot in range(width))


def _wire_bits(label: int, wires) -> tuple[int, ...]:
    return tuple((label >> w) & 1 for w in wires)


def _label(bits, wires) -> int:
    return sum(bit << w for bit, w in zip(bits, wires))


def _pass_image(layout, label: int, kind: str, direction: str) -> int:
    """Label after one shift or rotate pass on a layout with segments a, b and
    c, from ``classical_shift_oracle``; the control stays 0."""
    a_wires, b_wires = layout.wires("a"), layout.wires("b")
    a, b = qshift.classical_shift_oracle(
        _wire_bits(label, a_wires), _wire_bits(label, b_wires), int(kind == "rotate"), direction
    )
    return _label(a, a_wires) | _label(b, b_wires)


def _track(layout, labels, passes) -> list[np.ndarray]:
    """tracks[k] holds where the branches at ``labels`` sit after k passes."""
    tracks = [np.asarray(labels)]
    for kind, direction in passes:
        tracks.append(np.array([_pass_image(layout, int(x), kind, direction) for x in tracks[-1]]))
    return tracks


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Bit-for-bit equality of two complex arrays (so 0.0 and -0.0 differ)."""
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


class MulqSuperposed:
    """``multiply_registers`` on a fresh copy of a 22-wire superposed state.

    All 64 (A, C) pairs carry seed-drawn complex amplitudes; every other
    segment is zero. The array is 64 MiB while the support is 64 labels.
    """

    name = "mulq-superposed"
    cycle = 1
    SPEC = (3, 2, 3, 2, 6)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.spec = qshift.MulQuantumSpec(*self.SPEC)
        self.layout = qshift.mul_quantum_layout(self.spec)
        spec, lay = self.spec, self.layout
        pairs = [(a, c) for a in range(1 << spec.a_width) for c in range(1 << spec.c_width)]
        in_labels = np.array(
            [_label(_bits(a, spec.a_width), lay.wires("A")) | _label(_bits(c, spec.c_width), lay.wires("C"))
             for a, c in pairs]
        )
        out_labels = np.array([self._oracle_label(a, c) for a, c in pairs])
        amps = _random_amplitudes(rng, len(pairs))
        self.input = qshift.StateVector.from_label(lay.num_wires, 0)
        self.input.amplitudes[0] = 0.0
        self.input.amplitudes[in_labels] = amps
        order = np.argsort(out_labels)
        self.expected_labels = out_labels[order]
        self.expected_amps = amps[order]

    def _oracle_label(self, a: int, c: int) -> int:
        """Output label of branch (a, c): B = a*c, A shifted left and C shifted
        right once per multiplier bit after the first, carries and control 0."""
        spec, lay = self.spec, self.layout
        a_bits, anc_a = _bits(a, spec.a_width), _bits(0, spec.a_ancilla)
        c_bits, anc_c = _bits(c, spec.c_width), _bits(0, spec.c_ancilla)
        for _ in range(spec.c_width - 1):
            anc_a, a_bits = qshift.classical_shift_oracle(anc_a, a_bits, 0, "left")
            anc_c, c_bits = qshift.classical_shift_oracle(anc_c, c_bits, 0, "right")
        return (
            _label(a_bits, lay.wires("A"))
            | _label(anc_a, lay.wires("ancA"))
            | _label(c_bits, lay.wires("C"))
            | _label(anc_c, lay.wires("ancC"))
            | _label(_bits(a * c, spec.b_width), lay.wires("B"))
        )

    def op(self):
        state = self.input.copy()
        qshift.multiply_registers(state, self.spec, self.layout)
        return state

    def problem(self, state) -> str | None:
        support = np.flatnonzero(state.amplitudes)
        if not np.array_equal(support, self.expected_labels):
            return "support differs from the oracle's: B != a*c, or a carry, control or shifted wire is off"
        if not _same_bits(state.amplitudes[support], self.expected_amps):
            return "an output amplitude differs from its input branch's"
        return None

    def reset(self) -> None:
        pass

    def calibration(self, workdir: str):
        return StridedExchange(22, repeats=3, fresh=True)

    def self_test(self, state) -> bool:
        """Corrupt a correct result in place, expect rejection, then restore it."""
        amps = state.amplitudes
        first, second = (int(x) for x in self.expected_labels[:2])
        flipped = first ^ (1 << self.layout.wires("B")[0])
        rejected = []
        amps[flipped], amps[first] = amps[first], 0.0  # one flipped B bit
        rejected.append(self.problem(state) is not None)
        amps[first], amps[flipped] = amps[flipped], 0.0
        amps[[first, second]] = amps[[second, first]]  # two swapped amplitudes
        rejected.append(self.problem(state) is not None)
        amps[[first, second]] = amps[[second, first]]
        return all(rejected) and self.problem(state) is None


class ShiftDense:
    """Shift and rotate passes on a 20-wire state whose support is half the array.

    Every label with control 0 (2**19 of them) carries a seed-drawn
    amplitude. One operation is one pass; the passes cycle left, right,
    rotate-left, rotate-right, which brings the state back to the input.
    """

    name = "shift-dense"
    PASSES = (("shift", "left"), ("shift", "right"), ("rotate", "left"), ("rotate", "right"))
    cycle = len(PASSES)
    DATA, ANCILLA = 12, 7
    SAMPLES = 64

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.layout = qshift.shift_layout(self.DATA, self.ANCILLA)
        # The canonical layout puts the control on the top wire, so the
        # labels below 2**c_wire are exactly those with control 0.
        c_wire = self.layout.wires("c")[0]
        self.input = qshift.StateVector.from_label(self.layout.num_wires, 0)
        self.input.amplitudes[: 1 << c_wire] = _random_amplitudes(rng, 1 << c_wire)
        start = rng.choice(1 << c_wire, size=self.SAMPLES, replace=False)
        self.tracks = _track(self.layout, start, self.PASSES)
        self.sample_amps = self.input.amplitudes[start]
        self.state = self.input.copy()
        self.step = 0

    def op(self):
        kind, direction = self.PASSES[self.step]
        getattr(qshift, kind)(self.state, self.layout, direction)
        return self.state

    def problem(self, state) -> str | None:
        step, self.step = self.step, (self.step + 1) % self.cycle
        if not _same_bits(state.amplitudes[self.tracks[step + 1]], self.sample_amps):
            return f"a sampled branch disagrees with classical_shift_oracle after {self.PASSES[step]}"
        if step == self.cycle - 1 and not _same_bits(state.amplitudes, self.input.amplitudes):
            return "amplitudes after a full shift/rotate cycle differ from the input"
        return None

    def reset(self) -> None:
        self.state = self.input.copy()
        self.step = 0

    def calibration(self, workdir: str):
        return StridedExchange(20, repeats=1, fresh=False)

    def self_test(self, state) -> bool:
        """Swap two amplitudes of the cycle's end state, one pair sampled and
        one not, and expect the end-of-cycle check to reject each."""
        sampled = set(int(x) for x in self.tracks[0])
        unsampled = [x for x in range(len(sampled) + 2) if x not in sampled][:2]
        amps = state.amplitudes
        rejected = []
        for pair in ([int(x) for x in self.tracks[0][:2]], unsampled):
            amps[pair] = amps[pair[::-1]]
            self.step = self.cycle - 1
            rejected.append(self.problem(state) is not None)
            amps[pair] = amps[pair[::-1]]
        self.step = self.cycle - 1
        return all(rejected) and self.problem(state) is None


class CliFiles:
    """In-process ``qshift`` CLI calls that read and write state files.

    The cycle is one write-only ``prepare --kind "uniform b"`` and then
    shift left, rotate left, rotate right and shift right, each reading the
    previous file and writing the next. The chain starts from a file with
    2**15 seed-drawn branches on an 18-wire register and must end
    byte-identical to it.
    """

    name = "cli-files"
    PASSES = (("shift", "left"), ("rotate", "left"), ("rotate", "right"), ("shift", "right"))
    cycle = 1 + len(PASSES)
    DATA, ANCILLA = 15, 2
    SAMPLES = 64

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.layout = qshift.shift_layout(self.DATA, self.ANCILLA)
        c_wire = self.layout.wires("c")[0]
        support = np.sort(rng.choice(1 << c_wire, size=1 << self.DATA, replace=False))
        amps = _random_amplitudes(rng, support.size)
        self.input = qshift.StateVector.from_label(self.layout.num_wires, 0)
        self.input.amplitudes[0] = 0.0
        self.input.amplitudes[support] = amps
        # The chain's input is written here, not by qshift, following the
        # state-file format: lines sorted by bitstring, 17 significant digits.
        amplitudes = {
            self._display(int(x)): f"{a.real + 0.0:.17g} {a.imag + 0.0:.17g}" for x, a in zip(support, amps)
        }
        lines = [f"wires={self.layout.num_wires}"]
        lines += sorted(f"{bits} {text}" for bits, text in amplitudes.items())
        self.chain_input = ("\n".join(lines) + "\n").encode()
        os.makedirs(workdir, exist_ok=True)
        self.files = [os.path.join(workdir, f"chain{i}.txt") for i in range(self.cycle)]
        self.prepared = os.path.join(workdir, "prepared.txt")
        with open(self.files[0], "wb") as fh:
            fh.write(self.chain_input)
        widths = ["--n", str(self.DATA), "--k", str(self.ANCILLA)]
        self.calls = [["prepare", "--layout", "shift", *widths, "--kind", "uniform b", "--out", self.prepared]]
        for k, (kind, direction) in enumerate(self.PASSES):
            self.calls.append([kind, *widths, "--dir", direction, "--in", self.files[k], "--out", self.files[k + 1]])
        # Seed-sampled lines of the input, followed through the chain: the file
        # after pass k must hold each with its label moved by the oracle.
        start = rng.choice(support, size=self.SAMPLES, replace=False)
        text = [amplitudes[self._display(int(x))] for x in start]
        self.sampled_lines = [
            [f"\n{self._display(int(x))} {t}\n" for x, t in zip(track, text)]
            for track in _track(self.layout, start, self.PASSES)
        ]
        # Display order is segment a, b, c, each MSB-first; uniform b leaves a and c at 0.
        self.uniform_labels = [
            f"{'0' * self.ANCILLA}{v:0{self.DATA}b}0" for v in range(1 << self.DATA)
        ]
        self.step = 0

    def _display(self, label: int) -> str:
        """Bitstring of a label: segments in declaration order, each MSB-first."""
        lay = self.layout
        return "".join(str((label >> w) & 1) for name in lay.segment_names for w in reversed(lay.wires(name)))

    def op(self):
        return qshift.cli.main(self.calls[self.step])

    def problem(self, status) -> str | None:
        step, self.step = self.step, (self.step + 1) % self.cycle
        if status != 0:
            return f"qshift {self.calls[step][0]} exited with status {status}"
        if step == 0:
            with open(self.prepared) as fh:
                return self._prepared_problem(fh.read())
        with open(self.files[step], "rb") as fh:
            return self._file_problem(step, fh.read())

    def _prepared_problem(self, text: str) -> str | None:
        lines = text.split("\n")
        if lines[0] != f"wires={self.layout.num_wires}" or lines[-1] != "":
            return "prepared file has a wrong header or no final newline"
        rows = [ln.split(" ") for ln in lines[1:-1]]
        if [r[0] for r in rows] != self.uniform_labels:
            return "prepared file's labels are not the uniform superposition over b"
        re = np.array([float(r[1]) for r in rows])
        im = np.array([float(r[2]) for r in rows])
        if np.max(np.abs(re - 2.0 ** (-self.DATA / 2))) > 1e-12 or np.any(im != 0.0):
            return "prepared file's amplitudes are not 2**(-n/2)"
        return None

    def _file_problem(self, step: int, data: bytes) -> str | None:
        text = data.decode()
        if not all(line in text for line in self.sampled_lines[step]):
            return f"a sampled line disagrees with classical_shift_oracle after {self.PASSES[step - 1]}"
        if step == self.cycle - 1 and data != self.chain_input:
            return "file after shift/rotate/rotate/shift differs from the chain's input"
        return None

    def reset(self) -> None:
        self.step = 0

    def calibration(self, workdir: str):
        return TextRoundTrip(workdir, lines=8192)

    def self_test(self, status) -> bool:
        """Expect rejection of a one-digit change in the chain's final file and
        in a sampled line, a swapped pair of lines in the prepared file and a
        non-zero exit."""
        with open(self.files[-1], "rb") as fh:
            final = bytearray(fh.read())
        final[-2] = ord("1") if final[-2] != ord("1") else ord("2")  # last digit of the last amplitude
        with open(self.prepared) as fh:
            prepared = fh.read().split("\n")
        prepared[1], prepared[2] = prepared[2], prepared[1]
        missing = self.calls[1][:-4] + ["--in", self.prepared + ".missing", "--out", self.prepared + ".unused"]
        with contextlib.redirect_stderr(io.StringIO()):
            bad_status = qshift.cli.main(missing)
        with open(self.files[1]) as fh:
            sampled = self.sampled_lines[1][0]
            first = fh.read().replace(sampled, sampled[:-2] + "x\n")
        self.step = 1
        rejected = [
            self._file_problem(self.cycle - 1, bytes(final)) is not None,
            self._file_problem(1, first.encode()) is not None,
            self._prepared_problem("\n".join(prepared)) is not None,
            self.problem(bad_status) is not None,
        ]
        self.step = 0
        return all(rejected)


WORKLOADS = {cls.name: cls for cls in (MulqSuperposed, ShiftDense, CliFiles)}
