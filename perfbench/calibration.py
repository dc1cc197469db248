"""Calibration kernels: fixed reference work timed next to every operation.

The benchmark runs on shared hosts whose speed drifts by tens of percent
from minute to minute, so two runs of the same code can differ by more
than any bound worth setting. Every operation is therefore followed by one
call of a calibration kernel that does the same kind of work as the
workload (strided copies of a large complex array, or formatting, writing,
reading and parsing text lines) with the benchmark's own code, never
qshift's. The timed end-to-end metrics are the operations' times divided
by the kernel's time measured around them: a slower host slows both, and
a change to qshift cannot change the kernel.
"""

from __future__ import annotations

import os

import numpy as np


class StridedExchange:
    """Memory-bound: exchange the two quarters of a 2**wires complex array
    where a pair of wires reads 01 and 10, as a dense SWAP gate does, for
    three wire pairs spread over the array, ``repeats`` times. With ``fresh`` the array
    is allocated and filled on every call, as a workload that copies its
    state for each operation does, so it pays the same page faults;
    otherwise one array is kept, as a workload that updates its state in
    place does."""

    def __init__(self, wires: int, repeats: int, fresh: bool):
        self.wires = wires
        self.repeats = repeats
        self.tensor = None if fresh else self._new()
        self.pairs = []
        for w in (wires // 6, wires // 2, 5 * wires // 6):
            lo, hi = [slice(None)] * wires, [slice(None)] * wires
            lo[w], lo[w + 1], hi[w], hi[w + 1] = 0, 1, 1, 0
            self.pairs.append((tuple(lo), tuple(hi)))

    def _new(self) -> np.ndarray:
        return np.ones((2,) * self.wires, dtype=np.complex128)

    def __call__(self) -> None:
        t = self._new() if self.tensor is None else self.tensor
        for _ in range(self.repeats):
            for lo, hi in self.pairs:
                tmp = t[lo].copy()
                t[lo] = t[hi]
                t[hi] = tmp


class TextRoundTrip:
    """Interpreter- and file-bound: format ``lines`` lines of a bitstring and
    two 17-digit floats, write them to a file, read it back and parse it."""

    def __init__(self, workdir: str, lines: int, width: int = 18):
        rng = np.random.default_rng(0)
        self.rows = [(f"{i:0{width}b}", x, y) for i, (x, y) in enumerate(rng.normal(size=(lines, 2)).tolist())]
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, "calibration.txt")

    def __call__(self) -> None:
        text = "\n".join(f"{bits} {x:.17g} {y:.17g}" for bits, x, y in self.rows) + "\n"
        with open(self.path, "w") as fh:
            fh.write(text)
        with open(self.path) as fh:
            parsed = [(int(b, 2), float(x), float(y)) for b, x, y in (ln.split() for ln in fh.read().splitlines())]
        if len(parsed) != len(self.rows):
            raise RuntimeError("calibration file did not read back whole")
