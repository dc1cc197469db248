"""Gate and circuit records, standard decompositions, and basis-label evaluation.

Gates are plain records over wire indices; all primitives except H act as
permutations of the computational basis. Each permutation kind is described
once, by its control and flipped wires in ``_ROLES``. The dense kernel in
``state.apply_gate`` and the label kernels here are all derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import PreconditionError, integer

# Positions in Gate.wires of each permutation kind's control wires and of
# the wires it flips.
_ROLES = {
    "X": ((), (0,)),
    "CNOT": ((0,), (1,)),
    "TOFFOLI": ((0, 1), (2,)),
    "SWAP": ((), (0, 1)),
    "CSWAP": ((0,), (1, 2)),
}

# Every supported gate kind except H permutes basis labels with phase +1.
PERMUTATION_KINDS = frozenset(_ROLES)

GATE_ARITY = {"H": 1, **{kind: len(c) + len(f) for kind, (c, f) in _ROLES.items()}}


class GateMasks(NamedTuple):
    """A permutation gate as bit masks over basis labels.

    The gate exchanges label ``L`` with ``L ^ flip`` when every ``control``
    bit is set in ``L`` and the ``flip`` bits of ``L`` read ``pattern`` or
    ``pattern ^ flip``. X, CNOT and TOFFOLI flip one target bit and have
    ``pattern`` 0, so every controlled label flips. SWAP and CSWAP flip two
    bits and have ``pattern`` set to the second swapped bit, so they flip
    only where those two bits differ.
    """

    control: int
    flip: int
    pattern: int


@dataclass(frozen=True)
class Gate:
    """One primitive gate: a kind plus the wires it acts on.

    For CNOT the wires are (control, target); for TOFFOLI
    (control, control, target); for CSWAP (control, swapped, swapped).
    """

    kind: str
    wires: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise PreconditionError(f"unknown gate kind {self.kind!r}")
        wires = tuple(integer(w, "wire") for w in self.wires)
        object.__setattr__(self, "wires", wires)
        if len(wires) != GATE_ARITY[self.kind]:
            raise PreconditionError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} wires, got {len(wires)}"
            )
        if len(set(wires)) != len(wires):
            raise PreconditionError(f"{self.kind} wires must be distinct: {wires}")
        if any(w < 0 for w in wires):
            raise PreconditionError(f"wire indices must be nonnegative: {wires}")

    @property
    def masks(self) -> GateMasks:
        """Bit masks of a permutation gate; H has none."""
        try:
            controls, flips = _ROLES[self.kind]
        except KeyError:
            raise PreconditionError(f"{self.kind} is not a basis permutation") from None
        bits = [1 << w for w in self.wires]
        return GateMasks(
            sum(bits[p] for p in controls),
            sum(bits[p] for p in flips),
            bits[flips[1]] if len(flips) == 2 else 0,
        )

    @classmethod
    def x(cls, target: int) -> "Gate":
        return cls("X", (target,))

    @classmethod
    def h(cls, target: int) -> "Gate":
        return cls("H", (target,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def swap(cls, a: int, b: int) -> "Gate":
        return cls("SWAP", (a, b))

    @classmethod
    def cswap(cls, control: int, a: int, b: int) -> "Gate":
        return cls("CSWAP", (control, a, b))

    @classmethod
    def toffoli(cls, control_a: int, control_b: int, target: int) -> "Gate":
        return cls("TOFFOLI", (control_a, control_b, target))


@dataclass
class Circuit:
    """Ordered gate list over a fixed number of wires."""

    num_wires: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.num_wires < 1:
            raise PreconditionError("circuit needs at least one wire")
        self.gates = list(self.gates)
        for gate in self.gates:
            self._check(gate)

    def _check(self, gate: Gate) -> None:
        if max(gate.wires) >= self.num_wires:
            raise PreconditionError(
                f"gate {gate.kind}{gate.wires} exceeds {self.num_wires} wires"
            )

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates: Iterable[Gate]) -> None:
        for gate in gates:
            self.append(gate)

    def reversed(self) -> "Circuit":
        """Gate-reversed circuit; the inverse, since every primitive is an involution."""
        return Circuit(self.num_wires, list(reversed(self.gates)))

    def counts(self) -> dict[str, int]:
        """Tally of gates by kind (only kinds that occur)."""
        out: dict[str, int] = {}
        for gate in self.gates:
            out[gate.kind] = out.get(gate.kind, 0) + 1
        return out

    def is_permutation(self) -> bool:
        """True when the circuit contains no H gate."""
        return all(g.kind in PERMUTATION_KINDS for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)


def decompose_swap(a: int, b: int) -> Circuit:
    """SWAP(a, b) as its three-CNOT equivalent."""
    if a == b:
        raise PreconditionError("swap wires must differ")
    wires = max(a, b) + 1
    return Circuit(wires, [Gate.cnot(a, b), Gate.cnot(b, a), Gate.cnot(a, b)])


def decompose_cswap(control: int, a: int, b: int) -> Circuit:
    """CSWAP(control, a, b) as CNOT, TOFFOLI, CNOT."""
    if len({control, a, b}) != 3:
        raise PreconditionError("cswap wires must be distinct")
    wires = max(control, a, b) + 1
    return Circuit(
        wires,
        [Gate.cnot(b, a), Gate.toffoli(control, a, b), Gate.cnot(b, a)],
    )


def expand_swaps(circuit: Circuit) -> Circuit:
    """Replace every SWAP by its three-CNOT decomposition."""
    out = Circuit(circuit.num_wires)
    for gate in circuit:
        if gate.kind == "SWAP":
            out.extend(decompose_swap(*gate.wires).gates)
        else:
            out.append(gate)
    return out


def expand_cswaps(circuit: Circuit) -> Circuit:
    """Replace every CSWAP by its CNOT/TOFFOLI/CNOT decomposition."""
    out = Circuit(circuit.num_wires)
    for gate in circuit:
        if gate.kind == "CSWAP":
            out.extend(decompose_cswap(*gate.wires).gates)
        else:
            out.append(gate)
    return out


def apply_gate_to_label(gate: Gate, label: int) -> int:
    """Image of one basis label under a permutation gate.

    H is rejected: it does not map basis states to basis states.
    """
    control, flip, pattern = gate.masks
    if label & control == control and (label ^ pattern) & flip in (0, flip):
        return label ^ flip
    return label


def apply_circuit_to_label(circuit: Circuit, label: int) -> int:
    """Run an H-free circuit on a single basis label, gate by gate."""
    if not 0 <= label < (1 << circuit.num_wires):
        raise PreconditionError(f"label {label} out of range for {circuit.num_wires} wires")
    for gate in circuit:
        label = apply_gate_to_label(gate, label)
    return label


def apply_circuit_to_labels(circuit: Circuit, labels: np.ndarray) -> np.ndarray:
    """Vectorized :func:`apply_circuit_to_label` over int64 labels (up to 63 wires).

    One boolean plane per wire: a gate ANDs its controls' planes (and, for
    a swap, the XOR of the swapped planes) and XORs that into each flipped
    plane; an uncontrolled SWAP trades two planes. ``_ROLES`` is read, not
    ``Gate.masks``: on 64 labels, building the masks made the 119 gates of
    ``MulQuantumSpec(3, 2, 3, 2, 6)`` take 1.1 ms, against 0.3 ms (2 cores).
    """
    if not circuit.is_permutation():
        raise PreconditionError("H is not a basis permutation")
    planes = [(labels & (1 << w)) != 0 for w in range(circuit.num_wires)]
    for gate in circuit:
        (controls, flips), wires = _ROLES[gate.kind], gate.wires
        hit = None
        for p in controls:
            hit = planes[wires[p]] if hit is None else hit & planes[wires[p]]
        if len(flips) == 2:
            a, b = wires[flips[0]], wires[flips[1]]
            if hit is None:
                planes[a], planes[b] = planes[b], planes[a]
                continue
            hit = hit & (planes[a] ^ planes[b])
        for p in flips:
            planes[wires[p]] ^= True if hit is None else hit
    out = np.zeros(len(labels), dtype=np.int64)
    for w, plane in enumerate(planes):
        out |= plane.astype(np.int64) << w
    return out
