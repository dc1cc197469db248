"""Gate and circuit records, standard decompositions, and basis-label evaluation.

Gates are plain records over wire indices; all primitives except H act as
permutations of the computational basis. Each permutation kind is described
once, by its control and flipped wires in ``_ROLES``, which each gate reads
as :attr:`Gate.roles`. The dense kernels in ``state`` and the label kernels
here all read those roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import PreconditionError, basis_label, basis_labels, instance, integer, iterable

# Positions in Gate.wires of each permutation kind's control wires and of
# the wires it flips.
_ROLES = {
    "X": ((), (0,)),
    "CNOT": ((0,), (1,)),
    "TOFFOLI": ((0, 1), (2,)),
    "SWAP": ((), (0, 1)),
    "CSWAP": ((0,), (1, 2)),
}

GATE_ARITY = {"H": 1, **{kind: len(c) + len(f) for kind, (c, f) in _ROLES.items()}}


@dataclass(frozen=True)
class Gate:
    """One primitive gate: a kind plus the wires it acts on.

    For CNOT the wires are (control, target); for TOFFOLI
    (control, control, target); for CSWAP (control, swapped, swapped).
    """

    kind: str
    wires: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in GATE_ARITY:
            raise PreconditionError(f"unknown gate kind {self.kind!r}")
        wires = tuple(integer(w, "wire") for w in iterable(self.wires, f"{self.kind} wires"))
        object.__setattr__(self, "wires", wires)
        if len(wires) != GATE_ARITY[self.kind]:
            raise PreconditionError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} wires, got {len(wires)}"
            )
        if len(set(wires)) != len(wires):
            raise PreconditionError(f"{self.kind} wires must be distinct: {wires}")
        if any(w < 0 for w in wires):
            raise PreconditionError(f"wire indices must be nonnegative: {wires}")

    @cached_property
    def roles(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The control wires and the flipped wires of a permutation gate, read once per gate; H has none."""
        try:
            controls, flips = _ROLES[self.kind]
        except KeyError:
            raise PreconditionError(f"{self.kind} is not a basis permutation") from None
        return tuple(self.wires[p] for p in controls), tuple(self.wires[p] for p in flips)

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


@dataclass(frozen=True)
class Circuit:
    """Immutable gate sequence over a fixed number of wires, checked once when built."""

    num_wires: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        num_wires = integer(self.num_wires, "num_wires")
        if num_wires < 1:
            raise PreconditionError("circuit needs at least one wire")
        gates = tuple(iterable(self.gates, "circuit gates", "gates"))
        for gate in gates:
            instance(gate, Gate, "circuit gate")
            if max(gate.wires) >= num_wires:
                raise PreconditionError(f"gate {gate.kind}{gate.wires} exceeds {num_wires} wires")
        object.__setattr__(self, "num_wires", num_wires)
        object.__setattr__(self, "gates", gates)

    def reversed(self) -> "Circuit":
        """Gate-reversed circuit; the inverse, since every primitive is an involution."""
        return Circuit(self.num_wires, self.gates[::-1])

    def counts(self) -> dict[str, int]:
        """Tally of gates by kind (only kinds that occur)."""
        out: dict[str, int] = {}
        for gate in self.gates:
            out[gate.kind] = out.get(gate.kind, 0) + 1
        return out

    def is_permutation(self) -> bool:
        """True when the circuit contains no H gate."""
        return self._plane_plan is not None

    @cached_property
    def _plane_plan(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None:
        """Each gate's :attr:`Gate.roles`; None with an H among the gates."""
        return None if any(g.kind == "H" for g in self.gates) else tuple(g.roles for g in self.gates)

    def derived(self, derive: Callable, *args):
        """``derive(self, *args)``, computed on first use and kept: the gates never change, nor does it."""
        memo, key = self.__dict__.setdefault("_derived", {}), (derive, *args)
        if key not in memo:
            memo[key] = derive(self, *args)
        return memo[key]

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)


# A process runs few distinct pipelines (a benchmark workload at most 4), and a circuit under the
# 24-wire ceiling holds at most ~550 gates (0.12 MB with its plans), so 64 circuits stay under 8 MB.
CIRCUIT_CACHE_SIZE = 64


@lru_cache(maxsize=CIRCUIT_CACHE_SIZE)
def compiled(build: Callable[..., Circuit], *key) -> Circuit:
    """``build(*key)``, built once while among the most recently used; a refusal is raised afresh."""
    return build(*key)


def decompose_swap(a: int, b: int) -> Circuit:
    """SWAP(a, b) as its three-CNOT equivalent."""
    gates = [Gate.cnot(a, b), Gate.cnot(b, a), Gate.cnot(a, b)]
    return Circuit(max(gates[0].wires) + 1, gates)


def decompose_cswap(control: int, a: int, b: int) -> Circuit:
    """CSWAP(control, a, b) as CNOT, TOFFOLI, CNOT."""
    gates = [Gate.cnot(b, a), Gate.toffoli(control, a, b), Gate.cnot(b, a)]
    return Circuit(max(gates[1].wires) + 1, gates)


def _expand(circuit: Circuit, kind: str, decompose) -> Circuit:
    gates = []
    for gate in instance(circuit, Circuit, "circuit"):
        gates.extend(decompose(*gate.wires).gates if gate.kind == kind else (gate,))
    return Circuit(circuit.num_wires, gates)


def expand_swaps(circuit: Circuit) -> Circuit:
    """Replace every SWAP by its three-CNOT decomposition."""
    return _expand(circuit, "SWAP", decompose_swap)


def expand_cswaps(circuit: Circuit) -> Circuit:
    """Replace every CSWAP by its CNOT/TOFFOLI/CNOT decomposition."""
    return _expand(circuit, "CSWAP", decompose_cswap)


def apply_gate_to_label(gate: Gate, label: int) -> int:
    """Image of one basis label under a permutation gate.

    H is rejected: it does not map basis states to basis states.
    """
    controls, flips = gate.roles
    # A swap exchanges the labels where its two wires read 01 and 10; any other gate flips its target.
    if all(label >> w & 1 for w in controls) and (len(flips) == 1 or (label >> flips[0] ^ label >> flips[1]) & 1):
        for w in flips:
            label ^= 1 << w
    return label


def apply_circuit_to_label(circuit: Circuit, label: int) -> int:
    """Run an H-free circuit on a single basis label, gate by gate."""
    label = basis_label(label, instance(circuit, Circuit, "circuit").num_wires)
    for gate in circuit:
        label = apply_gate_to_label(gate, label)
    return label


def apply_circuit_to_labels(circuit: Circuit, labels: np.ndarray) -> np.ndarray:
    """Vectorized :func:`apply_circuit_to_label` over integer labels (up to 63 wires).

    One boolean plane per wire: a gate ANDs its controls' planes (and, for
    a swap, the XOR of the swapped planes) and XORs that into each flipped
    plane; an uncontrolled SWAP trades two planes.
    """
    if not circuit.is_permutation():
        raise PreconditionError("H is not a basis permutation")
    labels = basis_labels(labels, circuit.num_wires)
    planes = [(labels & (1 << w)) != 0 for w in range(circuit.num_wires)]
    for controls, flips in circuit._plane_plan:
        hit = None
        for w in controls:
            hit = planes[w] if hit is None else hit & planes[w]
        if len(flips) == 2:
            a, b = flips
            if hit is None:
                planes[a], planes[b] = planes[b], planes[a]
                continue
            hit = hit & (planes[a] ^ planes[b])
        for w in flips:
            planes[w] ^= True if hit is None else hit
    out = np.zeros_like(labels)  # any shape maps elementwise
    for w, plane in enumerate(planes):
        out |= plane.astype(np.int64) << w
    return out
