"""Dense state-vector engine: register layouts, gate application, amplitude inspection.

Basis labels are integers; wire w contributes bit w of the label. Register
slots are little-endian: slot 1 of a segment is its least significant bit.
Displayed bitstrings are MSB-first within each segment.

A permutation circuit runs on its basis support when the support is small
(at most ``SUPPORT_PATH_MAX_SHARE`` of the labels) and on the dense array
otherwise. The support scan reads the array in cache-sized blocks and stops
as soon as the support is too large for the label path; the dense path then
answers the precondition checks on the array itself.

On the dense path a run of consecutive SWAP, CSWAP and X gates that leaves
its (at most two) control wires in place is one wire permutation per
assignment of them
(transposes of the amplitude tensor on at most a quarter of the array);
a shift or rotate pass is one such run. Every other gate is one slice
exchange.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError
from .gates import Circuit, Gate, GateMasks, apply_gate_to_labels

NORM_TOL = 1e-12
SCHMIDT_TOL = 1e-10
DEFAULT_MAX_WIRES = 24

# A permutation circuit runs on the basis support when the support holds at
# most this share of the 2**m labels, and densely otherwise: the label path
# costs grow with the support, the dense path's with 2**m. On one 19-gate
# shift pass at 20 wires (2 cores, numpy 2.4) the label path took 18-21 ms
# at 1/8 support, 36-41 ms at 1/4 and 73-87 ms at 1/2, while the dense path
# took 43-95 ms whatever the support, depending on the array's allocation.
SUPPORT_PATH_MAX_SHARE = 1 / 8

# The support scan runs np.flatnonzero over blocks of this many amplitudes
# (256 KiB), so its count and fill passes both read from cache. At 20 wires
# with half the labels supported, stopping at 1/8 took 1.1 ms against 7.5 ms
# for one whole-array np.flatnonzero; 2**12 to 2**15 timed alike, 2**16
# was slower (2 cores, numpy 2.4).
_SCAN_BLOCK = 1 << 14

# A compiled wire permutation permutes one chunk of the tensor at a time,
# fixing at least this many wires (the run's control wires, then wires it
# leaves in place), so that its temporary holds at most 2**(m-2)
# amplitudes: no more than one SWAP's slice exchange. Permuting half-arrays
# cut the dense shift pass as much but raised the benchmark's peak RSS by 9%.
_FIXED_WIRES = 2

# Gate kinds that only relabel wires once their control bits are fixed; a
# run of them compiles into wire permutations on the dense path.
_RUN_KINDS = frozenset({"SWAP", "CSWAP", "X"})

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class StateVector:
    """Unit-norm array of ``2**num_wires`` complex amplitudes.

    Gate application mutates the amplitude buffer in place; use
    :meth:`copy` to keep a snapshot. Callers hold exclusive access to a
    state while operating on it.
    """

    __slots__ = ("num_wires", "amplitudes")

    def __init__(self, amplitudes, *, max_wires: int = DEFAULT_MAX_WIRES):
        arr = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
        if arr.size < 2:
            raise PreconditionError(f"amplitude count {arr.size} is not 2**m with m >= 1")
        m = int(arr.size).bit_length() - 1
        if arr.size != 1 << m:
            raise PreconditionError(f"amplitude count {arr.size} is not 2**m with m >= 1")
        if m > max_wires:
            raise PreconditionError(f"{m} wires exceeds the {max_wires}-wire ceiling")
        check_unit_norm(arr, NORM_TOL, "state")
        self.num_wires = m
        self.amplitudes = arr

    @classmethod
    def from_label(cls, num_wires: int, label: int, *, max_wires: int = DEFAULT_MAX_WIRES) -> "StateVector":
        if num_wires < 1:
            raise PreconditionError("need at least one wire")
        if num_wires > max_wires:
            raise PreconditionError(f"{num_wires} wires exceeds the {max_wires}-wire ceiling")
        if not 0 <= label < (1 << num_wires):
            raise PreconditionError(f"label {label} out of range for {num_wires} wires")
        amps = np.zeros(1 << num_wires, dtype=np.complex128)
        amps[label] = 1.0
        out = object.__new__(cls)
        out.num_wires = num_wires
        out.amplitudes = amps
        return out

    def copy(self) -> "StateVector":
        out = object.__new__(StateVector)
        out.num_wires = self.num_wires
        out.amplitudes = self.amplitudes.copy()
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, label: int) -> complex:
        return complex(self.amplitudes[label])

    def nonzero_labels(self, limit: float | None = None) -> np.ndarray | None:
        """Sorted labels of the nonzero amplitudes, as ``np.flatnonzero`` gives them.

        With ``limit``, return None as soon as more than ``limit`` labels
        are found, without scanning the rest of the array. Without one, the
        scan is one whole-array ``np.flatnonzero``: at 20 wires with every
        label supported a blocked scan took 19.8-21.7 ms and peaked at
        16.8 MB, holding the labels twice while it joined its blocks,
        against 8.5-8.8 ms and 8.4 MB; at half support the two took the
        same time (2 cores, numpy 2.4).
        """
        amps = self.amplitudes
        if limit is None:
            return np.flatnonzero(amps)
        found = []
        count = 0
        for start in range(0, amps.size, _SCAN_BLOCK):
            block = np.flatnonzero(amps[start:start + _SCAN_BLOCK])
            if block.size:
                count += block.size
                if count > limit:
                    return None
                block += start
                found.append(block)
        return np.concatenate(found) if found else np.empty(0, dtype=np.intp)

    def allclose(self, other: "StateVector", tol: float = NORM_TOL) -> bool:
        if self.num_wires != other.num_wires:
            return False
        return bool(np.max(np.abs(self.amplitudes - other.amplitudes)) <= tol)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.num_wires)

    def __repr__(self) -> str:
        return f"StateVector(num_wires={self.num_wires})"


def new_basis_state(num_wires: int, label: str, *, max_wires: int = DEFAULT_MAX_WIRES) -> StateVector:
    """Basis state from an MSB-first bitstring of length ``num_wires``."""
    if num_wires < 1:
        raise PreconditionError("need at least one wire")
    if len(label) != num_wires or set(label) - {"0", "1"}:
        raise PreconditionError(
            f"label {label!r} is not a bitstring of length {num_wires}"
        )
    return StateVector.from_label(num_wires, int(label, 2), max_wires=max_wires)


def check_unit_norm(amplitudes: np.ndarray, tol: float, what: str) -> None:
    """Raise PreconditionError unless every amplitude is finite and the norm is 1 within tol."""
    if not 0.0 <= tol < math.inf:  # NaN fails both comparisons
        raise PreconditionError(f"norm tolerance {tol!r} must be finite and nonnegative")
    norm = np.linalg.norm(amplitudes)
    # A NaN or infinite amplitude makes the norm NaN or infinite, so finite
    # input pays for no extra scan.
    if not math.isfinite(norm) and not np.isfinite(amplitudes).all():
        raise PreconditionError(f"{what} has a NaN or infinite amplitude")
    if abs(norm - 1.0) > tol:
        raise PreconditionError(f"{what} norm {norm!r} deviates from 1 beyond {tol}")


def _slice_index(m: int, wires: Sequence[int], bits: int) -> tuple:
    """Tensor index fixing each of ``wires`` to its bit in ``bits``."""
    # Axis for wire w in the reshaped tensor is m - 1 - w.
    idx: list = [slice(None)] * m
    for wire in wires:
        idx[m - 1 - wire] = (bits >> wire) & 1
    return tuple(idx)


def _exchange_slices(tensor: np.ndarray, idx_a: tuple, idx_b: tuple) -> None:
    tmp = tensor[idx_a].copy()
    tensor[idx_a] = tensor[idx_b]
    tensor[idx_b] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state.

    A permutation gate exchanges the two slices its masks pair up, so it
    moves amplitudes exactly; H is the standard one-wire Hadamard butterfly.
    Norm is preserved (exactly for permutations).
    """
    m = state.num_wires
    ws = gate.wires
    if max(ws) >= m:
        raise PreconditionError(f"gate {gate.kind}{ws} exceeds {m} wires")
    t = state._tensor()
    if gate.kind == "H":
        lo = _slice_index(m, ws, 0)
        hi = _slice_index(m, ws, 1 << ws[0])
        a = t[lo].copy()
        b = t[hi]
        t[lo] = (a + b) * _SQRT_HALF
        t[hi] = (a - b) * _SQRT_HALF
        return state
    control, flip, pattern = gate.masks
    _exchange_slices(
        t,
        _slice_index(m, ws, control | pattern),
        _slice_index(m, ws, control | (pattern ^ flip)),
    )
    return state


class _Transpose(NamedTuple):
    """One compiled dense step: for each of ``labels``, the sub-tensor that
    fixes ``wires`` to that label's bits has its axes permuted by ``axes``."""

    wires: tuple[int, ...]
    labels: tuple[int, ...]
    axes: tuple[int, ...]


def _dense_steps(circuit: Circuit) -> list[Gate | _Transpose]:
    """The circuit as dense steps: gates to run as slice exchanges, and transposes.

    Each run of consecutive SWAP, CSWAP and X gates goes through
    :func:`_compile_run`; every other gate is a step of its own.
    """
    steps: list[Gate | _Transpose] = []
    for compiles, gates in itertools.groupby(circuit, key=lambda gate: gate.kind in _RUN_KINDS):
        steps.extend(_compile_run(list(gates), circuit.num_wires) if compiles else gates)
    return steps


def _compile_run(gates: list[Gate], m: int) -> list[Gate | _Transpose]:
    """A run of SWAP, CSWAP and X gates as one wire permutation per control slice.

    The run's control wires are its CSWAP controls and X targets. When no
    gate swaps a control wire and each control wire gets an even number of
    X gates, every label keeps its control bits, and on each assignment of
    them the run only relabels the other wires. Only runs on at most
    ``_FIXED_WIRES`` control wires compile, as compiling walks the run once
    per control slice. A run that does not qualify runs its plain SWAP runs
    compiled and every other gate alone; so does a lone gate, which is
    cheaper as a slice exchange: at 20 wires one SWAP took 1.8-4.3 ms,
    depending on its wires, against 3.3-6.7 ms as a permutation, while runs
    of 3 SWAPs ran 1.7-3.8 times faster as one (2 cores, numpy 2.4).
    """
    if len(gates) < 2:
        return gates
    masks = [gate.masks for gate in gates]
    controls = swapped = parity = 0
    for control, flip, pattern in masks:
        if pattern:  # SWAP or CSWAP: flips two bits where they differ
            controls |= control
            swapped |= flip
        else:  # X
            controls |= flip
            parity ^= flip
    # A segment may touch m - _FIXED_WIRES wires, and needs two to swap.
    too_many = controls.bit_count() > _FIXED_WIRES or m - _FIXED_WIRES < 2
    if too_many or swapped & controls or parity:
        if all(gate.kind == "SWAP" for gate in gates):
            return gates
        return [
            step
            for is_swap, part in itertools.groupby(gates, key=lambda gate: gate.kind == "SWAP")
            for step in (_compile_run(list(part), m) if is_swap else part)
        ]
    control_wires = [w for w in range(m) if (controls >> w) & 1]
    steps: list[Gate | _Transpose] = []
    for bits in _assignments(control_wires):
        for segment in _segments(_slice_swaps(masks, bits), m - _FIXED_WIRES):
            step = _transpose(m, control_wires, bits, segment)
            if step is not None:
                steps.append(step)
    return steps


def _assignments(wires: Sequence[int]) -> list[int]:
    """Every label whose set bits all lie on ``wires``."""
    return [sum(((n >> i) & 1) << w for i, w in enumerate(wires)) for n in range(1 << len(wires))]


def _slice_swaps(masks: list[GateMasks], bits: int) -> list[int]:
    """The wire swaps, as two-bit masks, that a qualifying run makes on the
    labels whose control wires read ``bits``, with adjacent pairs that
    cancel dropped."""
    swaps: list[int] = []
    for control, flip, pattern in masks:
        if not pattern:
            bits ^= flip
        elif bits & control == control:
            if swaps and swaps[-1] == flip:
                swaps.pop()
            else:
                swaps.append(flip)
    return swaps


def _segments(swaps: list[int], max_wires: int) -> list[list[int]]:
    """Split a list of swap masks into segments touching at most ``max_wires`` wires.

    A greedy cut finds the fewest segments; the list is then cut into that
    many segments of equal length when each still fits. At 20 wires a cycle
    of four shift and rotate passes (18 SWAPs each, so 2 segments) took
    58.6-60.2 ms with equal segments and 62.7-69.4 ms with the greedy ones,
    which leave the right passes a lone SWAP (2 cores, numpy 2.4).
    """
    if not swaps:
        return []
    greedy: list[list[int]] = []
    touched = 0
    for flip in swaps:
        if greedy and (touched | flip).bit_count() <= max_wires:
            greedy[-1].append(flip)
            touched |= flip
        else:
            greedy.append([flip])
            touched = flip
    size = -(-len(swaps) // len(greedy))
    even = [swaps[i:i + size] for i in range(0, len(swaps), size)]
    if all(functools.reduce(operator.or_, segment).bit_count() <= max_wires for segment in even):
        return even
    return greedy


def _transpose(m: int, controls: list[int], bits: int, swaps: list[int]) -> Gate | _Transpose | None:
    """The step that runs ``swaps`` on the control slice ``bits``: None when
    they compose to the identity, a SWAP gate when a run without controls
    composes to one swap (cheaper as a slice exchange), else a transpose.

    The transpose fixes the control wires and, below ``_FIXED_WIRES`` of
    them, the highest wires the swaps map to themselves, one chunk per
    assignment.
    """
    src = list(range(m))  # src[w]: the wire whose bit ends up on wire w
    for flip in swaps:
        a, b = (flip & -flip).bit_length() - 1, flip.bit_length() - 1
        src[a], src[b] = src[b], src[a]
    moved = [w for w in range(m) if src[w] != w]
    if not moved:
        return None
    if not controls and len(moved) == 2:
        return Gate.swap(*moved)
    still = [w for w in reversed(range(m)) if src[w] == w and w not in controls]
    chunk = still[:_FIXED_WIRES - len(controls)]
    wires = (*controls, *chunk)
    # Wires of the chunk's sub-tensor in axis order (axis 0 holds the top wire).
    rest = [w for w in reversed(range(m)) if w not in wires]
    axis = {w: i for i, w in enumerate(rest)}
    gather = [axis[src[w]] for w in rest]
    labels = tuple(bits | extra for extra in _assignments(chunk))
    return _Transpose(wires, labels, tuple(int(a) for a in np.argsort(gather)))


def _apply_transpose(state: StateVector, step: _Transpose) -> None:
    """Run a compiled step in place: copy each chunk, then scatter the copy
    through the permuted axes.

    Scattering timed as fast as gathering with ``sub[...] =
    sub.transpose(gather).copy()`` or faster: in six rounds at 20 wires
    with half the labels supported, a left shift pass took 7.4-9.2 ms
    against 7.5-10.6 ms, a right one 10.3-12.0 against 10.4-14.2 ms, and
    four right passes as one run 45-54 against 45-71 ms (scan and checks
    included; 2 cores, numpy 2.4).
    """
    m = state.num_wires
    t = state._tensor()
    for bits in step.labels:
        sub = t[_slice_index(m, step.wires, bits)]
        tmp = sub.copy()
        sub.transpose(step.axes)[...] = tmp
        del tmp  # so that the next chunk's copy does not sit beside it


def _support(state: StateVector, circuit: Circuit) -> np.ndarray | None:
    """Check the circuit's wire count against the state, then return the labels
    to run it on: the basis support, or None to run it densely.

    The scan stops once the support holds more than ``SUPPORT_PATH_MAX_SHARE``
    of the labels; a circuit with an H gate is not scanned.
    """
    if circuit.num_wires != state.num_wires:
        raise PreconditionError(
            f"circuit has {circuit.num_wires} wires, state has {state.num_wires}"
        )
    if not circuit.is_permutation():
        return None
    return state.nonzero_labels(limit=SUPPORT_PATH_MAX_SHARE * state.amplitudes.size)


def run_on_support(state: StateVector, circuit: Circuit, labels: np.ndarray | None) -> StateVector:
    """Apply a circuit of the state's wire count in place: on the basis
    support ``labels``, or densely when None.

    ``labels`` needs an H-free circuit: its labels are permuted gate by
    gate, then each amplitude moves once to its final label. Amplitudes off
    the support stay where they are, so a -0.0 there is not moved as the
    dense kernel would move it. The dense path runs the steps of
    :func:`_dense_steps`, whose wire permutations move every amplitude
    exactly as the gates one by one would.
    """
    if labels is None:
        for step in _dense_steps(circuit):
            if isinstance(step, Gate):
                apply_gate(state, step)
            else:
                _apply_transpose(state, step)
        return state
    moved = labels
    for gate in circuit:
        moved = apply_gate_to_labels(gate, moved)
    amps = state.amplitudes
    values = amps[labels]
    amps[labels] = 0.0
    amps[moved] = values
    return state


def run_circuit(
    state: StateVector, circuit: Circuit, checks: Iterable[tuple[Sequence[int], str]] = ()
) -> StateVector:
    """Apply a circuit's gates in order (in place), after its ``(wires, what)`` zero checks.

    One scan of the basis support serves both: a permutation circuit runs
    on the support when it holds at most ``SUPPORT_PATH_MAX_SHARE`` of the
    labels, and densely otherwise, and both give the same amplitudes. The
    checks (see :func:`require_zero`) fail before any gate runs.
    """
    labels = _support(state, circuit)
    require_zero(state, labels, checks)
    return run_on_support(state, circuit, labels)


def _wire_mask(wires: Iterable[int]) -> int:
    mask = 0
    for wire in wires:
        mask |= 1 << int(wire)
    return mask


def require_zero(
    state: StateVector, labels: np.ndarray | None, checks: Iterable[tuple[Sequence[int], str]]
) -> None:
    """Raise PreconditionError naming the first ``(wires, what)`` check that
    some supported basis state violates by having a 1 on one of the wires.

    ``labels`` is the state's support, or None to read the dense array one
    wire's 1-slice at a time. On the labels, all checks share one pass
    unless one fails.
    """
    checks = list(checks)
    combined = _wire_mask(w for wires, _ in checks for w in wires)
    if labels is not None and not np.any(labels & combined):
        return
    for wires, what in checks:
        if _has_one(state, labels, wires):
            raise _nonzero_error(what)


def _has_one(state: StateVector, labels: np.ndarray | None, wires: Sequence[int]) -> bool:
    if labels is not None:
        return bool(np.any(labels & _wire_mask(wires)))
    t = state._tensor()
    return any(t[_slice_index(state.num_wires, (w,), 1 << w)].any() for w in wires)


def _nonzero_error(what: str) -> PreconditionError:
    return PreconditionError(f"{what} must be zero on every supported basis state")


class RegisterLayout:
    """Named, disjoint wire segments covering all wires of a state.

    Segment order is the declaration order; it fixes the display order of
    bitstrings (each segment printed MSB-first, slot 1 being the LSB).
    """

    def __init__(self, segments: Iterable[tuple[str, Sequence[int]]]):
        self._segments: dict[str, tuple[int, ...]] = {}
        seen: set[int] = set()
        for name, wires in segments:
            wires = tuple(int(w) for w in wires)
            if not wires:
                raise PreconditionError(f"segment {name!r} is empty")
            if name in self._segments:
                raise PreconditionError(f"duplicate segment {name!r}")
            overlap = seen.intersection(wires)
            if overlap or len(set(wires)) != len(wires):
                raise PreconditionError(f"segment {name!r} overlaps other wires")
            seen.update(wires)
            self._segments[name] = wires
        if not self._segments:
            raise PreconditionError("layout needs at least one segment")
        if seen != set(range(len(seen))) or min(seen) < 0:
            raise PreconditionError("segments must cover wires 0..m-1 exactly")
        self.num_wires = len(seen)
        # Display order: segments in declaration order, each MSB-first.
        self.display_wires: tuple[int, ...] = tuple(
            wire for wires in self._segments.values() for wire in reversed(wires)
        )

    @classmethod
    def single(cls, name: str, num_wires: int) -> "RegisterLayout":
        return cls([(name, range(num_wires))])

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(self._segments)

    def has_segment(self, name: str) -> bool:
        return name in self._segments

    def wires(self, name: str) -> tuple[int, ...]:
        """Wires of a segment in slot order (slot 1 first)."""
        try:
            return self._segments[name]
        except KeyError:
            raise PreconditionError(f"unknown segment {name!r}") from None

    def width(self, name: str) -> int:
        return len(self.wires(name))

    def value(self, label: int, name: str) -> int:
        """Integer held by a segment within a basis label."""
        out = 0
        for slot, wire in enumerate(self.wires(name)):
            out |= ((label >> wire) & 1) << slot
        return out

    def values(self, labels: np.ndarray, name: str) -> np.ndarray:
        """Vectorized :meth:`value` over an array of labels."""
        labels = np.asarray(labels, dtype=np.int64)
        out = np.zeros_like(labels)
        for slot, wire in enumerate(self.wires(name)):
            out |= ((labels >> wire) & 1) << slot
        return out

    def label_with_value(self, label: int, name: str, value: int) -> int:
        """Label with one segment replaced by an integer value."""
        wires = self.wires(name)
        if not 0 <= value < (1 << len(wires)):
            raise PreconditionError(f"value {value} does not fit segment {name!r}")
        for slot, wire in enumerate(wires):
            label &= ~(1 << wire)
            label |= ((value >> slot) & 1) << wire
        return label

    def display_label(self, label: int) -> str:
        """Bitstring for a label: one character per wire of ``display_wires``."""
        return "".join("1" if (label >> wire) & 1 else "0" for wire in self.display_wires)

    def label_from_display(self, bits: str) -> int:
        if len(bits) != self.num_wires or set(bits) - {"0", "1"}:
            raise PreconditionError(
                f"bitstring {bits!r} is not {self.num_wires} bits"
            )
        label = 0
        for bit, wire in zip(bits, self.display_wires):
            if bit == "1":
                label |= 1 << wire
        return label

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={list(w)}" for n, w in self._segments.items())
        return f"RegisterLayout({inner})"


def segment_value_distribution(
    state: StateVector, layout: RegisterLayout, name: str
) -> dict[int, float]:
    """Marginal probability of each integer value of one segment.

    Values with exactly zero probability are omitted; the returned
    probabilities sum to 1 within 1e-12.
    """
    if layout.num_wires != state.num_wires:
        raise PreconditionError("layout and state wire counts differ")
    width = layout.width(name)
    labels = state.nonzero_labels()
    # Zero amplitudes would only add exact zeros, so the support gives the
    # same sums in the same order as all 2**m labels.
    probs = np.abs(state.amplitudes[labels]) ** 2
    marg = np.bincount(layout.values(labels, name), weights=probs, minlength=1 << width)
    return {int(v): float(p) for v, p in enumerate(marg) if p > 0.0}


class ProductCheck(NamedTuple):
    is_product: bool
    schmidt_rank: int


def schmidt_rank(state: StateVector, cut: Iterable[int], tol: float = SCHMIDT_TOL) -> int:
    """Number of singular values above ``tol`` across the given bipartition."""
    m = state.num_wires
    cut_set = {int(w) for w in cut}
    if not cut_set or any(w < 0 or w >= m for w in cut_set):
        raise PreconditionError("cut must be a nonempty set of in-range wires")
    if len(cut_set) == m:
        raise PreconditionError("cut must be a proper subset of the wires")
    cut_axes = [m - 1 - w for w in sorted(cut_set, reverse=True)]
    rest_axes = [a for a in range(m) if a not in cut_axes]
    mat = state._tensor().transpose(cut_axes + rest_axes).reshape(1 << len(cut_set), -1)
    singular = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(singular > tol))


def is_product_across(
    state: StateVector, cut: Iterable[int], tol: float = SCHMIDT_TOL
) -> ProductCheck:
    """Product-state verdict across a cut: Schmidt rank 1 means unentangled."""
    rank = schmidt_rank(state, cut, tol)
    return ProductCheck(rank == 1, rank)
