"""Dense state-vector engine: register layouts, gate application, amplitude inspection.

Basis labels are integers; wire w contributes bit w of the label. Register
slots are little-endian: slot 1 of a segment is its least significant bit.
Displayed bitstrings are MSB-first within each segment.

A permutation circuit runs on its basis support when the support is small
(at most ``SUPPORT_PATH_MAX_SHARE`` of the labels) and on the dense array
otherwise. Zero checks on enough wires, as a multiplier's, are answered by
one sweep, and the support is gathered from their zero slice. Otherwise the
support scan reads the array in cache-sized blocks and stops as soon as the
support is too large for the label path; the dense path then sweeps.

On the dense path the wires that the circuit's zero checks proved 0 are
marked, and only the slice where they read 0 is permuted. Consecutive
SWAPs, CSWAPs on marked controls and X gates on marked wires compose into
one wire permutation of that slice: one transpose of the amplitude tensor,
at most a quarter of the array at a time, then a slice exchange for each
swap peeled off so that the transpose leaves two wires in place. A shift or
rotate pass is one such permutation. Every other gate is one slice exchange.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError, integer
from .gates import Circuit, Gate, apply_circuit_to_labels

NORM_TOL = 1e-12
SCHMIDT_TOL = 1e-10
DEFAULT_MAX_WIRES = 24

# A permutation circuit runs on the basis support when the support holds at
# most this share of the 2**m labels, and densely otherwise: the label path
# costs grow with the support, the dense path's with 2**m. On one checked
# left shift pass at 20 wires (shift_layout(12, 7), scan and checks
# excluded; medians of 9, three runs, 2 cores, numpy 2.4) the label path
# took 1.6-2.1 ms at 1/64 support, 3.5-3.6 ms at 1/32, 5.0-6.3 ms at 1/16,
# 11 ms at 1/8, 25-28 ms at 1/4 and 51 ms at 1/2, while the dense path took
# 3.6-5.4 ms whatever the support. The dense pass wins above about 1/32,
# but 1/8 stays until a rule that also weighs the circuit's gate mix is
# measured on every workload: on the dense path an adder's TOFFOLIs and
# CNOTs each run as one slice exchange over the array.
SUPPORT_PATH_MAX_SHARE = 1 / 8

# The support scan runs np.flatnonzero over blocks of this many amplitudes
# (256 KiB), so its count and fill passes both read from cache. At 20 wires
# with half the labels supported, stopping at 1/8 took 1.1 ms against 7.5 ms
# for one whole-array np.flatnonzero; 2**12 to 2**15 timed alike, 2**16
# was slower (2 cores, numpy 2.4).
_SCAN_BLOCK = 1 << 14

# A compiled wire permutation permutes one chunk of the tensor at a time,
# fixing at least this many wires (the marked wires first, then wires it
# leaves in place, with swaps peeled off until enough are), so that its
# temporary holds at most 2**(m-2) amplitudes: no more than one SWAP's
# slice exchange. Permuting half-arrays cut the dense shift pass as much
# but raised the benchmark's peak RSS by 9%.
_FIXED_WIRES = 2

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
        label = integer(label, "label")
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


class _Exchange(NamedTuple):
    """A slice exchange: the sub-tensors that fix ``wires`` to the bits of
    label ``a`` and to those of label ``b`` trade places."""

    wires: tuple[int, ...]
    a: int
    b: int


def _apply_exchange(state: StateVector, step: _Exchange) -> None:
    m = state.num_wires
    t = state._tensor()
    idx_a = _slice_index(m, step.wires, step.a)
    idx_b = _slice_index(m, step.wires, step.b)
    tmp = t[idx_a].copy()
    t[idx_a] = t[idx_b]
    t[idx_b] = tmp


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
    if gate.kind == "H":
        t = state._tensor()
        lo = _slice_index(m, ws, 0)
        hi = _slice_index(m, ws, 1 << ws[0])
        a = t[lo].copy()
        b = t[hi]
        t[lo] = (a + b) * _SQRT_HALF
        t[hi] = (a - b) * _SQRT_HALF
        return state
    control, flip, pattern = gate.masks
    _apply_exchange(state, _Exchange(ws, control | pattern, control | (pattern ^ flip)))
    return state


class _Transpose(NamedTuple):
    """One compiled dense step: for each of ``labels``, the sub-tensor that
    fixes ``wires`` to that label's bits has its axes permuted by ``axes``."""

    wires: tuple[int, ...]
    labels: tuple[int, ...]
    axes: tuple[int, ...]


def _dense_steps(circuit: Circuit, marked: int) -> list[Gate | _Transpose | _Exchange]:
    """The circuit as dense steps: gates, slice exchanges and transposes.

    ``marked`` holds wires that read 0 on every nonzero amplitude. One walk
    keeps a wire map ``src`` and a mask of pending X flips. A SWAP goes into
    the map, and so does a CSWAP on a marked control, swapping only while
    that control is flipped; an X on a marked wire toggles its flip. A swap
    that moves a marked wire unmarks it. Any other gate ends the map (see
    :func:`_permute_slice`) and runs alone; it and the map's pending X gates
    unmark the wires they write.
    """
    m = circuit.num_wires
    steps: list[Gate | _Transpose | _Exchange] = []
    src, flips = list(range(m)), 0  # src[w]: the wire whose bit ends up on wire w
    for gate in circuit:
        kind, wires = gate.kind, gate.wires
        if kind == "X" and marked >> wires[0] & 1:
            flips ^= 1 << wires[0]
        elif kind == "SWAP" or kind == "CSWAP" and marked >> wires[0] & 1:
            if kind == "SWAP" or flips >> wires[0] & 1:
                a, b = wires[-2:]
                src[a], src[b] = src[b], src[a]
                if (flips >> a ^ flips >> b) & 1:
                    flips ^= 1 << a | 1 << b
                marked &= ~(1 << a | 1 << b)
        else:
            steps += _permute_slice(m, marked, src, flips)
            marked &= ~(flips | (1 << wires[0] if kind == "H" else gate.masks.flip))
            src, flips = list(range(m)), 0
            steps.append(gate)
    return steps + _permute_slice(m, marked, src, flips)


def _assignments(wires: Sequence[int]) -> np.ndarray:
    """Every label whose set bits all lie on ``wires``, ascending when ``wires`` is."""
    labels = np.zeros(1, dtype=np.int64)
    for wire in wires:
        labels = np.concatenate([labels, labels | (1 << wire)])
    return labels


def _permute_slice(
    m: int, marked: int, src: list[int], flips: int
) -> list[Gate | _Transpose | _Exchange]:
    """The steps that end a map: at most one transpose and then slice
    exchanges relabel by ``src`` the slice where every ``marked`` wire
    reads 0 (``src`` leaves those wires in place); then one X runs per
    pending flip. The slices where a marked wire reads 1 hold only zeros,
    and stay put.

    The transpose permutes chunks that fix the marked wires and, while
    fewer than ``_FIXED_WIRES`` are fixed, the highest other wires ``src``
    leaves in place. While fewer than ``_FIXED_WIRES`` wires are left in
    place, one swap is peeled off ``src`` so that it fixes its highest
    moved wire; the peeled swaps run after the transpose, last peeled
    first, each as a slice exchange. A permutation that moves only two
    wires is one slice exchange too, which is cheaper: at 20 wires a single
    swap on a half-array slice took 0.8-2.6 ms as an exchange against
    1.6-3.5 ms as a transpose over two chunks, depending on its wires, and
    on the whole array 1.6-5.8 ms against 3.2-8.4 ms over four chunks,
    except on wires 0 and 1: 8.5 ms against 6.0 ms (2 cores, numpy 2.4).
    """
    fixed = [w for w in range(m) if marked >> w & 1]
    peeled: list[tuple[int, int]] = []
    moved = [w for w in range(m) if src[w] != w]
    while moved and m - len(moved) < _FIXED_WIRES:
        x = moved[-1]
        y = src.index(x)  # the wire that x's bit ends up on
        src[x], src[y] = x, src[x]
        peeled.append((x, y))
        moved = [w for w in range(m) if src[w] != w]
    steps: list[Gate | _Transpose | _Exchange] = []
    if len(moved) == 2:  # one swap is left
        peeled.append((moved[0], moved[1]))
    elif moved:
        still = [w for w in reversed(range(m)) if src[w] == w and w not in fixed]
        chunk = still[:max(0, _FIXED_WIRES - len(fixed))]
        wires = (*fixed, *chunk)
        # Wires of the chunk's sub-tensor in axis order (axis 0 holds the top wire).
        rest = [w for w in reversed(range(m)) if w not in wires]
        axis = {w: i for i, w in enumerate(rest)}
        gather = [axis[src[w]] for w in rest]
        axes = tuple(int(a) for a in np.argsort(gather))
        steps.append(_Transpose(wires, tuple(_assignments(chunk).tolist()), axes))
    for x, y in reversed(peeled):
        steps.append(_Exchange((*fixed, x, y), 1 << x, 1 << y))
    return steps + [Gate.x(w) for w in range(m) if flips >> w & 1]


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


def _run_on_support(
    state: StateVector, circuit: Circuit, labels: np.ndarray | None, marked: int
) -> StateVector:
    """Apply a circuit of the state's wire count in place: on the basis
    support ``labels``, or densely when None.

    ``labels`` needs an H-free circuit: :func:`apply_circuit_to_labels`
    maps them, then each amplitude moves once to its final label. The dense
    path runs the steps of :func:`_dense_steps`, which leave in place the
    slices where a ``marked`` wire reads 1; those must hold only zeros.

    Both paths move every nonzero amplitude bit for bit as the gates one by
    one would. A zero, ``-0.0`` included, may stay put where the gates
    would move it: off the support, or where a marked wire reads 1.
    """
    if labels is None:
        for step in _dense_steps(circuit, marked):
            if isinstance(step, Gate):
                apply_gate(state, step)
            elif isinstance(step, _Exchange):
                _apply_exchange(state, step)
            else:
                _apply_transpose(state, step)
        return state
    moved = apply_circuit_to_labels(circuit, labels)
    amps = state.amplitudes
    values = amps[labels]
    amps[labels] = 0.0
    amps[moved] = values
    return state


def run_circuit(
    state: StateVector, circuit: Circuit, checks: Iterable[tuple[Sequence[int], str]] = ()
) -> StateVector:
    """Apply a circuit's gates in order (in place), after its ``(wires, what)`` zero checks.

    Every pipeline runs its circuit here, and only here is the path
    chosen. A permutation circuit runs on the basis support when it holds
    at most ``SUPPORT_PATH_MAX_SHARE`` of the labels, and densely otherwise.
    Checks on enough wires (3 at 1/8) pin the support to their zero slice,
    the labels whose checked wires all read 0: they are answered first and
    the support is gathered there. Otherwise a scan that stops past the
    share finds it (a circuit with an H gate is not scanned). A wire-count
    mismatch fails first, then a check wire off the state, then the checks.
    """
    m = state.num_wires
    if circuit.num_wires != m:
        raise PreconditionError(f"circuit has {circuit.num_wires} wires, state has {m}")
    checks = [(tuple(_check_wire(w, what, m) for w in wires), what) for wires, what in checks]
    checked = _wire_mask(w for wires, _ in checks for w in wires)
    permutes = circuit.is_permutation()
    pinned = permutes and 2.0 ** -checked.bit_count() <= SUPPORT_PATH_MAX_SHARE
    labels = None
    if permutes and not pinned:
        labels = state.nonzero_labels(limit=SUPPORT_PATH_MAX_SHARE * state.amplitudes.size)
    _require_zero(state, labels, checks)
    if pinned:
        zero_slice = _assignments([w for w in range(m) if not checked >> w & 1])
        labels = zero_slice[np.flatnonzero(state.amplitudes[zero_slice])]
    return _run_on_support(state, circuit, labels, checked)


def _check_wire(wire, what: str, num_wires: int) -> int:
    wire = integer(wire, f"check {what!r} wire")
    if 0 <= wire < num_wires:
        return wire
    raise PreconditionError(f"check {what!r} wire {wire} is off the state's {num_wires} wires")


def _wire_mask(wires: Iterable[int]) -> int:
    mask = 0
    for wire in wires:
        mask |= 1 << wire
    return mask


def _require_zero(
    state: StateVector, labels: np.ndarray | None, checks: Sequence[tuple[Sequence[int], str]]
) -> None:
    """Raise PreconditionError naming the first ``(wires, what)`` check that
    some supported basis state violates by having a 1 on one of the wires.

    ``labels`` is the state's support, or None to sweep the dense array.
    One pass over every checked wire answers all the checks; only when it
    finds a 1 do the checks run one by one, to name the first that fails.
    """
    if _has_one(state, labels, [w for wires, _ in checks for w in wires]):
        for wires, what in checks:
            if _has_one(state, labels, wires):
                raise _nonzero_error(what)


def _has_one(state: StateVector, labels: np.ndarray | None, wires: Sequence[int]) -> bool:
    """Whether a supported label has a 1 on one of ``wires``: read from
    ``labels``, or, when None, by a sweep of the disjoint slices where one
    wire reads 1 and the wires above it 0, which reads each amplitude off
    the zero slice once; as in ``np.flatnonzero``, ``-0.0`` is zero."""
    if labels is not None:
        return bool(np.any(labels & _wire_mask(wires)))
    t, top = state._tensor(), sorted(set(wires), reverse=True)
    slices = (_slice_index(state.num_wires, top[:i + 1], 1 << w) for i, w in enumerate(top))
    return any(t[idx].any() for idx in slices)


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
            wires = tuple(integer(w, f"segment {name!r} wire") for w in wires)
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
    cut_set = {integer(w, "cut wire") for w in cut}
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
