"""Dense state-vector engine: register layouts, gate application, amplitude inspection.

Basis labels are integers; wire w contributes bit w of the label. Register
slots are little-endian: slot 1 of a segment is its least significant bit.
Displayed bitstrings are MSB-first within each segment. Layouts are values, so
the pipelines compile each circuit once per spec and layout (64 kept) and run it here.

A permutation circuit runs on its basis support when its zero checks cover
enough wires that their zero slice, the labels where every checked wire
reads 0, holds at most ``SUPPORT_PATH_MAX_SHARE`` of the labels. One sweep,
which reads contiguous slices as uint64 words first, answers the checks,
and the support is gathered from that slice. Every other circuit runs on
the dense array after the same sweep. Copies and support reads visit only the blocks
that one scan finds holding a nonzero bit; it reads a block only if its head is zero.
A state bounds the labels that may hold a nonzero bit, and a read of ``.amplitudes`` widens the bound to the
whole buffer; copies, sweeps and scans stop there, and each gate runs on the smallest power-of-two prefix that
holds the bound and its wires, so a state prepared by H gates costs the wires they touch.

On the dense path the wires that an H-free circuit's checks proved 0 are
marked, and only the slice where they read 0 is permuted. Consecutive
SWAPs, CSWAPs on marked controls and X gates on marked wires compose into
one step, a wire map of that slice plus its X flips, moved by one slice
exchange if it moves two wires and else in place through a temporary of
half the slice (a quarter of the array), each amplitude copied 1.75 times.
A shift or rotate pass is one step; other gates and flips are exchanges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    PreconditionError, basis_label, basis_labels, disjoint, instance, integer, iterable, register_wires, tolerance,
)
from .gates import Circuit, Gate, apply_circuit_to_labels

NORM_TOL = 1e-12
SCHMIDT_TOL = 1e-10
MAX_WIRES = 24  # a dense vector of 2**24 amplitudes takes 256 MiB

# A permutation circuit runs on the basis support when its checks' zero
# slice holds at most this share of the 2**m labels, that is when the checks
# cover 3 or more wires, and densely otherwise. The rule reads the checks
# alone, never the support's size: a shift or rotate pass checks 1 wire and
# always runs densely, and the multipliers, which check every segment but
# their factors, run on the support. The share stays 1/8 until a rule that
# also weighs the support and the circuit's gate mix is measured on every
# workload: on the dense path an adder's TOFFOLIs and CNOTs each run as one
# slice exchange over the array.
SUPPORT_PATH_MAX_SHARE = 1 / 8

# StateVector.copy writes only occupied blocks from 32 MiB (21 wires), which glibc mmaps afresh, so
# np.zeros takes 0.01 ms (a reused 16 MiB chunk: 0.85 ms). 2**15-amplitude blocks copy 64 labels at 22 wires
# in 1.6 ms, 1.2 of them the scan, not 19 (a plain copy); a dense state as a plain copy (2**13-2**16 within 25%).
_LAZY_ZERO_BYTES = 1 << 25
_COPY_BLOCK = 1 << 15

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class StateVector:
    """Unit-norm array of ``2**num_wires`` complex amplitudes.

    Gate application mutates the amplitude buffer in place; use
    :meth:`copy` to keep a snapshot. Callers hold exclusive access to a
    state while operating on it. The buffer is a C-contiguous complex128 array of the state's own. From the
    int label ``_live``, 0 to ``2**num_wires``, every amplitude holds ``+0.0`` bits; copies, sweeps, scans and
    gates stop at the power-of-two prefix that holds it. Reading :attr:`amplitudes` widens it to the whole buffer.
    """

    __slots__ = ("num_wires", "_amps", "_live")

    def __init__(self, amplitudes):
        arr = _numbers(amplitudes)
        m = int(arr.size).bit_length() - 1
        if arr.size < 2 or arr.size != 1 << m:
            raise PreconditionError(f"amplitude count {arr.size} is not 2**m with m >= 1")
        check_wire_count(m)  # before the copy, which a broadcast input would make full size
        arr = arr.astype(np.complex128, order="C").reshape(-1)  # a fresh buffer, nothing known of it
        check_unit_norm(arr, NORM_TOL, "state")
        self.num_wires, self._amps, self._live = m, arr, arr.size

    @classmethod
    def from_label(cls, num_wires: int, label: int) -> "StateVector":
        num_wires = check_wire_count(num_wires)
        return cls.from_support(num_wires, [basis_label(label, num_wires)], [1.0])

    @classmethod
    def from_support(cls, num_wires: int, labels, values, *, norm_tol: float = NORM_TOL) -> "StateVector":
        """The state holding ``values`` at ``labels`` and 0 elsewhere, the dual of :meth:`support`: the
        labels come in any order but none twice, the norm is checked over ``values``, and the bound is the
        highest label + 1, or 0 with no labels."""
        num_wires = check_wire_count(num_wires)
        labels, values = basis_labels(labels, num_wires), _numbers(values)
        if labels.ndim != 1 or values.shape != labels.shape:
            raise PreconditionError(f"labels {labels.shape} and amplitudes {values.shape} are not 1-D of one length")
        twice = first_repeat(labels)
        if twice is not None:
            raise PreconditionError(f"label {labels[twice]} is listed twice")
        check_unit_norm(values, norm_tol, "state")  # a tolerance of 1 or more admits no labels at all
        out = object.__new__(cls)
        out.num_wires, out._amps = num_wires, np.zeros(1 << num_wires, np.complex128)
        out._live = int(labels.max(initial=-1)) + 1
        out._amps[labels] = values
        return out

    @property
    def amplitudes(self) -> np.ndarray:
        """The buffer itself, with the bound widened to its end: the caller may write through it at any time after.
        Assigning copies ``2**num_wires`` numbers in and widens the bound; no norm check, as a read takes any write."""
        self._live = self._amps.size
        return self._amps

    @amplitudes.setter
    def amplitudes(self, amps) -> None:
        arr = _numbers(amps)
        if arr.size != self._amps.size:
            raise PreconditionError(f"amplitude count {arr.size} is not 2**{self.num_wires}")
        self._amps[:], self._live = arr.reshape(-1), self._amps.size

    def copy(self) -> "StateVector":
        """Bit-exact copy; from 21 wires the rows :func:`_occupied` yields go into zeros, bounded at the last one."""
        out = object.__new__(StateVector)
        out.num_wires = self.num_wires
        if self._amps.nbytes < _LAZY_ZERO_BYTES:
            out._amps, out._live = self._amps.copy(), self._live
            return out
        rows, out._amps, i = self._rows(), np.zeros(self._amps.shape, np.complex128), -1
        dst = out._amps.reshape(-1, rows.shape[1])
        for i in _occupied(rows):  # while the scan's read of the row is still in cache
            dst[i] = rows[i]
        out._live = (i + 1) * rows.shape[1]
        return out

    def __copy__(self) -> "StateVector":  # never a shared buffer: each state keeps its own bound
        return self.copy()

    def _rows(self) -> np.ndarray:
        """The buffer as rows of ``_COPY_BLOCK`` amplitudes (one row if fewer), up to the row that holds the bound."""
        block = min(_COPY_BLOCK, self._amps.size)
        return self._amps.reshape(-1, block)[:-(-self._live // block)]

    def norm(self) -> float:
        return float(np.linalg.norm(self._amps))

    def amplitude(self, label: int) -> complex:
        return complex(self._amps[basis_label(label, self.num_wires)])

    def nonzero_labels(self) -> np.ndarray:
        """Sorted labels of the nonzero amplitudes, as ``np.flatnonzero`` gives them, read from the runs of rows
        that :func:`_occupied` yields; ``!= 0`` marks the amplitudes that flatnonzero's complex test does, 2x faster."""
        rows = self._rows()
        live = np.isin(np.arange(len(rows) + 1), list(_occupied(rows)))  # a False after the last row
        edges = np.flatnonzero(np.diff(live, prepend=False)).tolist()  # each run's first row, then its end
        runs = [np.flatnonzero(rows[lo:hi] != 0) + lo * rows.shape[1] for lo, hi in zip(edges[::2], edges[1::2])]
        return runs[0] if len(runs) == 1 else np.concatenate([np.zeros(0, np.intp), *runs])

    def support(self, wires: Iterable[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sorted labels of the nonzero amplitudes (``-0.0`` is zero) and those amplitudes.

        With ``wires``, only the labels whose set bits all lie on them, read
        from a gather of those ``2**len(wires)`` labels with no scan.
        """
        if wires is None:
            labels = self.nonzero_labels()
        else:
            labels = _assignments(sorted(set(register_wires(wires, "support", self.num_wires))))
            labels = labels[np.flatnonzero(self._amps[labels])]
        return labels, self._amps[labels]

    def allclose(self, other: "StateVector", tol: float = NORM_TOL) -> bool:
        tol = tolerance(tol, "tolerance")
        instance(other, StateVector, "other state")
        if self.num_wires != other.num_wires:
            return False
        return bool(np.max(np.abs(self._amps - other._amps)) <= tol)

    def _span(self, end: int) -> int:
        """Bits k of the smallest prefix ``2**k`` that holds the bound and wires below ``end``; m once it is widened."""
        return max(end, (self._live - 1).bit_length())

    def _tensor(self, k: int | None = None) -> np.ndarray:
        """The first ``2**k`` amplitudes, all by default, as a k-wire tensor."""
        k = self.num_wires if k is None else k
        return self._amps[:1 << k].reshape((2,) * k)

    def __repr__(self) -> str:
        return f"StateVector(num_wires={self.num_wires})"


def _occupied(rows: np.ndarray) -> Iterator[int]:
    """Indices of the rows holding a nonzero bit (``-0.0``, NaN too), ascending; a row with a nonzero first
    amplitude is yielded unread. The others' uint64 words are read by one max per stretch, which doubles while it
    finds only zeros and is one row after a live one, so a caller writing each row as it comes has it in cache."""
    heads, words, lo, step = (rows[:, 0] != 0).tolist() + [True], rows.view(np.uint64), 0, 1
    while lo < len(rows):
        hi = lo + 1 if heads[lo] else min(heads.index(True, lo), lo + step)  # stop at the next nonzero head
        if hi == lo + 1:  # a live head, or one row read: the same answer in fewer calls
            live = heads[lo] or bool(words[lo].max())
            if live:
                yield lo
        else:
            live = (lo + np.flatnonzero(words[lo:hi].max(axis=1))).tolist()
            yield from live
        lo, step = hi, 1 if live else 2 * step


def new_basis_state(num_wires: int, label: str) -> StateVector:
    """Basis state from an MSB-first bitstring of length ``num_wires``."""
    num_wires = check_wire_count(num_wires)
    if not isinstance(label, str) or len(label) != num_wires or set(label) - {"0", "1"}:
        raise PreconditionError(
            f"label {label!r} is not a bitstring of length {num_wires}"
        )
    return StateVector.from_label(num_wires, int(label, 2))


def _numbers(values) -> np.ndarray:
    """``values`` as an array, refused unless its dtype holds numbers: strings, objects, records and times do not."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biufc":
        raise PreconditionError(f"amplitudes of dtype {arr.dtype} are not numbers")
    return arr


def check_wire_count(num_wires) -> int:
    """``num_wires`` as an int from 1 to the ``MAX_WIRES`` ceiling, checked before any allocation."""
    num_wires = integer(num_wires, "num_wires")
    if num_wires < 1:
        raise PreconditionError("need at least one wire")
    if num_wires > MAX_WIRES:
        raise PreconditionError(f"{num_wires} wires exceeds the {MAX_WIRES}-wire ceiling")
    return num_wires


def first_repeat(labels: np.ndarray) -> int | None:
    """Position of the first label that repeats an earlier one, in input order, or None if none does."""
    order = np.argsort(labels, kind="stable")  # each label's positions in input order
    ordered = labels[order]
    later = order[1:][ordered[1:] == ordered[:-1]]
    return int(later.min()) if later.size else None


def check_unit_norm(amplitudes: np.ndarray, tol: float, what: str) -> None:
    """Raise PreconditionError unless every amplitude is finite and the norm is 1 within tol."""
    tol = tolerance(tol, "norm tolerance")
    norm = np.linalg.norm(amplitudes)
    # A NaN or infinite amplitude makes the norm NaN or infinite, so finite
    # input pays for no extra scan.
    if not math.isfinite(norm) and not np.isfinite(amplitudes).all():
        raise PreconditionError(f"{what} has a NaN or infinite amplitude")
    if abs(norm - 1.0) > tol:
        raise PreconditionError(f"{what} norm {float(norm)!r} deviates from 1 beyond {tol}")


def check_layout_on_state(state: StateVector, layout: RegisterLayout) -> None:
    """Refuse a ``state`` or ``layout`` of the wrong type, or a layout of another wire count than the state."""
    if instance(state, StateVector, "state").num_wires != instance(layout, RegisterLayout, "layout").num_wires:
        raise PreconditionError("layout and state wire counts differ")


def _slice_index(m: int, wires: Sequence[int], bits: int) -> tuple:
    """Tensor index fixing each of ``wires`` to its bit in ``bits``."""
    # Axis for wire w in the reshaped tensor is m - 1 - w.
    idx: list = [slice(None)] * m
    for wire in wires:
        idx[m - 1 - wire] = (bits >> wire) & 1
    return tuple(idx)


def _apply_exchange(t: np.ndarray, wires: Sequence[int], a: int, b: int) -> None:
    """A slice exchange on the tensor ``t``: the sub-tensors that fix ``wires``
    to the bits of label ``a`` and to those of label ``b`` trade places."""
    idx_a, idx_b = _slice_index(t.ndim, wires, a), _slice_index(t.ndim, wires, b)
    tmp = t[idx_a].copy()
    t[idx_a] = t[idx_b]
    t[idx_b] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state.

    A permutation gate exchanges two slices, so it moves amplitudes exactly;
    H is the standard one-wire Hadamard butterfly.
    Norm is preserved (exactly for permutations). The gate runs on the prefix of ``state._span`` bits,
    whose end becomes the bound: above it, H and the exchanges would pair ``+0.0`` with ``+0.0``.
    """
    instance(gate, Gate, "gate")
    m = instance(state, StateVector, "state").num_wires
    ws = gate.wires
    Circuit(m, (gate,))  # refuses a gate off the state's wires, as a circuit of them does
    k = state._span(1 + max(ws))
    t = state._tensor(k)
    state._live = max(state._live, 1 << k)
    if gate.kind == "H":
        lo, hi = _slice_index(k, ws, 0), _slice_index(k, ws, 1 << ws[0])
        a, b = t[lo].copy(), t[hi]
        t[lo] = (a + b) * _SQRT_HALF
        t[hi] = (a - b) * _SQRT_HALF
        return state
    controls, (first, *second) = gate.roles
    control = _wire_mask(controls)
    # With every control at 1, a swap trades the slices where its two wires read 0, 1 and 1, 0; any
    # other gate those where its target, the first, reads 0 and 1.
    _apply_exchange(t, ws, control | _wire_mask(second), control | 1 << first)
    return state


class _Map(NamedTuple):
    """One dense step: on the slice where every ``fixed`` wire reads 0, wire
    w takes the bit of wire ``src[w]`` (``src`` keeps the fixed wires in place); then each
    wire of the mask ``flips`` is flipped. Every wire it moves or flips lies below ``end``."""

    fixed: tuple[int, ...]
    src: tuple[int, ...]
    flips: int
    end: int


def _dense_steps(circuit: Circuit, marked: int) -> list[Gate | _Map]:
    """The circuit as dense steps: gates, and one :class:`_Map` per wire map.

    ``marked`` holds wires that read 0 on every nonzero amplitude. One walk
    keeps a wire map ``src`` and a mask of pending X flips. A SWAP goes into
    the map, and so does a CSWAP on a marked control, swapping only while
    that control is flipped; an X on a marked wire toggles its flip. A swap
    that moves a marked wire unmarks it. Any other gate ends the map (see
    :func:`_end_map`) and runs alone; it and the map's flips unmark the
    wires they write. The runner keeps the list on the circuit and never changes it.
    """
    m = circuit.num_wires
    steps: list[Gate | _Map] = []
    src, flips = list(range(m)), 0  # src[w]: the wire whose bit ends up on wire w
    for gate in circuit:
        kind, wires = gate.kind, gate.wires
        if kind == "X" and marked >> wires[0] & 1:
            flips ^= 1 << wires[0]
        elif kind == "SWAP" or kind == "CSWAP" and marked >> wires[0] & 1:
            if kind == "SWAP" or flips >> wires[0] & 1:
                a, b = gate.roles[1]
                src[a], src[b] = src[b], src[a]
                if (flips >> a ^ flips >> b) & 1:
                    flips ^= 1 << a | 1 << b
                marked &= ~(1 << a | 1 << b)
        else:
            steps += _end_map(m, marked, src, flips)
            marked &= ~(flips | _wire_mask(wires if kind == "H" else gate.roles[1]))
            src, flips = list(range(m)), 0
            steps.append(gate)
    return steps + _end_map(m, marked, src, flips)


def _end_map(m: int, marked: int, src: list[int], flips: int) -> list[_Map]:
    """The step of a map that fixes the ``marked`` wires; none if it moves and flips nothing."""
    fixed = tuple(w for w in range(m) if marked >> w & 1)
    written = [w for w in range(m) if src[w] != w or flips >> w & 1]
    return [_Map(fixed, tuple(src), flips, written[-1] + 1)] if written else []


def _assignments(wires: Sequence[int]) -> np.ndarray:
    """Every label whose set bits all lie on ``wires``, ascending when ``wires`` is."""
    labels = np.zeros(1, dtype=np.int64)
    for wire in wires:
        labels = np.concatenate([labels, labels | (1 << wire)])
    return labels


def _apply_map(state: StateVector, step: _Map) -> None:
    """Move a map in place; the slices where a fixed wire reads 1 hold only
    zeros, and stay put. A map of two wires is one slice exchange (0.75
    copies per amplitude), of more one :func:`_apply_permute` (1.75); with
    no fixed wire, a swap peeled off to keep the top wire runs after it.
    Each flip then runs as a one-wire slice exchange. The map reads its fixed wires, so it runs
    on the whole array; the bound then grows to the prefix that holds ``step.end``.
    """
    m, fixed, src = state.num_wires, step.fixed, list(step.src)
    exchanges = [((w,), 0, 1 << w) for w in range(m) if step.flips >> w & 1]
    if not fixed and src[m - 1] != m - 1 and sum(src[w] != w for w in range(m)) > 2:
        y = src.index(m - 1)  # the wire that the top wire's bit ends up on
        src[m - 1], src[y] = m - 1, src[m - 1]
        exchanges.insert(0, ((m - 1, y), 1 << m - 1, 1 << y))
    moved = [w for w in range(m) if src[w] != w]
    if len(moved) == 2:
        exchanges.insert(0, ((*fixed, *moved), 1 << moved[0], 1 << moved[1]))
    elif moved:
        _apply_permute(state, fixed, src)
    for wires, a, b in exchanges:
        _apply_exchange(state._tensor(), wires, a, b)
    state._live = max(state._live, 1 << state._span(step.end))


def _apply_permute(state: StateVector, fixed: tuple[int, ...], src: Sequence[int]) -> None:
    """Run the permutation ``src`` in place on each slice F: the fixed wires'
    zero slice, or with none fixed each half of the top wire. With t F's top
    wire, s = ``src[t]`` and u the wire that takes t's bit, a temporary of
    half of F serves tmp <- F[t=0]; F[t=0][u=0] <- tmp[s=0]; F[t=0][u=1] <-
    F[t=1][s=0]; tmp[s=0] <- F[t=1][s=1]; F[t=1][u=0] <- tmp[s=1];
    F[t=1][u=1] <- tmp[s=0], each copy into F relabelling the other wires by
    ``src``. If ``src`` keeps t in place, each half of F goes to tmp and back
    instead. F[t=0] and F[t=1] lie in disjoint address ranges, so numpy
    copies between them directly.
    """
    m, t = state.num_wires, state._tensor()
    slices = [t[_slice_index(m, fixed, 0)]] if fixed else [t[0], t[1]]
    fixed = fixed or (m - 1,)
    top, *rest = [w for w in reversed(range(m)) if w not in fixed]  # F's wires in axis order
    tmp = np.empty(slices[0].shape[1:], dtype=t.dtype)
    if src[top] == top:
        axes = [rest.index(src[w]) for w in rest]
        for half in (half for f in slices for half in f):
            np.copyto(tmp, half)
            _copy_in_runs(half, tmp, axes)
        return
    s, u = src[top], src.index(top)
    at = lambda sub, wire, bit: sub[tuple(bit if w == wire else slice(None) for w in rest)]
    source_wires = [w for w in rest if w != s]
    axes = [source_wires.index(src[w]) for w in rest if w != u]
    for f0, f1 in slices:
        np.copyto(tmp, f0)
        _copy_in_runs(at(f0, u, 0), at(tmp, s, 0), axes)
        _copy_in_runs(at(f0, u, 1), at(f1, s, 0), axes)
        np.copyto(at(tmp, s, 0), at(f1, s, 1))
        _copy_in_runs(at(f1, u, 0), at(tmp, s, 1), axes)
        _copy_in_runs(at(f1, u, 1), at(tmp, s, 0), axes)


def _copy_in_runs(dst: np.ndarray, src: np.ndarray, axes: Sequence[int]) -> None:
    """``np.copyto(dst, src.transpose(axes))`` on views of shape ``(2,) * k``.
    numpy walks dst in memory order, with an inner loop over the lowest axes
    that lie consecutive in both views (2 amplitudes when dst's lowest wire
    takes a far wire); a Python loop over j <= 3 of them lengthens it."""
    src = src.transpose(axes)
    strides = list(zip(dst.strides, src.strides))[::-1]  # lowest axis first
    # joins[i]: whether the i-th and (i+1)-th lowest axes lie consecutive in both
    # views; with the j lowest fixed, the inner loop has joins.index(False, j) - j + 1.
    joins = [hi == (2 * lo[0], 2 * lo[1]) for lo, hi in zip(strides, strides[1:])] + [False]
    j = max(range(min(3, dst.ndim - 1) + 1), key=lambda j: joins.index(False, j) - 2 * j)
    for bits in np.ndindex((2,) * j):
        np.copyto(dst[(..., *bits)], src[(..., *bits)])


def _run_on_support(
    state: StateVector, circuit: Circuit, labels: np.ndarray | None, marked: int
) -> StateVector:
    """Apply a circuit of the state's wire count in place: on the basis
    support ``labels``, or densely when None.

    ``labels`` needs an H-free circuit: :func:`apply_circuit_to_labels`
    maps them, then each amplitude moves once to its final label. The dense
    path runs the gates, slice exchanges and in-place permutations of
    :func:`_dense_steps`, which leave in place the slices where a
    ``marked`` wire reads 1; those must hold only zeros. A circuit with an
    H marks no wire: its sums would read the signs of the zeros left there.

    Both paths move every nonzero amplitude bit for bit as the gates one by
    one would. A zero, ``-0.0`` included, may stay put where the gates
    would move it: off the support, or where a marked wire reads 1. Both keep the bound:
    the label path raises it past the highest label it writes, the dense path to the prefix it writes.
    """
    if labels is None:
        for step in circuit.derived(_dense_steps, marked if circuit.is_permutation() else 0):
            if isinstance(step, Gate):
                apply_gate(state, step)
            else:
                _apply_map(state, step)
        return state
    moved = apply_circuit_to_labels(circuit, labels)
    amps = state._amps
    values = amps[labels]
    amps[labels] = 0.0
    amps[moved] = values
    state._live = max(state._live, int(moved.max(initial=-1)) + 1)
    return state


def run_circuit(
    state: StateVector, circuit: Circuit, checks: Iterable[tuple[Sequence[int], str]] = ()
) -> StateVector:
    """Apply a circuit's gates in order (in place), after its ``(wires, what)`` zero checks.

    Every pipeline runs its circuit here, and only here is the path
    chosen, from the circuit and its checks alone. A permutation circuit
    whose checks cover enough wires (3 at ``SUPPORT_PATH_MAX_SHARE`` = 1/8)
    runs on the basis support, gathered from their zero slice, the labels
    whose checked wires all read 0; every other circuit runs densely. A
    wire-count mismatch fails first, then a check wire off the state, then
    the checks, which one sweep answers before any gate runs.
    """
    instance(circuit, Circuit, "circuit")
    m = instance(state, StateVector, "state").num_wires
    if circuit.num_wires != m:
        raise PreconditionError(f"circuit has {circuit.num_wires} wires, state has {m}")
    checks = [_zero_check(check, m) for check in iterable(checks, "checks", "(wires, what) pairs")]
    checked = _wire_mask(w for wires, _ in checks for w in wires)
    _require_zero(state, checks)
    labels = None
    if circuit.is_permutation() and 2.0 ** -checked.bit_count() <= SUPPORT_PATH_MAX_SHARE:
        labels, _ = state.support(w for w in range(m) if not checked >> w & 1)
    return _run_on_support(state, circuit, labels, checked)


def _zero_check(check, num_wires: int) -> tuple[tuple[int, ...], str]:
    """A ``(wires, what)`` check of :func:`run_circuit`, its wires on the state."""
    if not isinstance(check, Sequence) or len(check) != 2:
        raise PreconditionError(f"check {check!r} is not a (wires, what) pair")
    wires, what = check
    return register_wires(wires, f"check {what!r}", num_wires), what


def _wire_mask(wires: Iterable[int]) -> int:
    return sum(1 << wire for wire in set(wires))


def _require_zero(state: StateVector, checks: Sequence[tuple[Sequence[int], str]]) -> None:
    """Raise PreconditionError naming the first ``(wires, what)`` check that
    some supported basis state violates by having a 1 on one of the wires.

    One sweep over every checked wire answers all the checks; only when it
    finds a 1 do the checks run one by one, to name the first that fails.
    """
    if _has_one(state, [w for wires, _ in checks for w in wires]):
        for wires, what in checks:
            if _has_one(state, wires):
                raise PreconditionError(f"{what} must be zero on every supported basis state")


def _has_one(state: StateVector, wires: Sequence[int]) -> bool:
    """Whether a supported label has a 1 on one of ``wires``, by a sweep of
    the disjoint slices where one wire reads 1 and the wires above it 0,
    which reads each amplitude of the live prefix off the zero slice once;
    a wire above the prefix reads 0 unread. As in ``np.flatnonzero``,
    ``-0.0`` is zero."""
    k = state._span(1)
    t, top = state._tensor(k), sorted({w for w in wires if w < k}, reverse=True)
    slices = (_slice_index(k, top[:i + 1], 1 << w) for i, w in enumerate(top))
    return any(_nonzero(t[idx]) for idx in slices)


def _nonzero(x: np.ndarray) -> bool:
    """``x.any()``; a zero max of a contiguous slice's words is 2x faster (strided: slower)."""
    if x.ndim and x.flags.c_contiguous and not x.view(np.uint64).max():
        return False
    return bool(x.any())


@dataclass(frozen=True, repr=False)
class RegisterLayout:
    """Named, disjoint wire segments covering all wires of a state.

    Segment order is the declaration order; it fixes the display order of
    bitstrings (each segment printed MSB-first, slot 1 being the LSB). A layout is
    a frozen value, equal and hashed by ``segments``, its ``(name, wires)`` tuples.
    """

    segments: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        named: dict[str, tuple[int, ...]] = {}
        for segment in iterable(self.segments, "segments", "(str, wires) pairs"):
            if not isinstance(segment, Sequence) or len(segment) != 2 or not isinstance(segment[0], str):
                raise PreconditionError(f"segment {segment!r} is not a (str, wires) pair")
            name, wires = segment
            wires = register_wires(wires, f"segment {name!r}")
            if not wires:
                raise PreconditionError(f"segment {name!r} is empty")
            if name in named:
                raise PreconditionError(f"duplicate segment {name!r}")
            named[name] = wires
        if not named:
            raise PreconditionError("layout needs at least one segment")
        disjoint(named)
        # Display order: segments in declaration order, each MSB-first.
        display = tuple(wire for wires in named.values() for wire in reversed(wires))
        if set(display) != set(range(len(display))):
            raise PreconditionError("segments must cover wires 0..m-1 exactly")
        for attr, value in (("segments", tuple(named.items())), ("_wires", named), ("segment_names", tuple(named)),
                            ("display_wires", display), ("num_wires", len(display))):
            object.__setattr__(self, attr, value)

    @classmethod
    def packed(cls, widths: Iterable[tuple[str, int]]) -> "RegisterLayout":
        """One segment per ``(name, width)`` pair, in order, on consecutive wires from wire 0."""
        segments, pos = [], 0
        for pair in iterable(widths, "widths", "(name, width) pairs"):
            if not isinstance(pair, Sequence) or len(pair) != 2:
                raise PreconditionError(f"segment {pair!r} is not a (name, width) pair")
            name, width = pair
            width = integer(width, f"segment {name!r} width")
            segments.append((name, range(pos, pos + width)))
            pos += width
        return cls(segments)

    def has_segment(self, name: str) -> bool:
        try:
            return name in self._wires
        except TypeError:  # an unhashable name
            return False

    def wires(self, name: str) -> tuple[int, ...]:
        """Wires of a segment in slot order (slot 1 first)."""
        try:
            return self._wires[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise PreconditionError(f"unknown segment {name!r}") from None

    def width(self, name: str) -> int:
        return len(self.wires(name))

    def value(self, label: int, name: str) -> int:
        """Integer held by a segment within a basis label."""
        return int(self.values([basis_label(label, self.num_wires)], name)[0])

    def values(self, labels: np.ndarray, name: str) -> np.ndarray:
        """Vectorized :meth:`value` over an array of labels."""
        labels = basis_labels(labels, self.num_wires)
        out = np.zeros_like(labels)
        for slot, wire in enumerate(self.wires(name)):
            out |= ((labels >> wire) & 1) << slot
        return out

    def label_with_value(self, label: int, name: str, value: int) -> int:
        """Label with one segment replaced by an integer value."""
        wires, label, value = self.wires(name), basis_label(label, self.num_wires), integer(value, "value")
        if not 0 <= value < (1 << len(wires)):
            raise PreconditionError(f"value {value} does not fit segment {name!r}")
        for slot, wire in enumerate(wires):
            label &= ~(1 << wire)
            label |= ((value >> slot) & 1) << wire
        return label

    def display_label(self, label: int) -> str:
        """Bitstring for a label: one character per wire of ``display_wires``."""
        label = basis_label(label, self.num_wires)
        return "".join("1" if (label >> wire) & 1 else "0" for wire in self.display_wires)

    def label_from_display(self, bits: str) -> int:
        if len(instance(bits, str, "bitstring")) != self.num_wires or set(bits) - {"0", "1"}:
            raise PreconditionError(
                f"bitstring {bits!r} is not {self.num_wires} bits"
            )
        label = 0
        for bit, wire in zip(bits, self.display_wires):
            if bit == "1":
                label |= 1 << wire
        return label

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={list(w)}" for n, w in self.segments)
        return f"RegisterLayout({inner})"


def segment_value_distribution(
    state: StateVector, layout: RegisterLayout, name: str
) -> dict[int, float]:
    """Marginal probability of each integer value of one segment.

    Values with exactly zero probability are omitted; the returned
    probabilities sum to 1 within 1e-12.
    """
    check_layout_on_state(state, layout)
    width = layout.width(name)
    labels, amps = state.support()
    # Zero amplitudes would only add exact zeros, so the support gives the
    # same sums in the same order as all 2**m labels.
    probs = np.abs(amps) ** 2
    marg = np.bincount(layout.values(labels, name), weights=probs, minlength=1 << width)
    return {int(v): float(p) for v, p in enumerate(marg) if p > 0.0}


class ProductCheck(NamedTuple):
    is_product: bool
    schmidt_rank: int


def schmidt_rank(state: StateVector, cut: Iterable[int], tol: float = SCHMIDT_TOL) -> int:
    """Number of singular values above ``tol`` across the given bipartition."""
    m, tol = instance(state, StateVector, "state").num_wires, tolerance(tol, "Schmidt tolerance")
    cut_set = set(register_wires(cut, "cut", m))
    if not 0 < len(cut_set) < m:
        raise PreconditionError("cut must be a nonempty proper subset of the wires")
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
