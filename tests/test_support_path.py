"""Engine agreement and the support path.

``assert_engines_agree`` runs each generator's circuit, state and zero
checks on every engine: ``apply_gate`` gate by gate, the fused dense maps
with and without a live-prefix bound, the label path, the plane kernel and
the scalar label kernel; a new engine joins as one row. The other tests
pin the path rule, scans, step shapes and peak memory.
"""

import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshift import (
    Circuit,
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    PreconditionError,
    RegisterLayout,
    ShiftSpec,
    StateVector,
    add,
    adder_gates,
    apply_circuit_to_label,
    apply_gate,
    build_multiply_by_constant_circuit,
    build_multiply_registers_circuit,
    build_shift_circuit,
    extended_addend,
    mul_const_layout,
    mul_quantum_layout,
    multiply_by_constant,
    multiply_registers,
    rotate,
    run_circuit,
    segment_value_distribution,
    select_qubit,
    shift,
    shift_layout,
    state_to_text,
)
from qshift import arithmetic, state as state_module
from qshift.cli import prepare_state
from qshift.gates import GATE_ARITY, apply_circuit_to_labels
from qshift.shift_register import shift_cascade
from qshift.state import (
    SUPPORT_PATH_MAX_SHARE,
    _dense_steps,
    _Map,
    _run_on_support,
    _wire_mask,
)
from conftest import holding, register_multiplications

PERMUTATION_KINDS = ("X", "CNOT", "SWAP", "TOFFOLI", "CSWAP")


def _bits(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.view(np.uint64)


@contextmanager
def _observed_runs():
    """Record ``(caller, circuit, labels)`` for each run that reaches
    ``state._run_on_support``: ``labels`` is the support it runs on, or None
    on the dense path."""
    runs = []
    run = state_module._run_on_support

    def spy(state, circuit, labels, marked):
        runs.append((sys._getframe(1).f_code.co_name, circuit, labels))
        return run(state, circuit, labels, marked)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_run_on_support", spy)
        yield runs


@contextmanager
def _counted_scans():
    """Record the state of each ``StateVector.nonzero_labels`` call."""
    scanned = []
    scan = StateVector.nonzero_labels

    def spy(self):
        scanned.append(self)
        return scan(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StateVector, "nonzero_labels", spy)
        yield scanned


@st.composite
def permutation_cases(draw):
    """A random permutation circuit; zero checks on 0 to m random wires,
    split into up to four groups; and a state on part of the checks' zero
    slice. Half the time one label that violates a check is added, half of
    those in the sweep's smallest slice (the lowest checked wire reads 1,
    the other checked wires 0). Some labels off the support, checked wires
    set or not, hold -0.0. A generator seeded by hypothesis draws the
    gates, the support and its amplitudes, which is much faster than
    drawing each gate through hypothesis."""
    m = draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = [PERMUTATION_KINDS[i] for i in rng.integers(len(PERMUTATION_KINDS), size=rng.integers(0, 31))]
    circuit = Circuit(m, [Gate(kind, _wires(rng, m, GATE_ARITY[kind])) for kind in kinds])
    checked = draw(st.permutations(range(m)))[: draw(st.integers(0, m))]
    bounds = [0, *sorted(draw(st.lists(st.integers(0, len(checked)), max_size=3))), len(checked)]
    checks = [(tuple(checked[i:j]), f"check {n}") for n, (i, j) in enumerate(zip(bounds, bounds[1:]))]
    mask = sum(1 << w for w in checked)
    pool = [label for label in range(2**m) if not label & mask]
    size = draw(st.integers(1, len(pool)))
    support = list(rng.choice(pool, size=size, replace=False))
    if checked and draw(st.booleans()):
        if draw(st.booleans()):
            support.append(1 << min(checked) | int(rng.choice(pool)))
        else:
            support.append(int(rng.choice([label for label in range(2**m) if label & mask])))
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    amps /= np.linalg.norm(amps)
    off = np.flatnonzero(amps == 0)
    amps[off[rng.random(off.size) < draw(st.floats(0.0, 1.0))]] = complex(-0.0, -0.0)
    return circuit, StateVector(amps), checks


def _gate_by_gate(state, circuit):
    for gate in circuit:
        apply_gate(state, gate)
    return state


def _twin(state):
    """A copy of ``state`` bounded at the whole buffer: every step runs on the whole array."""
    return holding(state._amps)


def _bounded(state):
    """A copy of ``state`` under its tightest bound, one past the last label that holds a nonzero bit."""
    out = _twin(state)
    out._live = int(np.flatnonzero(_bits(state._amps).reshape(-1, 2).any(axis=1)).max(initial=-1)) + 1
    return out


def _moved(state, labels, images):
    """The amplitudes on ``labels`` moved to ``images``, with zeros elsewhere."""
    amps = np.zeros_like(state.amplitudes)
    amps[images] = state.amplitudes[labels]
    return amps


def assert_engines_agree(circuit, state, checks=()):
    """Assert that every engine runs ``circuit`` on a copy of ``state`` as
    ``apply_gate`` does gate by gate on a handed-out twin: equal as values
    (a zero may be -0.0) and bit for bit on the reference's nonzero labels,
    or everywhere on the dense path and ``run_circuit`` with no checked
    wire, and on ``run_circuit`` where it runs the label path. The dense
    path under the tightest bound equals it with none bit for bit
    everywhere. If ``state`` violates a ``(wires, what)`` check,
    ``run_circuit`` on either path must instead name the first violated
    one, run no path and leave the state untouched.
    Returns the runs and scans of its ``run_circuit`` calls, as
    ``_observed_runs`` and ``_counted_scans`` record them."""
    labels = state.nonzero_labels()
    # The first check in order that a supported label violates, as a scan of the support finds it.
    failed = next((what for wires, what in checks if np.any(labels & _wire_mask(wires))), None)
    with _observed_runs() as runs, _counted_scans() as scans:
        if failed is None:
            ran = run_circuit(state.copy(), circuit, checks).amplitudes
        else:
            for share in (0.0, 1.0):  # the dense path, then the support path
                checked = state.copy()
                with pytest.MonkeyPatch.context() as patch, pytest.raises(PreconditionError) as excinfo:
                    patch.setattr(state_module, "SUPPORT_PATH_MAX_SHARE", share)
                    run_circuit(checked, circuit, checks)
                assert str(excinfo.value) == f"{failed} must be zero on every supported basis state"
                assert np.array_equal(_bits(checked.amplitudes), _bits(state.amplitudes))
    if failed is not None:
        assert runs == []
        return runs, scans
    ((_, _, path),) = runs
    marked = _wire_mask(w for wires, _ in checks for w in wires)
    rows = {
        "dense": _run_on_support(_twin(state), circuit, None, marked).amplitudes,
        "bounded": _run_on_support(_bounded(state), circuit, None, marked).amplitudes,
        "run_circuit": ran,
    }
    if circuit.is_permutation():
        rows["labels"] = _run_on_support(state.copy(), circuit, labels, marked).amplitudes
        rows["plane kernel"] = _moved(state, labels, apply_circuit_to_labels(circuit, labels))
        if labels.size <= 1024:  # a Python loop per label
            images = [apply_circuit_to_label(circuit, int(label)) for label in labels]
            rows["label by label"] = _moved(state, labels, images)
    reference = _gate_by_gate(_twin(state), circuit)
    want, nonzero = reference.amplitudes, reference.nonzero_labels()
    for name, got in rows.items():
        at = slice(None) if not marked and name in ("dense", "bounded", "run_circuit") else nonzero
        assert np.array_equal(got, want), name
        assert np.array_equal(_bits(got[at]), _bits(want[at])), name
    assert np.array_equal(_bits(rows["bounded"]), _bits(rows["dense"]))
    if path is not None:
        assert np.array_equal(_bits(ran), _bits(rows["labels"]))
    return runs, scans


@settings(max_examples=200, deadline=None)
@given(permutation_cases())
def test_support_path_matches_dense_and_label_kernels(case):
    circuit, state, checks = case
    runs, scans = assert_engines_agree(circuit, state, checks)
    # The checks are answered by the sweep, with no scan.
    assert scans == []
    for _, _, path in runs:
        # Checks on three wires or more pin the support to their zero slice;
        # gathered from it, the support is the scanned one.
        pinned = len({w for wires, _ in checks for w in wires}) >= 3
        assert (path is not None) == pinned
        assert not pinned or np.array_equal(path, state.nonzero_labels())


@settings(max_examples=40, deadline=None)
@given(register_multiplications())
def test_multiply_registers_on_random_layouts_matches_integer_product(case):
    spec, layout, seed = case
    rng = np.random.default_rng(seed)
    pairs = [(a, c) for a in range(1 << spec.a_width) for c in range(1 << spec.c_width)]
    amps = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
    amps /= np.linalg.norm(amps)
    state = StateVector.from_label(layout.num_wires, 0)
    state.amplitudes[0] = 0.0
    for (a, c), amp in zip(pairs, amps):
        label = layout.label_with_value(layout.label_with_value(0, "A", a), "C", c)
        state.amplitudes[label] = amp
    multiply_registers(state, spec, layout)
    out = state.nonzero_labels()
    assert out.size == len(pairs)
    # Seed-drawn amplitudes are distinct, so each names its input branch.
    branch = {complex(amp): pair for pair, amp in zip(pairs, amps)}
    shifted_a = extended_addend(layout.wires("A"), layout.wires("ancA"), spec.c_width - 1)
    for label in out:
        label = int(label)
        a, c = branch[complex(state.amplitudes[label])]
        assert layout.value(label, "B") == a * c
        shifted = sum(((label >> w) & 1) << slot for slot, w in enumerate(shifted_a))
        assert shifted == a << (spec.c_width - 1)
        assert layout.value(label, "c") == 0
        if spec.b_width > 1:
            assert layout.value(label, "carry") == 0


@st.composite
def multiplier_layouts(draw):
    """The canonical layout of a valid MulConstSpec or MulQuantumSpec, and its factor segments."""
    width = st.integers(1, 12)
    if draw(st.booleans()):
        a_ancilla = draw(width)
        multiplier = draw(st.integers(0, 2 ** (a_ancilla + 1) - 1))
        return mul_const_layout(MulConstSpec(draw(width), a_ancilla, draw(width), multiplier)), ("A",)
    a_width, c_width = draw(width), draw(width)
    ancilla = st.integers(max(1, c_width - 1), c_width + 4)
    b_width = draw(st.integers(a_width + c_width, a_width + c_width + 4))
    spec = MulQuantumSpec(a_width, draw(ancilla), c_width, draw(ancilla), b_width)
    return mul_quantum_layout(spec), ("A", "C")


@settings(max_examples=200, deadline=None)
@given(multiplier_layouts())
def test_valid_multiplier_inputs_fit_the_support_path(case):
    # Every segment but the factors must be zero, so a valid input's
    # support holds at most 2**(factor wires) labels: run_circuit runs every
    # valid multiplier input on the support path.
    layout, factors = case
    factor_wires = sum(layout.width(name) for name in factors)
    assert 2**factor_wires <= SUPPORT_PATH_MAX_SHARE * 2**layout.num_wires


def _reordered(layout):
    """The layout's segments in reverse order, each on mirrored wires."""
    m = layout.num_wires
    return RegisterLayout(
        [(name, [m - 1 - w for w in layout.wires(name)]) for name in reversed(layout.segment_names)]
    )


def _pipeline_runs():
    """Each pipeline as (run, layout, the gates it must run): the gates come
    from its circuit builder where it has one."""
    lay = shift_layout(3, 2)
    a, b, c = lay.wires("a"), lay.wires("b"), lay.wires("c")[0]
    adder = RegisterLayout([("A", range(2)), ("B", range(2, 5)), ("carry", range(5, 7)), ("ctl", [7])])
    wires = [adder.wires(name) for name in ("A", "B", "carry")]
    const, registers = MulConstSpec(2, 1, 3, 0b11), MulQuantumSpec(1, 1, 2, 1, 3)
    runs = {}
    for direction in ("left", "right"):
        passes = list(build_shift_circuit(ShiftSpec(3, 2, direction)))
        runs[f"shift {direction}"] = (lambda s, lay, d=direction: shift(s, lay, d), lay, passes)
        runs[f"rotate {direction}"] = (
            lambda s, lay, d=direction: rotate(s, lay, d), lay, [Gate.x(c), *passes, Gate.x(c)]
        )
    runs["select_qubit"] = (
        lambda s, lay: select_qubit(s, lay, "b", 3, ancilla="a"), lay,
        shift_cascade(a, b, c, "right") * 2,
    )
    runs["add"] = (
        lambda s, lay: add(s, lay, "A", "B", "carry"), adder,
        adder_gates(*wires),
    )
    runs["add with a control"] = (
        lambda s, lay: add(s, lay, "A", "B", "carry", control=lay.wires("ctl")[0]), adder,
        adder_gates(*wires, control=adder.wires("ctl")[0]),
    )
    for name, layout in (("canonical", mul_const_layout(const)),
                         ("reordered", _reordered(mul_const_layout(const)))):
        runs[f"multiply_by_constant {name}"] = (
            lambda s, lay: multiply_by_constant(s, const, lay), layout,
            list(build_multiply_by_constant_circuit(const, layout)),
        )
    for name, layout in (("canonical", mul_quantum_layout(registers)),
                         ("reordered", _reordered(mul_quantum_layout(registers)))):
        runs[f"multiply_registers {name}"] = (
            lambda s, lay: multiply_registers(s, registers, lay), layout,
            list(build_multiply_registers_circuit(registers, layout)),
        )
    runs["prepare_state uniform b"] = (
        lambda s, lay: prepare_state("uniform b", lay), lay, [Gate.h(w) for w in b]
    )
    return runs


_PIPELINE_RUNS = _pipeline_runs()


@pytest.mark.parametrize("pipeline", sorted(_PIPELINE_RUNS))
def test_every_pipeline_runs_its_circuit_once_through_run_circuit(pipeline):
    run, layout, gates = _PIPELINE_RUNS[pipeline]
    with _observed_runs() as runs:
        run(StateVector.from_label(layout.num_wires, 0), layout)
    ((caller, circuit, _),) = runs
    assert caller == "run_circuit"
    # The same gates in the same order, so the same counts() too.
    assert circuit.num_wires == layout.num_wires and list(circuit) == gates


@pytest.mark.parametrize("pipeline", sorted(_PIPELINE_RUNS))
def test_no_pipeline_scans(pipeline):
    # The path follows from the circuit and its checks: a multiplier's
    # checks cover at least 3 wires, so its support is gathered from their
    # zero slice; shift, rotate and the adders check fewer and run densely.
    run, layout, _ = _PIPELINE_RUNS[pipeline]
    state = StateVector.from_label(layout.num_wires, 0)
    with _counted_scans() as scans:
        run(state, layout)
    assert scans == []


def test_whole_support_reads_scan_once_and_slices_not_at_all():
    # The whole support is one nonzero_labels call, which the benchmark's
    # tracer counts; a wire slice is gathered with no scan.
    layout = RegisterLayout.packed([("q", 6)])
    state = StateVector.from_label(6, 0b100101)
    with _counted_scans() as scans:
        state_to_text(state, layout)
        segment_value_distribution(state, layout, "q")
    assert scans == [state, state]
    with _counted_scans() as scans:
        labels, _ = state.support([5, 2, 0])
    assert scans == [] and labels.tolist() == [0b100101]


@pytest.mark.parametrize("permutes", [True, False])
def test_run_circuit_refuses_check_wires_off_the_state(permutes):
    state = StateVector.from_label(8, 1 << 4)
    # Off-state check wires are refused before the path is chosen, whether
    # the circuit permutes labels or holds an H.
    circuit = Circuit(8, [] if permutes else [Gate.h(0)])
    cases = [
        (12, "check 'probe' wire 12 is off the state's 8 wires"),
        (1.0, "check 'probe' wire 1.0 is not an integer"),
        (-4, "check 'probe' wire -4 is off the state's 8 wires"),
    ]
    for wire, message in cases:
        with pytest.raises(PreconditionError) as excinfo:
            run_circuit(state, circuit, [((0, wire), "probe")])
        assert str(excinfo.value) == message
        assert state.amplitude(1 << 4) == 1


def _wires(rng, m, count):
    return [int(w) for w in rng.permutation(m)[:count]]


def _controlled_run(rng, m, controls):
    """A run of SWAP, CSWAP and X gates: CSWAPs on any of the control
    wires (1-3 drawn ones when ``controls`` is empty) and SWAPs on the other
    wires, with X pairs on controls inserted around parts of the run, and
    sometimes an odd X on a control or a SWAP that moves one."""
    wires = _wires(rng, m, m)
    if not controls:
        controls = wires[:rng.integers(1, min(3, m - 2) + 1)]
    others = [w for w in wires if w not in controls]
    control = lambda: int(rng.choice(controls))
    run = []
    for _ in range(rng.integers(1, 11)):
        pair = [int(w) for w in rng.choice(others, 2, replace=False)]
        run.append(Gate.swap(*pair) if rng.integers(2) else Gate.cswap(control(), *pair))
    inserts = []
    for _ in range(rng.integers(0, 3)):
        inserts += [Gate.x(control())] * 2
    if rng.integers(4) == 0:
        inserts.append(Gate.x(control()))
    if rng.integers(4) == 0:
        inserts.append(Gate.swap(control(), int(rng.choice(others))))
    for extra in inserts:
        run.insert(rng.integers(len(run) + 1), extra)
    return run


@st.composite
def swap_run_circuits(draw):
    """A circuit made mostly of SWAP runs (random pairs, one pair repeated,
    or a cascade over every wire) and controlled runs, broken by single X,
    CNOT, TOFFOLI, CSWAP or H gates and X gates on marked wires; 0-3 marked
    wires, which the controlled runs use as controls; and a state
    with -0.0 on some labels and parts, and on every label where a marked
    wire reads 1. Hypothesis draws a seed and the share of zero labels; a
    generator seeded with it draws the rest, which is much faster than
    drawing each gate through hypothesis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.floats(0.0, 1.0))
    m = int(rng.integers(1, 11))
    marked = _wires(rng, m, rng.integers(0, max(0, min(3, m - 2)) + 1))

    def gate(kind):
        return Gate(kind, _wires(rng, m, GATE_ARITY[kind]))

    def cascade():
        order = _wires(rng, m, m)
        return [Gate.swap(a, b) for a, b in zip(order, order[1:])]

    pieces = [lambda kind=kind: [gate(kind)]
              for kind in ("X", "CNOT", "TOFFOLI", "CSWAP", "H") if GATE_ARITY[kind] <= m]
    if marked:
        pieces.append(lambda: [Gate.x(int(rng.choice(marked)))])
    if m >= 2:
        run = lambda: [gate("SWAP") for _ in range(rng.integers(1, 13))]
        pieces += [
            run,
            run,  # twice, to weight the draws toward SWAP runs
            lambda: [gate("SWAP")] * int(rng.integers(2, 5)),
            cascade,
            lambda: cascade()[::-1],
        ]
    if m >= 3:
        pieces += [lambda: _controlled_run(rng, m, marked)] * 2
    circuit = Circuit(m, [g for _ in range(rng.integers(0, 9)) for g in pieces[rng.integers(len(pieces))]()])
    amps = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    zero_imag = rng.random(2**m) < 0.3
    zero = (rng.random(2**m) < zero_share) | (np.arange(2**m) & _wire_mask(marked) != 0)
    zero_imag[0] = zero[0] = False
    amps.imag[zero_imag] = 0.0
    amps[zero] = 0.0
    amps[0] = 1.0
    amps /= np.linalg.norm(amps)  # first: the complex divide drops the sign of some zero parts
    amps.imag[zero_imag] = -0.0
    amps[zero] = complex(-0.0, -0.0)
    return circuit, StateVector(amps), marked


@settings(max_examples=300, deadline=None)
@given(swap_run_circuits())
def test_fused_dense_path_matches_gate_by_gate(case):
    circuit, state, wires = case
    assert_engines_agree(circuit, state, [(wires, "marked wires")])
    marked = _wire_mask(wires)
    # Each map is one step, which moves or flips something and keeps its
    # fixed wires, all marked, in place. Moving it is at most one
    # permutation, which fixes a marked wire or keeps the top wire in place,
    # so its temporary, half the slice it permutes, holds at most 2**(m-2)
    # amplitudes; two wires or fewer would be a slice exchange, which is cheaper.
    m = circuit.num_wires
    mapped = False  # whether the current stretch between gates has a map
    for step in _dense_steps(circuit, marked):
        if isinstance(step, Gate):  # maps are separated by other gates
            mapped = False
            continue
        assert type(step) is _Map and not mapped
        mapped = True
        assert sorted(step.src) == list(range(m))
        assert all(marked >> w & 1 and step.src[w] == w for w in step.fixed)
        assert step.flips or step.src != tuple(range(m))
        assert step.end == 1 + max(w for w in range(m) if step.src[w] != w or step.flips >> w & 1)
        # Each flip is a one-wire exchange after the wires have moved.
        moves = _moves(step, m)
        flips = [("exchange", (w,), 0, 1 << w) for w in range(m) if step.flips >> w & 1]
        moves, tail = moves[: len(moves) - len(flips)], moves[len(moves) - len(flips):]
        assert tail == flips and sum(move[0] == "permute" for move in moves) <= 1
        for move in moves:
            if move[0] == "exchange":
                assert len(move[1]) >= 2
            else:
                _, fixed, src = move
                assert fixed == step.fixed and (fixed or src[m - 1] == m - 1)
                assert sum(w != v for v, w in enumerate(src)) >= 3


def _left_kinds(circuit, marked):
    """Kinds of the gates that the dense path still runs one by one."""
    return [step.kind for step in _dense_steps(circuit, marked) if isinstance(step, Gate)]


def _fixes_to_zero(step, wire):
    """Whether a compiled step leaves alone every label where ``wire`` reads 1;
    a gate does not, and neither does a map that flips a wire."""
    return isinstance(step, _Map) and wire in step.fixed and not step.flips


def _moves(step, m):
    """The kernel calls, in order, that ``_apply_map`` makes for ``step``
    on ``m`` wires: ``("exchange", wires, a, b)`` or ``("permute", fixed, src)``."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "_apply_exchange", lambda t, *args: calls.append(("exchange", *args)))
        patch.setattr(state_module, "_apply_permute", lambda state, *args: calls.append(("permute", *args)))
        state_module._apply_map(StateVector.from_label(m, 0), step)
    return calls


def test_runs_compile_only_when_their_controls_stay_put():
    m = 7
    swaps = [Gate.swap(0, 1), Gate.swap(1, 2), Gate.swap(2, 3)]
    cswaps_on_6 = [Gate.x(6), *swaps, Gate.cswap(6, 0, 1), Gate.x(6), Gate.cswap(6, 2, 4), Gate.x(6), Gate.x(6)]
    cswaps_on_5_6 = [Gate.cswap(5, 0, 1), *swaps, Gate.cswap(6, 3, 4), Gate.x(5), Gate.x(5)]
    cswaps_on_4_5_6 = [Gate.cswap(4, 0, 1), *swaps, Gate.cswap(5, 0, 2), Gate.cswap(6, 1, 2)]
    # (gates, marked wires, the gates left to run alone)
    cases = [
        # CSWAPs on marked controls, with X pairs on them: one map.
        (cswaps_on_6, {6}, []),
        (cswaps_on_5_6, {5, 6}, []),
        (cswaps_on_4_5_6, {4, 5, 6}, []),
        (swaps, set(), []),
        # An unmarked CSWAP or X runs alone; the SWAPs between them still compose.
        (cswaps_on_6, set(), ["X", "CSWAP", "X", "CSWAP", "X", "X"]),
        (cswaps_on_5_6, {6}, ["CSWAP", "X", "X"]),
        # An unpaired X on a marked wire is one of the map's flips.
        ([Gate.x(6), *swaps, Gate.cswap(6, 0, 1)], {6}, []),
        ([Gate.x(6), *swaps, Gate.x(6), Gate.x(6)], {6}, []),
        # Once its map has run, its wire reads 1 and is no longer marked.
        ([Gate.x(6), Gate.cnot(0, 1), Gate.cswap(6, 2, 3), *swaps], {6}, ["CNOT", "CSWAP"]),
        # A gate that writes a marked wire unmarks it, and so does a swap that moves one.
        ([Gate.cnot(0, 6), Gate.cswap(6, 1, 2)], {6}, ["CNOT", "CSWAP"]),
        ([Gate.h(6), Gate.x(6)], {6}, ["H", "X"]),
        ([Gate.swap(6, 5), *swaps, Gate.cswap(6, 0, 1)], {6}, ["CSWAP"]),
        ([Gate.cswap(6, 0, 1), Gate.cswap(1, 6, 2), *swaps, Gate.cswap(6, 3, 4)], {6}, ["CSWAP", "CSWAP"]),
        # One that only reads it does not.
        ([Gate.cnot(6, 0), Gate.cswap(6, 1, 2)], {6}, ["CNOT"]),
    ]
    rng = np.random.default_rng(1)
    for gates, wires, left in cases:
        circuit, marked = Circuit(m, gates), sum(1 << w for w in wires)
        assert _left_kinds(circuit, marked) == left
        state = _state_on(m, [label for label in range(2**m) if not label & marked], rng)
        assert_engines_agree(circuit, state, [(wires, "marked wires")])
    (step,) = _dense_steps(Circuit(m, [Gate.x(6), *swaps, Gate.cswap(6, 0, 1)]), 1 << 6)
    assert step.fixed == (6,) and step.flips == 1 << 6
    assert _moves(step, m)[-1] == ("exchange", (6,), 0, 1 << 6)
    # A map that moves three or more wires is one permutation of the slice
    # where the marked wires read 0.
    (step,) = _dense_steps(Circuit(m, cswaps_on_5_6), 0b1100000)
    assert type(step) is _Map and step.fixed == (5, 6)
    assert [move[:2] for move in _moves(step, m)] == [("permute", (5, 6))]
    (step,) = _dense_steps(Circuit(m, cswaps_on_4_5_6), 0b1110000)
    assert type(step) is _Map and step.fixed == (4, 5, 6)
    assert [move[:2] for move in _moves(step, m)] == [("permute", (4, 5, 6))]
    # A permutation of two wires is a slice exchange, and so is a swap peeled
    # off, with no marked wire, to keep the top wire in place.
    (split,) = _dense_steps(Circuit(4, [Gate.swap(0, 1), Gate.swap(2, 3)]), 0)
    assert _moves(split, 4) == [("exchange", (0, 1), 0b0001, 0b0010), ("exchange", (3, 2), 0b1000, 0b0100)]
    (step,) = _dense_steps(Circuit(m, [Gate.swap(0, 1), Gate.swap(1, 2), Gate.swap(0, 1)]), 0)
    assert _moves(step, m) == [("exchange", (0, 2), 1, 4)]
    (step,) = _dense_steps(Circuit(m, [Gate.x(6), Gate.cswap(6, 0, 1), Gate.x(6)]), 1 << 6)
    assert step == _Map((6,), (1, 0, 2, 3, 4, 5, 6), 0, 2) and _moves(step, m) == [("exchange", (6, 0, 1), 1, 2)]
    # Maps that compose to the identity leave no step.
    assert _dense_steps(Circuit(m, [Gate.swap(0, 1), Gate.swap(1, 2)] * 3), 0) == []
    assert _dense_steps(Circuit(m, [Gate.x(6), Gate.cswap(6, 0, 1), Gate.x(6)] * 2), 1 << 6) == []
    assert _dense_steps(Circuit(m, [Gate.cswap(6, 0, 1)]), 1 << 6) == []


def test_a_circuit_with_an_h_leaves_no_zero_in_place():
    # H(0) leaves zeros of both signs where the checked wire 2 reads 1, the
    # CSWAP trades them, and H(2) adds them to the -0.0 imaginary parts of
    # negative real amplitudes: a zero left in place would flip those parts' signs.
    amps = np.array([-0.1, -0.3, -0.5, -0.7, 0, 0, 0, 0], dtype=np.complex128)
    amps /= np.linalg.norm(amps)
    amps.imag[:4] = -0.0
    amps[4:] = complex(-0.0, -0.0)
    circuit = Circuit(3, [Gate.h(0), Gate.cswap(2, 0, 1), Gate.h(2)])
    assert_engines_agree(circuit, StateVector(amps), [((2,), "checked wire")])


def test_shift_passes_fuse_their_swap_cascades():
    layout = shift_layout(10, 5)
    m, c = layout.num_wires, layout.wires("c")[0]
    left = shift_cascade(layout.wires("a"), layout.wires("b"), c)
    rotate_left = [Gate.x(c), *left, Gate.x(c)]
    passes = [left, left[::-1], rotate_left, rotate_left[::-1], left[::-1] * 3]
    for gates in passes:
        # With c marked, no gate is left: the pass, and three right passes
        # in one map, is one permutation of the slice where c reads 0. It
        # writes every wire below c, the top wire.
        (step,) = _dense_steps(Circuit(m, gates), 1 << c)
        assert step == _Map((c,), step.src, 0, c) and c == m - 1 and _fixes_to_zero(step, c)
        assert [move[:2] for move in _moves(step, m)] == [("permute", (c,))]
    # With no marked wire, a map of three wires that moves the top one
    # leaves two moved wires once a swap is peeled off: slice exchanges only.
    (step,) = _dense_steps(Circuit(3, [Gate.swap(0, 1), Gate.swap(1, 2)]), 0)
    assert step == _Map((), (1, 2, 0), 0, 3)
    assert _moves(step, 3) == [
        ("exchange", (0, 1), 0b001, 0b010),
        ("exchange", (2, 1), 0b100, 0b010),
    ]


def test_checked_passes_leave_the_c1_slice_alone(monkeypatch):
    layout = shift_layout(12, 7)
    m, c = layout.num_wires, layout.wires("c")[0]
    runs = []
    dense_steps = state_module._dense_steps
    monkeypatch.setattr(state_module, "_dense_steps", lambda *args: runs.append(dense_steps(*args)) or runs[-1])
    monkeypatch.setattr(state_module, "SUPPORT_PATH_MAX_SHARE", 0.0)
    state = _select_qubit_input(layout, 4, np.random.default_rng(2))
    for run in (shift, rotate):
        for direction in ("left", "right"):
            run(state, layout, direction)
    select_qubit(state, layout, "b", 4, ancilla="a")
    assert len(runs) == 5 and all(_fixes_to_zero(step, c) for steps in runs for step in steps)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rotating", [False, True])
def test_fused_pass_peak_memory_at_most_gate_by_gate(rotating, monkeypatch):
    layout = shift_layout(10, 5)
    m, c = layout.num_wires, layout.wires("c")[0]
    state = StateVector.from_label(m, 0)
    rng = np.random.default_rng(5)
    state.amplitudes[: 1 << c] = rng.normal(size=1 << c) / np.sqrt(1 << c)
    reference = state.copy()
    run_pass = lambda s: (rotate if rotating else shift)(s, layout)
    fused = _peak_bytes(lambda: run_pass(state))
    # The largest temporary is one chunk of 2**(m-2) amplitudes; the rest
    # of the peak is the pass's few small objects.
    assert fused < 2 ** (m - 2) * state.amplitudes.itemsize * 1.125
    # The same pass, with the same checks, but every gate applied alone.
    monkeypatch.setattr(state_module, "_dense_steps", lambda circuit, marked: list(circuit))
    assert fused <= _peak_bytes(lambda: run_pass(reference))
    assert np.array_equal(_bits(state.amplitudes), _bits(reference.amplitudes))


@pytest.mark.parametrize("seed", range(4))
def test_unchecked_swap_network_moving_the_top_wire_matches_gate_by_gate(seed):
    # With no marked wire, a swap is peeled off to keep the top wire in
    # place, and each half of it is permuted through a quarter-array temporary.
    m = 16
    rng = np.random.default_rng(seed)
    gates = [Gate.swap(*map(int, rng.choice(m, 2, replace=False))) for _ in range(3 * m)]
    gates.append(Gate.swap(m - 1, int(rng.integers(m - 1))))
    circuit = Circuit(m, gates)
    (step,) = _dense_steps(circuit, 0)
    (_, fixed, src), (_, peeled, _, _) = _moves(step, m)
    assert fixed == () and src[m - 1] == m - 1
    assert peeled[0] == m - 1
    state = _state_on(m, list(range(2**m)), rng)
    assert_engines_agree(circuit, state)
    peak = _peak_bytes(lambda: run_circuit(state, circuit))
    assert peak < 2 ** (m - 2) * state.amplitudes.itemsize * 1.125


def _select_qubit_input(layout, slot, rng):
    """A state on every label that select_qubit's checks allow, with -0.0
    imaginary parts on some labels and -0.0 off the support."""
    m, anc = layout.num_wires, layout.wires("a")
    blocked = anc[len(anc) - (slot - 1):] + layout.wires("c")
    support = [label for label in range(2**m) if not any((label >> w) & 1 for w in blocked)]
    state = _state_on(m, support, rng)
    state.amplitudes.imag[support[::3]] = -0.0
    return state


@pytest.mark.parametrize("slot", [3, 4])
def test_dense_select_qubit_matches_gate_by_gate(slot, monkeypatch):
    # Slot 3 or more leaves at most 1/8 of the labels free, so a valid
    # input takes the support path; a zero share sends it to the dense array.
    layout = shift_layout(6, 4)
    state = _select_qubit_input(layout, slot, np.random.default_rng(slot))
    passes = shift_cascade(layout.wires("a"), layout.wires("b"), layout.wires("c")[0], "right")
    calls = []
    monkeypatch.setattr(arithmetic, "run_circuit", lambda *call: calls.append(call) or run_circuit(*call))
    dense = state.copy()
    with pytest.MonkeyPatch.context() as patch, _observed_runs() as runs:
        patch.setattr(state_module, "SUPPORT_PATH_MAX_SHARE", 0.0)
        select_qubit(dense, layout, "b", slot, ancilla="a")
    ((_, circuit, checks),) = calls
    ((_, ran, path),) = runs
    assert list(ran) == list(circuit) == passes * (slot - 1) and path is None
    assert np.array_equal(_bits(dense.amplitudes), _bits(_gate_by_gate(state.copy(), circuit).amplitudes))
    # The circuit and the two checks it hands to run_circuit go to every engine.
    assert_engines_agree(circuit, state, checks)


@pytest.mark.parametrize("run", ["shift right", "rotate left", "rotate right", "select_qubit"])
def test_compiled_passes_peak_under_one_chunk(run, monkeypatch):
    layout = shift_layout(10, 5)
    m, c = layout.num_wires, layout.wires("c")[0]
    rng = np.random.default_rng(5)
    if run == "select_qubit":
        monkeypatch.setattr(state_module, "SUPPORT_PATH_MAX_SHARE", 0.0)
        state = _select_qubit_input(layout, 3, rng)
        go = lambda: select_qubit(state, layout, "b", 3, ancilla="a")
    else:
        state = _state_on(m, list(range(1 << c)), rng)
        kind, direction = run.split()
        go = lambda: {"shift": shift, "rotate": rotate}[kind](state, layout, direction)
    # The largest temporary is half the permuted slice, 2**(m-2) amplitudes; the rest
    # of the peak is the run's few small objects.
    assert _peak_bytes(go) < 2 ** (m - 2) * state.amplitudes.itemsize * 1.125


def _state_on(m, labels, rng):
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[labels] = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps /= np.linalg.norm(amps)  # first: the complex divide turns the real part of a -0.0 into 0.0
    amps[amps == 0] = -0.0
    return StateVector(amps)


@pytest.mark.parametrize(
    "pipeline, segments, what",
    [
        ("shift left", ["c"], "control wire 'c'"),
        ("select_qubit", ["c"], "shift control wire"),
        # A label violating both checks is named by the first.
        ("select_qubit", ["a", "c"], "top 2 slots of ancilla 'a'"),
        ("multiply_registers canonical", ["B", "c"], "accumulator B"),
    ],
)
def test_pipelines_name_the_violated_check(pipeline, segments, what):
    run, layout, _ = _PIPELINE_RUNS[pipeline]
    bad = sum(1 << layout.wires(name)[-1] for name in segments)
    state = _state_on(layout.num_wires, [0, bad], np.random.default_rng(3))
    before = state.amplitudes.copy()
    with pytest.raises(PreconditionError) as excinfo:
        run(state, layout)
    assert str(excinfo.value) == f"{what} must be zero on every supported basis state"
    assert np.array_equal(_bits(state.amplitudes), _bits(before))
