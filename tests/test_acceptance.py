"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own output.
"""

import itertools
import math
import time

import numpy as np

from qshift import (
    Circuit,
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    ShiftSpec,
    StateVector,
    apply_circuit_to_label,
    adder_gates,
    apply_gate,
    build_multiply_by_constant_circuit,
    build_multiply_registers_circuit,
    build_shift_circuit,
    classical_shift_oracle,
    cost_report,
    decompose_cswap,
    decompose_swap,
    gate_count,
    mul_const_layout,
    mul_quantum_layout,
    multiply_by_constant,
    multiply_registers,
    num_shifts,
    rotate,
    run_circuit,
    schmidt_rank,
    shift_layout,
)
from qshift.state import RegisterLayout
from conftest import oracle_add, random_circuit, random_state


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail and not ok else ""))
    assert ok, f"{name}: {detail}"


def _golden_state():
    spec = MulConstSpec(4, 3, 4, 0b1100)
    lay = mul_const_layout(spec)
    state = StateVector.from_label(lay.num_wires, 0)
    apply_gate(state, Gate.h(lay.wires("A")[0]))
    multiply_by_constant(state, spec, lay)
    return state, lay


def predict_mul_const_label(a, spec, lay):
    """Classical prediction of the full final basis label, no gates involved."""
    shifts = num_shifts(spec.multiplier)
    shifted = a << shifts
    a_reg = shifted & ((1 << spec.a_width) - 1)
    anc = 0
    for j in range(shifts):  # ancilla slot k-j holds bit a_width+j of the shifted value
        anc |= ((shifted >> (spec.a_width + j)) & 1) << (spec.a_ancilla - 1 - j)
    label = lay.label_with_value(0, "A", a_reg)
    label = lay.label_with_value(label, "ancA", anc)
    return lay.label_with_value(label, "B", (a * spec.multiplier) & ((1 << spec.b_width) - 1))


def predict_mul_quantum_label(a, c, spec, lay):
    shifts = spec.c_width - 1
    shifted = a << shifts
    a_reg = shifted & ((1 << spec.a_width) - 1)
    anc_a = 0
    for j in range(shifts):
        anc_a |= ((shifted >> (spec.a_width + j)) & 1) << (spec.a_ancilla - 1 - j)
    anc_c = 0
    for j in range(1, shifts + 1):  # consumed bits stack low, most recent first
        anc_c |= ((c >> (shifts - j)) & 1) << (j - 1)
    label = lay.label_with_value(0, "A", a_reg)
    label = lay.label_with_value(label, "ancA", anc_a)
    label = lay.label_with_value(label, "C", c >> shifts)
    label = lay.label_with_value(label, "ancC", anc_c)
    return lay.label_with_value(label, "B", a * c)


def test_criterion_1_golden_multiplication():
    start = time.perf_counter()
    state, lay = _golden_state()
    branches = {
        (lay.value(int(l), "A"), lay.value(int(l), "B")): state.amplitudes[int(l)]
        for l in state.nonzero_labels()
    }
    elapsed = time.perf_counter() - start
    ok = (
        set(branches) == {(0, 0), (8, 12)}
        and all(abs(abs(amp) - 1 / math.sqrt(2)) < 1e-10 for amp in branches.values())
        and elapsed < 1.0
    )
    _report(
        "criterion 1: golden two-branch multiplication (A,B) in {(0,0),(8,12)} at 1/sqrt(2)",
        ok,
        f"branches={sorted(branches)} elapsed={elapsed:.3f}s",
    )


def test_criterion_2_gate_count_claim():
    ok = True
    detail = ""
    for n, k in itertools.product(range(1, 9), range(1, 5)):
        plain = gate_count(ShiftSpec(n, k), "none").counts
        cnot = gate_count(ShiftSpec(n, k), "cnot").counts
        if plain != {"SWAP": n + k - 1, "CSWAP": 1}:
            ok, detail = False, f"(n={n},k={k}) plain={plain}"
            break
        if cnot != {"CNOT": 3 * (n + k - 1), "CSWAP": 1}:
            ok, detail = False, f"(n={n},k={k}) cnot={cnot}"
            break
    _report("criterion 2: n+k-1 swaps + 1 cswap, 3(n+k-1) CNOTs, for n<=8, k<=4", ok, detail)


def test_criterion_3_exhaustive_shift_oracle():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n, k in itertools.product(range(1, 6), range(1, 4)):
        lay = shift_layout(n, k)
        for direction in ("left", "right"):
            circ = build_shift_circuit(ShiftSpec(n, k, direction))
            for label in range(1 << lay.num_wires):
                a = [(label >> w) & 1 for w in lay.wires("a")]
                b = [(label >> w) & 1 for w in lay.wires("b")]
                c = (label >> lay.wires("c")[0]) & 1
                a2, b2 = classical_shift_oracle(a, b, c, direction)
                want = c << lay.wires("c")[0]
                for slot, w in enumerate(lay.wires("a")):
                    want |= a2[slot] << w
                for slot, w in enumerate(lay.wires("b")):
                    want |= b2[slot] << w
                state = StateVector.from_label(lay.num_wires, label)
                run_circuit(state, circ)
                if state.amplitude(want) != 1:
                    ok, detail = False, f"(n={n},k={k},{direction}) label={label}"
                    break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(
        "criterion 3: circuit == classical oracle on every basis input, n<=5, k<=3",
        ok,
        detail or f"elapsed={elapsed:.3f}s",
    )


def _rotation_permutation_order(n, k):
    lay = shift_layout(n, k)
    circ = build_shift_circuit(ShiftSpec(n, k, "left"))
    c_wire = lay.wires("c")[0]
    size = 1 << (n + k)  # control fixed at 1 during the pass
    perm = np.empty(size, dtype=np.int64)
    for label in range(size):
        out = apply_circuit_to_label(circ, label | (1 << c_wire))
        perm[label] = out & ~(1 << c_wire)
    order = 1
    seen = np.zeros(size, dtype=bool)
    for start in range(size):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = int(perm[cur])
            length += 1
        order = math.lcm(order, length)
    return order


def test_criterion_4_rotation_semantics():
    ok = True
    detail = ""
    rng = np.random.default_rng(7)
    for n, k in itertools.product(range(1, 6), range(1, 4)):
        lay = shift_layout(n, k)
        circ = build_shift_circuit(ShiftSpec(n, k, "left"))
        c_wire = lay.wires("c")[0]
        # the top data bit wraps to the bottom slot
        label = lay.label_with_value(0, "b", 1 << (n - 1)) | (1 << c_wire)
        out = apply_circuit_to_label(circ, label)
        if lay.value(out, "b") != 1:
            ok, detail = False, f"(n={n},k={k}) wrap gave {lay.value(out, 'b')}"
            break
        if _rotation_permutation_order(n, k) != math.lcm(n, k):
            ok, detail = False, f"(n={n},k={k}) order != lcm"
            break
        # rotate-left then rotate-right on a random register-supported state
        amps = np.zeros(1 << lay.num_wires, dtype=complex)
        block = rng.standard_normal(1 << (n + k)) + 1j * rng.standard_normal(1 << (n + k))
        block /= np.linalg.norm(block)
        amps[: 1 << (n + k)] = block  # control wire is the top wire, so it stays 0
        state = StateVector(amps)
        snap = state.copy()
        rotate(state, lay, "left")
        rotate(state, lay, "right")
        if not state.allclose(snap, tol=1e-12):
            ok, detail = False, f"(n={n},k={k}) counter-rotation drift"
            break
    _report(
        "criterion 4: MSB wraps to 1, order lcm(n,k), counter-rotation is identity",
        ok,
        detail,
    )


def test_criterion_5_adder():
    lay = RegisterLayout([("A", range(4)), ("B", range(4, 8)), ("carry", range(8, 11))])
    circ = Circuit(lay.num_wires, adder_gates(lay.wires("A"), lay.wires("B"), lay.wires("carry")))
    ok = True
    detail = ""
    for a, b in itertools.product(range(16), range(16)):
        label = lay.label_with_value(lay.label_with_value(0, "A", a), "B", b)
        out = apply_circuit_to_label(circ, label)
        if (
            lay.value(out, "A") != a
            or lay.value(out, "B") != (a + b) % 16
            or lay.value(out, "carry") != 0
        ):
            ok, detail = False, f"a={a} b={b}"
            break
    rng = np.random.default_rng(11)
    if ok:
        for trial in range(100):
            amps = np.zeros(1 << lay.num_wires, dtype=complex)
            block = rng.standard_normal(256) + 1j * rng.standard_normal(256)
            block /= np.linalg.norm(block)
            for ab in range(256):
                amps[lay.label_with_value(lay.label_with_value(0, "A", ab & 15), "B", ab >> 4)] = block[ab]
            gate_path = StateVector(amps)
            oracle_path = gate_path.copy()
            run_circuit(gate_path, circ)
            oracle_add(oracle_path, lay.wires("A"), lay.wires("B"))
            if not gate_path.allclose(oracle_path, tol=1e-12):
                ok, detail = False, f"random trial {trial}"
                break
    _report(
        "criterion 5: exhaustive 4+4 addition exact, carries clean, oracle-adder match",
        ok,
        detail,
    )


def test_criterion_6_multiplication_oracles():
    start = time.perf_counter()
    ok = True
    detail = ""
    # constant multiplier: every basis input, every l, checked label by label
    for multiplier in range(8):
        spec = MulConstSpec(4, 2, 7, multiplier)
        lay = mul_const_layout(spec)
        circ = build_multiply_by_constant_circuit(spec)
        for a in range(16):
            got = apply_circuit_to_label(circ, lay.label_with_value(0, "A", a))
            if got != predict_mul_const_label(a, spec, lay):
                ok, detail = False, f"mul-const a={a} l={multiplier}"
                break
        if not ok:
            break
        # the same schedule on the uniform superposition covers all inputs at once
        state = StateVector.from_label(lay.num_wires, 0)
        for w in lay.wires("A"):
            apply_gate(state, Gate.h(w))
        multiply_by_constant(state, spec, lay)
        for a in range(16):
            amp = state.amplitude(predict_mul_const_label(a, spec, lay))
            if abs(amp - 0.25) > 1e-12:
                ok, detail = False, f"mul-const superposition a={a} l={multiplier}"
                break
        if not ok:
            break
    if ok:
        spec = MulQuantumSpec(3, 2, 3, 2, 6)
        lay = mul_quantum_layout(spec)
        circ = build_multiply_registers_circuit(spec)
        for a, c in itertools.product(range(8), range(8)):
            start_label = lay.label_with_value(lay.label_with_value(0, "A", a), "C", c)
            want = predict_mul_quantum_label(a, c, spec, lay)
            if apply_circuit_to_label(circ, start_label) != want or lay.value(want, "B") != a * c:
                ok, detail = False, f"mul-quantum a={a} c={c}"
                break
        if ok:
            state = StateVector.from_label(lay.num_wires, 0)
            for w in lay.wires("A") + lay.wires("C"):
                apply_gate(state, Gate.h(w))
            multiply_registers(state, spec, lay)
            for a, c in itertools.product(range(8), range(8)):
                amp = state.amplitude(predict_mul_quantum_label(a, c, spec, lay))
                if abs(amp - 0.125) > 1e-12:
                    ok, detail = False, f"mul-quantum superposition a={a} c={c}"
                    break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(
        "criterion 6: products exact for A<16 x l<8 and a<8 x c<8 (basis and superposed)",
        ok,
        detail or f"elapsed={elapsed:.3f}s",
    )


def test_criterion_7_reversibility_and_norm_drift():
    rng = np.random.default_rng(23)
    builders = [
        build_shift_circuit(ShiftSpec(4, 2, "left")),
        build_shift_circuit(ShiftSpec(5, 3, "right")),
        build_shift_circuit(ShiftSpec(1, 1, "left")),
        decompose_swap(0, 1),
        decompose_cswap(2, 0, 1),
        Circuit(11, adder_gates(range(4), range(4, 8), range(8, 11))),
        Circuit(12, adder_gates(range(4), range(4, 8), range(8, 11), control=11)),
        build_multiply_by_constant_circuit(MulConstSpec(3, 2, 4, 0b110)),
        build_multiply_registers_circuit(MulQuantumSpec(2, 1, 2, 1, 4)),
    ]
    ok = True
    detail = ""
    states_checked = 0
    while states_checked < 100 and ok:
        for circ in builders:
            state = random_state(rng, circ.num_wires)
            snap = state.copy()
            run_circuit(state, circ)
            run_circuit(state, circ.reversed())
            states_checked += 1
            if not state.allclose(snap, tol=1e-12):
                ok, detail = False, f"circuit on {circ.num_wires} wires"
                break
    if ok:
        drift_circuit = random_circuit(rng, 8, 1000)
        state = random_state(rng, 8)
        run_circuit(state, drift_circuit)
        drift = abs(state.norm() - 1.0)
        if drift >= 1e-12:
            ok, detail = False, f"norm drift {drift:.2e}"
    _report(
        "criterion 7: built circuits invert gate-reversed on 100 random states; "
        "norm drift per 1000 gates < 1e-12",
        ok,
        detail,
    )


def test_criterion_8_entanglement_witness():
    state, lay = _golden_state()
    rank_golden = schmidt_rank(state, lay.wires("A"))
    spec0 = MulConstSpec(4, 3, 4, 0)
    lay0 = mul_const_layout(spec0)
    state0 = StateVector.from_label(lay0.num_wires, 0)
    apply_gate(state0, Gate.h(lay0.wires("A")[0]))
    multiply_by_constant(state0, spec0, lay0)
    rank_zero = schmidt_rank(state0, lay0.wires("A"))
    ok = rank_golden == 2 and rank_zero == 1
    _report(
        "criterion 8: Schmidt rank 2 across the A cut after the golden run, 1 for l=0",
        ok,
        f"golden={rank_golden} zero={rank_zero}",
    )


def test_criterion_9_cost_model():
    report = cost_report(4, 3, 0b1100)
    ok = (
        report.swap_gates == 18
        and report.additions == 2
        and report.num_values == 16
        and report.classical_operations == 48
    )
    # the quantum tally must not scale with the superposed value count
    wide = cost_report(4, 3, 0b1100, num_values=1 << 12)
    ok = ok and wide.swap_gates == 18 and wide.additions == 2
    ok = ok and wide.classical_operations == 3 * (1 << 12)
    _report(
        "criterion 9: 18 swaps + 2 adds quantum vs 48 classical ops for 16 values",
        ok,
        report.as_keyvalues().replace("\n", " "),
    )
