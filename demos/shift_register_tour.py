#!/usr/bin/env python3
"""Tour of the swap-network shift/rotation register.

Builds the register circuit, walks a basis state through shift and rotation
passes, compares everything against the classical permutation oracle, and
prints the gate-count accounting.
"""

import itertools
import math

from qshift import (
    ShiftSpec,
    StateVector,
    apply_circuit_to_label,
    build_shift_circuit,
    classical_shift_oracle,
    gate_count,
    rotate,
    shift,
    shift_layout,
)

N, K = 4, 2


def bits_of(layout, label, name):
    return tuple((label >> w) & 1 for w in layout.wires(name))


def only_label(state):
    """The label of a basis state, read through its support."""
    (label,), _ = state.support()
    return int(label)


def main():
    layout = shift_layout(N, K)
    print(f"register: {N} data wires, {K} ancilla wires, control on wire {layout.wires('c')[0]}")

    circuit = build_shift_circuit(ShiftSpec(N, K, "left"))
    print(f"\none pass uses {circuit.counts()['SWAP']} SWAPs and "
          f"{circuit.counts()['CSWAP']} CSWAP:")
    for gate in circuit:
        print(f"  {gate.kind}{gate.wires}")

    # A shift doubles the data value; the old top bit lands in the ancilla.
    value = 0b0110
    state = StateVector.from_label(layout.num_wires, layout.label_with_value(0, "b", value))
    print(f"\ndata starts at {value}")
    for step in range(1, 3):
        shift(state, layout, "left")
        label = only_label(state)
        print(f"  after shift {step}: data={layout.value(label, 'b')} "
              f"ancilla bits={bits_of(layout, label, 'a')}")

    # Two right shifts restore the start exactly.
    shift(state, layout, "right")
    shift(state, layout, "right")
    assert layout.value(only_label(state), "b") == value
    print("  two right shifts restore the input exactly")

    # Rotation wraps the top bit around and has order lcm(n, k).
    state = StateVector.from_label(layout.num_wires, layout.label_with_value(0, "b", 1 << (N - 1)))
    rotate(state, layout, "left")
    print(f"\nrotation wraps {1 << (N - 1)} to "
          f"{layout.value(only_label(state), 'b')}")
    order = math.lcm(N, K)
    snap = state.copy()
    for _ in range(order):
        rotate(state, layout, "left")
    assert state.allclose(snap, 0.0)
    print(f"rotating {order} = lcm({N},{K}) times is the identity")

    # The circuit agrees with the classical oracle on every basis input.
    mismatches = 0
    for label in range(1 << layout.num_wires):
        a = bits_of(layout, label, "a")
        b = bits_of(layout, label, "b")
        c = (label >> layout.wires("c")[0]) & 1
        a2, b2 = classical_shift_oracle(a, b, c, "left")
        want = c << layout.wires("c")[0]
        for slot, w in enumerate(layout.wires("a")):
            want |= a2[slot] << w
        for slot, w in enumerate(layout.wires("b")):
            want |= b2[slot] << w
        if apply_circuit_to_label(circuit, label) != want:
            mismatches += 1
    print(f"\noracle check over all {1 << layout.num_wires} basis states: "
          f"{mismatches} mismatches")

    print("\ngate counts by decomposition level:")
    for mode in ("none", "cnot", "all"):
        report = gate_count(ShiftSpec(N, K), mode)
        print(f"  {mode:>4}: {report.counts}")

    print("\nswap totals for one pass across register sizes:")
    for n, k in itertools.product((2, 4, 8), (1, 2, 4)):
        counts = gate_count(ShiftSpec(n, k)).counts
        print(f"  n={n} k={k}: {counts['SWAP']} swaps + {counts['CSWAP']} cswap")


if __name__ == "__main__":
    main()
