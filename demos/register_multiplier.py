#!/usr/bin/env python3
"""Multiplying two superposed registers and selecting qubits by shifting.

Runs the conditional-add pipeline on A = (|1> + |2>)/sqrt(2) and
C = (|1> + |3>)/sqrt(2), prints the four product branches, then uses the
right-shift register to walk a chosen qubit down to the lowest slot.
"""

import numpy as np

from qshift import (
    MulQuantumSpec,
    StateVector,
    mul_quantum_layout,
    multiply_registers,
    select_qubit,
    shift,
    shift_layout,
)


def main():
    spec = MulQuantumSpec(a_width=3, a_ancilla=2, c_width=3, c_ancilla=2, b_width=6)
    layout = mul_quantum_layout(spec)
    print(f"multiplying 3-wire registers into a {spec.b_width}-wire accumulator "
          f"({layout.num_wires} wires total)")

    amps = np.zeros(1 << layout.num_wires, dtype=complex)
    for a in (1, 2):
        for c in (1, 3):
            label = layout.label_with_value(0, "A", a)
            amps[layout.label_with_value(label, "C", c)] = 0.5
    state = StateVector(amps)
    print("input branches: A in {1, 2} times C in {1, 3}, all at amplitude 1/2")

    multiply_registers(state, spec, layout)

    print("\nproduct branches (B, |amplitude|):")
    products = {}
    labels, amplitudes = state.support()
    for l, amp in zip(labels.tolist(), amplitudes):
        products[layout.value(l, "B")] = abs(amp)
    for b in sorted(products):
        print(f"  B={b}  {products[b]:.6f}")
    assert sorted(products) == [1, 2, 3, 6]
    print("every branch carries its own product; one run multiplied all four pairs")

    print("\nconsumed multiplier bits sit in C's shift ancilla, so the whole run")
    print("stays reversible; running the reversed circuit would restore the inputs")

    # Qubit selection: park slot 3's bit at the lowest slot via right shifts.
    lay = shift_layout(4, 3)
    value = 0b0100  # only slot 3 carries a 1
    state = StateVector.from_label(lay.num_wires, lay.label_with_value(0, "b", value))
    print(f"\nselect slot 3 of a register holding bits 0b{value:04b}")
    select_qubit(state, lay, "b", 3, ancilla="a")
    (label,), _ = state.support()
    print(f"after two right shifts the lowest slot reads {lay.value(label, 'b') & 1}")

    shift(state, lay, "left")
    shift(state, lay, "left")
    (label,), _ = state.support()
    assert lay.value(label, "b") == value
    print("two left shifts undo the selection")


if __name__ == "__main__":
    main()
