#!/usr/bin/env python3
"""Multiplying a superposed register by a classical constant.

Prepares A = (|0> + |1>)/sqrt(2), multiplies by binary 1100, and shows the
two-branch entangled output, the branch table, and the accumulator
distribution. Ends with the shift/add cost accounting.
"""

from qshift import (
    Gate,
    MulConstSpec,
    StateVector,
    apply_gate,
    cost_report,
    is_product_across,
    mul_const_layout,
    multiply_by_constant,
    segment_value_distribution,
)

MULTIPLIER = 0b1100


def main():
    spec = MulConstSpec(a_width=4, a_ancilla=3, b_width=4, multiplier=MULTIPLIER)
    layout = mul_const_layout(spec)
    print(f"multiplying a 4-wire register by {MULTIPLIER:b} "
          f"({spec.a_ancilla} shift ancilla, {spec.b_width}-wire accumulator)")

    state = StateVector.from_label(layout.num_wires, 0)
    apply_gate(state, Gate.h(layout.wires("A")[0]))  # A = (|0> + |1>)/sqrt(2)
    print("input: A holds 0 and 1 with equal amplitude, B is empty")

    multiply_by_constant(state, spec, layout)

    print("\nbranch table (A, B, |amplitude|):")
    labels, amplitudes = state.support()
    rows = sorted(
        (layout.value(l, "A"), layout.value(l, "B"), abs(amp))
        for l, amp in zip(labels.tolist(), amplitudes)
    )
    for a, b, amp in rows:
        print(f"  A={a:>2}  B={b:>2}  {amp:.12f}")
    assert [(a, b) for a, b, _ in rows] == [(0, 0), (8, 12)]
    print("the A branch holding 1 was shifted three times (now 8) and B holds 1 x 1100b = 12")

    dist = segment_value_distribution(state, layout, "B")
    print(f"\naccumulator distribution: { {v: round(p, 12) for v, p in dist.items()} }")

    check = is_product_across(state, layout.wires("A"))
    print(f"A against the rest: schmidt rank {check.schmidt_rank} "
          f"-> {'product' if check.is_product else 'entangled'}")
    assert check.schmidt_rank == 2

    # The products coincide only for multiplier 0, which leaves A unentangled.
    spec0 = MulConstSpec(4, 3, 4, 0)
    layout0 = mul_const_layout(spec0)
    state0 = StateVector.from_label(layout0.num_wires, 0)
    apply_gate(state0, Gate.h(layout0.wires("A")[0]))
    multiply_by_constant(state0, spec0, layout0)
    print(f"with multiplier 0 the rank drops to "
          f"{is_product_across(state0, layout0.wires('A')).schmidt_rank}")

    report = cost_report(spec.a_width, spec.a_ancilla, MULTIPLIER)
    print("\ncost accounting:")
    print("  " + report.as_text().replace("\n", "\n  "))
    print("the quantum totals hold for any number of superposed values;")
    print("the classical sweep repeats its shifts once per value")


if __name__ == "__main__":
    main()
