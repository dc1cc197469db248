"""Circuits compiled once per (spec, layout), and layouts as values that key them."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from qshift import (
    Gate,
    MulConstSpec,
    MulQuantumSpec,
    RegisterLayout,
    ShiftSpec,
    StateVector,
    build_multiply_by_constant_circuit,
    build_multiply_registers_circuit,
    build_shift_circuit,
    mul_const_layout,
    mul_quantum_layout,
    multiply_by_constant,
    multiply_registers,
    rotate,
    shift,
    shift_layout,
)
from qshift import shift_register
from qshift.gates import CIRCUIT_CACHE_SIZE, compiled

_MULQ = MulQuantumSpec(2, 1, 2, 1, 4)
_MULC = MulConstSpec(2, 2, 4, 0b101)
_SHIFT = shift_layout(3, 2)


@pytest.fixture
def constructed(monkeypatch):
    """The gates built while the test runs, one entry per ``Gate.__post_init__``."""
    built = []
    post_init = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda gate: built.append(gate) or post_init(gate))
    return built


def _twin(layout: RegisterLayout) -> RegisterLayout:
    """A layout built apart from ``layout`` from lists, equal to it by its segments."""
    return RegisterLayout([(name, list(wires)) for name, wires in layout.segments])


def _reversed_first(layout: RegisterLayout) -> RegisterLayout:
    """``layout`` with its first segment's wires in reverse order."""
    (name, wires), *rest = layout.segments
    return RegisterLayout([(name, wires[::-1]), *rest])


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: multiply_registers(StateVector.from_label(14, 0b0110), _MULQ), id="multiply_registers"),
        pytest.param(
            lambda: multiply_registers(StateVector.from_label(14, 0), _MULQ, _twin(mul_quantum_layout(_MULQ))),
            id="multiply_registers twin layout",
        ),
        pytest.param(lambda: multiply_by_constant(StateVector.from_label(12, 0b11), _MULC), id="multiply_by_constant"),
        pytest.param(lambda: shift(StateVector.from_label(6, 0b10110), _SHIFT), id="shift"),
        pytest.param(lambda: shift(StateVector.from_label(6, 0b10110), _twin(_SHIFT), "right"), id="shift right"),
        pytest.param(lambda: rotate(StateVector.from_label(6, 0b00111), _SHIFT), id="rotate"),
        pytest.param(lambda: rotate(StateVector.from_label(6, 0b00111), _SHIFT, "right"), id="rotate right"),
        pytest.param(lambda: build_shift_circuit(ShiftSpec(3, 2, "right")), id="build_shift_circuit"),
    ],
)
def test_a_repeat_call_constructs_no_gate(run, constructed):
    compiled.cache_clear()
    run()
    assert constructed  # the spy sees the cold build
    constructed.clear()
    run()
    assert constructed == []


@pytest.mark.parametrize(
    "build, spec, layout",
    [
        (build_multiply_registers_circuit, _MULQ, mul_quantum_layout(_MULQ)),
        (build_multiply_by_constant_circuit, _MULC, mul_const_layout(_MULC)),
    ],
)
def test_equal_layouts_share_one_circuit_and_reordered_wires_do_not(build, spec, layout):
    twin, reordered = _twin(layout), _reversed_first(layout)
    assert twin is not layout and twin == layout and hash(twin) == hash(layout)
    assert build(spec, twin) is build(spec, layout) is build(spec)
    assert reordered != layout
    assert build(spec, reordered) != build(spec, layout)


def test_equal_layouts_share_one_pass_circuit(monkeypatch):
    ran = []
    monkeypatch.setattr(shift_register, "run_circuit", lambda state, circuit, checks: ran.append(circuit))
    for layout in (_SHIFT, _twin(_SHIFT), _reversed_first(_SHIFT)):
        shift(StateVector.from_label(6, 0), layout)
    same, twin, reordered = ran
    assert twin is same and reordered != same


def test_the_cache_holds_the_stated_number_of_circuits():
    assert compiled.cache_info().maxsize == CIRCUIT_CACHE_SIZE


def test_a_layout_is_a_frozen_value():
    layout = RegisterLayout([("a", [1]), ("b", range(0, 1))])
    assert layout.segments == (("a", (1,)), ("b", (0,)))
    assert layout.segment_names == ("a", "b") and layout.display_wires == (1, 0)
    assert repr(layout) == "RegisterLayout(a=[1], b=[0])"
    for attr in ("segments", "num_wires", "display_wires"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layout, attr, None)
    assert not layout.has_segment(["a"])  # an unhashable name is no segment


@st.composite
def _layouts(draw):
    """A layout of 1-3 wires, cut into segments named from "ab", so that two draws are often equal."""
    m = draw(st.integers(1, 3))
    wires = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=1))) if m > 1 else []
    names = draw(st.permutations("ab"))
    bounds = [0, *cuts, m]
    return RegisterLayout([(name, wires[lo:hi]) for name, lo, hi in zip(names, bounds, bounds[1:])])


@given(_layouts(), _layouts())
def test_layouts_are_equal_exactly_when_their_segments_are(x, y):
    assert (x == y) == (x.segments == y.segments)
    if x == y:
        assert hash(x) == hash(y)
    assert x == _twin(x) and hash(x) == hash(_twin(x))
