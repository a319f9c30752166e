"""One structure at many settings: each engine's evaluator over a sequence of
settings gives, setting by setting, the bits of its one-setting call."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim import hilbert
from shadowsim.circuit import CircuitValidationError, Element, ElementType, parse_circuit
from shadowsim.corpus import random_circuit
from shadowsim.experiments import bghz_left_circuit, bghz_right_circuit, mach_zehnder_circuit
from shadowsim.streams import terminal_amplitudes
from reference import hilbert_amplitudes, reshifted

TWO_PI = 2.0 * math.pi
SHIFTS = (-0.0, 0.0, TWO_PI, math.nextafter(TWO_PI, 0.0), -1.0, -3 * math.pi, 1e300, -1e300)
CLOCKS = (0.0, -0.0, -3.0, 1e6)

# Two shifters on the arms of a three-arm source, with negative link phases.
THREE_ARM_TEXT = """\
element s source
element p phaseshifter:1.0
element q phaseshifter:-0.5
element b beamsplitter
element u detector:u
element d detector:d
element x detector:x
link s:0 p:0 phase=-2.0
link p:0 b:0
link s:1 b:1 phase=-0.0
link s:2 q:0 phase=0.3
link q:0 x:0
link b:0 d:0
link b:1 u:0 phase=-6.283185307179586
"""

STRUCTURES = (
    mach_zehnder_circuit(0.0, 0.7),
    bghz_left_circuit(0.0),
    bghz_right_circuit(0.0, arm_phase=-1.1),
    parse_circuit(THREE_ARM_TEXT),
)


def _bits(amplitudes: dict) -> list:
    return [(key, complex(v).real.hex(), complex(v).imag.hex()) for key, v in amplitudes.items()]


@st.composite
def _structure_and_settings(draw):
    """A circuit, and up to 8 settings of some of its shifters, each with a clock."""
    circuit = draw(st.one_of(st.integers(0, 1999).map(random_circuit), st.sampled_from(STRUCTURES)))
    shifters = sorted(eid for eid, el in circuit.elements.items()
                      if el.kind is ElementType.PHASESHIFTER)
    shift = st.one_of(st.sampled_from(SHIFTS), st.floats(-1e300, 1e300))
    shift_maps = draw(st.lists(
        st.lists(st.sampled_from(shifters), unique=True).flatmap(
            lambda ids: st.fixed_dictionaries({eid: shift for eid in ids})
        ) if shifters else st.just({}),
        min_size=1, max_size=8,
    ))
    clock = st.one_of(st.sampled_from(CLOCKS), st.floats(-1e6, 1e6))
    clocks = draw(st.lists(clock, min_size=len(shift_maps), max_size=len(shift_maps)))
    return circuit, shift_maps, clocks


@settings(max_examples=200, deadline=None)
@given(_structure_and_settings())
def test_each_setting_equals_its_one_setting_call(case):
    """Per setting, and per view (the whole circuit and every Circuit.arm),
    the G-wide amplitudes equal under float.hex both the one-setting call
    and the circuit rebuilt with those shifts, evaluated at its own shifts.
    Both engines read one settings list; hilbert's amplitudes equal those at
    clock None, so it does not read the clock."""
    circuit, shift_maps, clocks = case
    source = circuit.sole_source()
    pairs = list(zip(shift_maps, clocks))
    for port in [None, *range(circuit.source_fanout(source))]:
        view = circuit if port is None else circuit.arm(port)
        streams = list(terminal_amplitudes(view, pairs))
        states = list(hilbert.terminal_amplitudes(view, pairs))
        assert len(streams) == len(states) == len(shift_maps)
        for shifts, clock, got, state in zip(shift_maps, clocks, streams, states):
            derived = reshifted(view, shifts)
            (one,) = terminal_amplitudes(view, [(shifts, clock)])
            (built,) = terminal_amplitudes(derived, [({}, clock)])
            assert _bits(got) == _bits(one) == _bits(built)
            (alone,) = hilbert.terminal_amplitudes(view, [(shifts, None)])
            assert _bits(state) == _bits(alone) == _bits(hilbert_amplitudes(derived))


def test_a_shift_of_two_pi_is_zero_on_both_engines():
    """A setting's shift is reduced as an Element reduces it: 2pi is 0."""
    circuit = mach_zehnder_circuit(0.0)
    at_zero, at_two_pi = terminal_amplitudes(
        circuit, [({"shift_a": 0.0}, 1.0), ({"shift_a": TWO_PI}, 1.0)]
    )
    assert _bits(at_zero) == _bits(at_two_pi)
    zero, two_pi = hilbert.terminal_amplitudes(
        circuit, [({"shift_a": 0.0}, None), ({"shift_a": TWO_PI}, None)]
    )
    assert _bits(zero) == _bits(two_pi)


@pytest.mark.parametrize("bad", [{"bs1": 1.0}, {"nowhere": 1.0}])
def test_a_setting_that_names_no_phase_shifter_is_refused(bad):
    circuit = mach_zehnder_circuit(0.0)
    with pytest.raises(CircuitValidationError, match="is not a phase shifter"):
        list(terminal_amplitudes(circuit, [(bad, 0.0)]))
    with pytest.raises(CircuitValidationError, match="is not a phase shifter"):
        list(hilbert.terminal_amplitudes(circuit, [(bad, None)]))


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_a_non_finite_setting_is_refused_as_construction_refuses(shift):
    """A setting's shift is checked as an Element checks its own: a nan or
    infinite shift is refused on both engines with the same message."""
    with pytest.raises(ValueError, match="finite") as built:
        Element(ElementType.PHASESHIFTER, shift=shift)
    circuit = mach_zehnder_circuit(0.0)
    with pytest.raises(ValueError, match="finite") as streams:
        list(terminal_amplitudes(circuit, [({"shift_a": shift}, 0.0)]))
    with pytest.raises(ValueError, match="finite") as state:
        list(hilbert.terminal_amplitudes(circuit, [({"shift_a": shift}, None)]))
    assert str(streams.value) == str(state.value) == str(built.value)


BUILDERS = (
    (lambda a: mach_zehnder_circuit(a, 0.7), "shift_a"),
    (bghz_left_circuit, "shift_a"),
    (lambda a: bghz_right_circuit(a, arm_phase=-1.1), "shift_b"),
)


@pytest.mark.parametrize("alpha", [0.0, -0.0, TWO_PI, 0.9, 1e300])
@pytest.mark.parametrize("build, shifter", BUILDERS, ids=["mz", "bghz-left", "bghz-right"])
def test_a_shift_in_the_bench_text_equals_it_as_a_setting(build, shifter, alpha):
    """A builder writes its shift into the bench text as repr(float(x));
    that structure at its own shift gives, under float.hex, the bits of the
    structure built at 0 with the shift given as a setting, on both engines
    and in every view."""
    written, structure = build(alpha), build(0.0)
    source = structure.sole_source()
    for port in [None, *range(structure.source_fanout(source))]:
        own_view = written if port is None else written.arm(port)
        view = structure if port is None else structure.arm(port)
        (own,) = terminal_amplitudes(own_view, [({}, 1.3)])
        (given,) = terminal_amplitudes(view, [({shifter: alpha}, 1.3)])
        assert _bits(own) == _bits(given)
        (state,) = hilbert.terminal_amplitudes(view, [({shifter: alpha}, None)])
        assert _bits(hilbert_amplitudes(own_view)) == _bits(state)


@pytest.mark.parametrize("circuit", STRUCTURES[1:], ids=["bghz-left", "bghz-right", "three-arm"])
def test_the_arm_views_add_up_to_the_whole_emission(circuit):
    """The sole source emits each arm with weight 1/sqrt(fanout), so the sum
    of the Circuit.arm views' amplitudes over sqrt(fanout) is the whole
    circuit's, on both engines, at every setting."""
    fanout = circuit.source_fanout(circuit.sole_source())
    assert fanout > 1
    shifters = [eid for eid, el in circuit.elements.items() if el.kind is ElementType.PHASESHIFTER]
    shift_maps = [dict.fromkeys(shifters, shift) for shift in SHIFTS]
    points = [(shifts, clock) for shifts in shift_maps for clock in CLOCKS]
    views = [circuit.arm(k) for k in range(fanout)]
    for evaluate in (terminal_amplitudes, hilbert.terminal_amplitudes):
        wholes = evaluate(circuit, points)
        arms = [evaluate(view, points) for view in views]
        for whole, *parts in zip(wholes, *arms, strict=True):
            for key, amp in whole.items():
                assert abs(sum(part[key] for part in parts) / math.sqrt(fanout) - amp) < 1e-15
