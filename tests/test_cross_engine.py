"""Stream bookkeeping and matrix evolution must tell the same statistics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim.circuit import Circuit, parse_circuit
from shadowsim.corpus import random_circuit
from shadowsim.experiments import (
    ENGINES,
    bghz_left_circuit,
    bghz_right_circuit,
    ifm_circuit,
    mach_zehnder_circuit,
    bghz_points,
    mach_zehnder_points,
    pair_amplitudes,
)
from shadowsim.outcomes import ENGINE_HILBERT
from shadowsim.streams import initial_clocks, terminal_amplitudes, unitarity_defect
from reference import (
    bghz_streams,
    circuits_equal,
    hilbert_amplitudes,
    hilbert_arms,
    pair_clock,
    probabilities,
    render_circuit,
    reshifted,
    row_amplitudes,
    stream_arms,
)

CASES = 500


def _stream_amplitudes(circuit, clock):
    (amps,) = terminal_amplitudes(circuit, [({}, clock)])
    return amps


def _stream_probabilities(circuit, clock):
    return {key: abs(value) ** 2 for key, value in _stream_amplitudes(circuit, clock).items()}


def test_corpus_probabilities_agree_pointwise():
    worst = 0.0
    for i, clock in enumerate(initial_clocks(range(CASES))):
        circuit = random_circuit(i)
        probs_s = _stream_probabilities(circuit, clock)
        probs_h = probabilities(hilbert_amplitudes(circuit))
        assert set(probs_s) == set(probs_h)
        for key, p in probs_h.items():
            worst = max(worst, abs(probs_s[key] - p))
    assert worst < 1e-12


def test_corpus_amplitudes_agree_once_clock_is_pinned():
    for i in range(0, CASES, 7):
        circuit = random_circuit(i)
        stream_amps = _stream_amplitudes(circuit, 0.0)
        matrix_amps = hilbert_amplitudes(circuit)
        for key, amp in matrix_amps.items():
            assert stream_amps[key] == pytest.approx(amp, abs=1e-12)


def test_clock_rotates_every_terminal_amplitude_together():
    circuit = random_circuit(3)
    base, turned = terminal_amplitudes(circuit, [({}, 0.0), ({}, 0.7)])
    phase = np.exp(1j * 0.7)
    for key, amp in base.items():
        assert turned[key] == pytest.approx(amp * phase, abs=1e-12)


def test_random_clock_never_moves_probabilities():
    first, second = initial_clocks([101, 2002])
    for i in range(0, 60, 3):
        circuit = random_circuit(i)
        one = _stream_probabilities(circuit, first)
        two = _stream_probabilities(circuit, second)
        for key, p in one.items():
            assert two[key] == pytest.approx(p, abs=1e-12)


def test_matrix_evolution_keeps_norm_on_corpus():
    for i in range(0, CASES, 11):
        amps = hilbert_amplitudes(random_circuit(i))
        assert unitarity_defect(amps) < 1e-12
        assert sum(probabilities(amps).values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", np.linspace(0.0, 2 * math.pi, 16))
def test_interferometer_engines_agree(alpha):
    a = mach_zehnder_points([(float(alpha), 0)], "streams")[0]
    b = mach_zehnder_points([(float(alpha), 0)], "hilbert")[0]
    for key in ("u", "d"):
        assert a.probability(key) == pytest.approx(b.probability(key), abs=1e-12)


def test_pair_engines_agree_on_grid():
    angles = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    for alpha in angles:
        for beta in angles:
            a = bghz_points([(float(alpha), float(beta), 0)], "streams")[0]
            b = bghz_points([(float(alpha), float(beta), 0)], "hilbert")[0]
            for key, p in b.outcomes.items():
                assert a.probability(key) == pytest.approx(p, abs=1e-12)


_ANGLES = st.floats(-10.0, 10.0)


@settings(max_examples=100, deadline=None)
@given(_ANGLES, _ANGLES, _ANGLES, st.integers(0, 2**32))
def test_pair_amplitudes_equal_hilbert_times_the_shared_clock(alpha, beta, arm_phase, seed):
    """Each daughter carries e^{i clock}, so the joint amplitude carries it
    twice; hilbert has no clock."""
    joint = pair_amplitudes(*bghz_streams(alpha, beta, seed=seed, arm_phase=arm_phase))
    reference = pair_amplitudes(
        hilbert_arms(bghz_left_circuit(alpha)),
        hilbert_arms(bghz_right_circuit(beta, arm_phase=arm_phase)),
    )
    rotation = cmath.exp(2j * pair_clock(seed))
    assert set(joint) == set(reference)
    for key, amp in reference.items():
        assert abs(joint[key] - amp * rotation) < 1e-12


# Three arms: arms 0 and 1 meet at bs1, and every arm reaches d and w by two
# routes through bs2 and bs3, so one arm's terminal sum adds several rows.
THREE_ARM = parse_circuit("""\
element src source
element bs1 beamsplitter
element bs2 beamsplitter
element bs3 beamsplitter
element ps1 phaseshifter:0
element ps2 phaseshifter:0
element u detector:u
element d detector:d
element w detector:w
link src:0 bs1:0 phase=0.3
link src:1 ps1:0 phase=1.9
link ps1:0 bs1:1
link src:2 bs2:0 phase=0.8
link bs1:0 bs2:1 phase=2.2
link bs1:1 u:0
link bs2:0 ps2:0
link ps2:0 bs3:0
link bs2:1 bs3:1 phase=0.4
link bs3:0 d:0
link bs3:1 w:0
""")


@settings(max_examples=100, deadline=None)
@given(_ANGLES, _ANGLES, _ANGLES, _ANGLES)
def test_per_arm_views_agree_across_engines(alpha, beta, arm_phase, clock):
    """Arm k of a stream is hilbert's arm k times e^{i clock}, and the arms,
    each weighted 1/sqrt(fanout), add up to the whole source's sums."""
    circuits = [
        bghz_left_circuit(alpha),
        bghz_right_circuit(beta, arm_phase=arm_phase),
        reshifted(THREE_ARM, {"ps1": alpha, "ps2": beta}),
    ]
    for circuit in circuits:
        arms = stream_arms(circuit, clock)
        assert len(arms) == circuit.source_fanout(circuit.sole_source()) > 1
        for arm, reference in zip(arms, hilbert_arms(circuit)):
            assert set(arm) == set(reference)
            for key, amp in reference.items():
                assert abs(arm[key] - amp * cmath.exp(1j * clock)) < 1e-12
        whole = _stream_amplitudes(circuit, clock)
        for key, amp in whole.items():
            assert abs(sum(arm[key] / math.sqrt(len(arms)) for arm in arms) - amp) < 1e-15


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("two_arm_left", [True, False])
def test_pair_amplitudes_refuses_unequal_arm_counts(engine, two_arm_left):
    def arms(circuit):
        if engine == ENGINE_HILBERT:
            return hilbert_arms(circuit)
        return stream_arms(circuit, 0.3)

    sides = [arms(bghz_left_circuit(0.1)), arms(mach_zehnder_circuit(0.2))]
    if not two_arm_left:
        sides.reverse()
    with pytest.raises(ValueError, match="same number of source arms"):
        pair_amplitudes(*sides)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), clock_seed=st.integers(0, 2**32 - 1))
def test_any_corpus_circuit_agrees_and_conserves(seed, clock_seed):
    circuit = random_circuit(seed)
    (clock,) = initial_clocks([clock_seed])
    amps = _stream_amplitudes(circuit, clock)
    assert unitarity_defect(amps) < 1e-12
    probs_h = probabilities(hilbert_amplitudes(circuit))
    for key, p in probs_h.items():
        assert abs(amps[key]) ** 2 == pytest.approx(p, abs=1e-12)


# Two-arm source: the arms carry different phases into one splitter, so the
# equal-weight superposition the source emits interferes there.
TWO_ARM_TEXT = """\
element src source
element bs beamsplitter
element ps phaseshifter:0.7
element u detector:u
element d detector:d
link src:0 bs:0 phase=0.3
link src:1 ps:0 phase=1.9
link ps:0 bs:1
link bs:0 d:0
link bs:1 u:0
"""


def test_multi_arm_source_engines_agree_and_conserve():
    circuit = parse_circuit(TWO_ARM_TEXT)
    probs_h = probabilities(hilbert_amplitudes(circuit))
    for clock in initial_clocks(range(5)):
        assert unitarity_defect(_stream_amplitudes(circuit, clock)) < 1e-12
        probs_s = _stream_probabilities(circuit, clock)
        assert sum(probs_s.values()) == pytest.approx(1.0, abs=1e-12)
        for key, p in probs_h.items():
            assert probs_s[key] == pytest.approx(p, abs=1e-12)


# -- canned benches re-phased from one shared structure ----------------------------

ANGLES = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def _engine_results(circuit):
    return (
        row_amplitudes(circuit, 1.3),
        hilbert_amplitudes(circuit),
    )


@settings(max_examples=80, deadline=None)
@given(
    alpha=ANGLES,
    theta=ANGLES,
    arm_phase=ANGLES,
    blocked=st.sampled_from([None, "a", "b"]),
)
def test_shared_structure_gives_the_amplitudes_of_a_fresh_build(alpha, theta, arm_phase, blocked):
    """A canned bench from the builders' memo, whose path table and hilbert
    schedule are already compiled, equals the same circuit built anew by
    Circuit(...), on both engines."""
    builds = [
        lambda a: mach_zehnder_circuit(a, theta),
        lambda a: ifm_circuit(blocked),
        bghz_left_circuit,
        lambda a: bghz_right_circuit(a, arm_phase=arm_phase),
    ]
    for build in builds:
        _engine_results(build(alpha))  # compile the memoised structure first
        derived = build(alpha)
        fresh = Circuit(dict(derived.elements), derived.links)
        assert circuits_equal(derived, fresh)
        assert circuits_equal(parse_circuit(render_circuit(derived)), fresh)
        assert _engine_results(derived) == _engine_results(fresh)
    pair = (bghz_left_circuit(alpha), bghz_right_circuit(theta, arm_phase=arm_phase))
    fresh_pair = [Circuit(dict(side.elements), side.links) for side in pair]
    assert pair_amplitudes(*map(hilbert_arms, pair)) == pair_amplitudes(
        *map(hilbert_arms, fresh_pair)
    )
