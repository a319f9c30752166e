"""Stream engine: clock amplitudes, unitarity, pairs, congruence."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim.circuit import parse_circuit
from shadowsim.corpus import random_circuit
from shadowsim import experiments
from shadowsim.experiments import (
    bghz_left_circuit,
    bghz_right_circuit,
    ifm_circuit,
    mach_zehnder_circuit,
    pair_amplitudes,
    run_bghz,
)
from shadowsim.rng import make_rng
from shadowsim.streams import (
    INV_SQRT2,
    build_stream,
    congruence_check,
    stream_terminal_amplitudes,
    terminal_probabilities,
    unitarity_defect,
)
from reference import PathClock, bghz_streams, enumerate_paths, path_amplitude, stream_arms

# Frozen from the closed forms (1/2)e^{i theta} i (e^{i alpha} + 1) and
# (1/2)e^{i theta}(e^{i alpha} - 1), evaluated independently of the engine.
MZ_AMP_ORACLE = [
    # (alpha, theta, amp_u, amp_d)
    (
        math.pi / 3,
        0.2,
        -0.573383275001593 + 0.6490235896702428j,
        -0.33104298817099886 + 0.3747139442065318j,
    ),
    (
        1.9,
        0.0,
        -0.47315004384370724 + 0.3383552165682483j,
        -0.6616447834317517 + 0.47315004384370724j,
    ),
]

# Frozen joint amplitudes of the pair bench at (alpha, beta) = (0.4, 1.5):
# (1/sqrt 2)(<x|a><y'|a'> + <x|b><y'|b'>) with the per-arm closed forms.
BGHZ_JOINT_ORACLE = {
    ("u", "u'"): -0.490347909896091 + 0.35065361486362745j,
    ("u", "d'"): -0.3006348598822344 + 0.21498755933122013j,
    ("d", "u'"): 0.3006348598822344 - 0.21498755933122013j,
    ("d", "d'"): -0.490347909896091 + 0.35065361486362745j,
}


def test_path_clock_stays_unit():
    clock = PathClock(0.3).advanced(5.0).advanced(-11.2).advanced(123.0)
    assert abs(abs(clock.amplitude()) - 1.0) == 0.0
    assert 0.0 <= clock.phase < 2 * math.pi


@pytest.mark.parametrize(("alpha", "theta", "amp_u", "amp_d"), MZ_AMP_ORACLE)
def test_mz_amplitudes_match_frozen_oracle(alpha, theta, amp_u, amp_d):
    circuit = mach_zehnder_circuit(alpha, theta)
    stream = build_stream(circuit, initial_clock=0.0)
    amps = stream_terminal_amplitudes(stream)
    assert amps["u"] == pytest.approx(amp_u, abs=1e-12)
    assert amps["d"] == pytest.approx(amp_d, abs=1e-12)


def test_mz_amplitudes_up_to_global_phase():
    """A nonzero clock multiplies every amplitude by the same unit phase."""
    circuit = mach_zehnder_circuit(0.9, 0.1)
    plain = stream_terminal_amplitudes(build_stream(circuit, initial_clock=0.0))
    for clock in (0.4, 2.2, 5.9):
        rotated = stream_terminal_amplitudes(build_stream(circuit, initial_clock=clock))
        factor = cmath.exp(1j * clock)
        for key in plain:
            assert rotated[key] == pytest.approx(plain[key] * factor, abs=1e-12)


def test_path_amplitude_magnitude_counts_crossings():
    circuit = mach_zehnder_circuit(1.1)
    stream = build_stream(circuit, seed=0)
    for path, amp in zip(enumerate_paths(circuit), stream.amplitudes, strict=True):
        crossings = sum(1 for eid, _i, _o in path.steps if eid.startswith("bs"))
        assert abs(amp) == pytest.approx(INV_SQRT2**crossings, abs=1e-15)


def test_blocked_arm_splits_half_quarter_quarter():
    stream = build_stream(ifm_circuit("a"), seed=1)
    probs = terminal_probabilities(stream)
    assert probs["absorbed"] == pytest.approx(0.5, abs=1e-12)
    assert probs["u"] == pytest.approx(0.25, abs=1e-12)
    assert probs["d"] == pytest.approx(0.25, abs=1e-12)
    assert unitarity_defect(stream) < 1e-12


def test_probabilities_independent_of_clock():
    circuit = mach_zehnder_circuit(0.77, 0.3)
    reference = terminal_probabilities(build_stream(circuit, initial_clock=0.0))
    for clock in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        probs = terminal_probabilities(build_stream(circuit, initial_clock=float(clock)))
        for key, value in reference.items():
            assert abs(probs[key] - value) < 1e-14


def test_build_stream_reproducible_from_seed():
    circuit = mach_zehnder_circuit(2.0)
    one = build_stream(circuit, seed=99)
    two = build_stream(circuit, seed=99)
    assert one.initial_clock == two.initial_clock
    assert one.amplitudes == two.amplitudes


# -- path table against the path-by-path reference ------------------------------

CLOCKS = (0.0, 1.3, math.pi, 5.9, math.nextafter(2 * math.pi, 0.0))

TWO_ARM_TEXT = """\
element src source
element bs beamsplitter
element ps phaseshifter:0.7
element u detector:u
element d detector:d
link src:0 bs:0 phase=0.3
link src:1 ps:0 phase=2.1
link ps:0 bs:1
link bs:0 d:0
link bs:1 u:0
"""


def _assert_bitwise_reference(circuit, clock):
    """The table evaluation equals path_amplitude exactly, path for path."""
    reference = tuple(path_amplitude(p, circuit, clock) for p in enumerate_paths(circuit))
    assert build_stream(circuit, initial_clock=clock).amplitudes == reference


def test_table_amplitudes_equal_reference_on_the_corpus():
    for seed in range(500):
        circuit = random_circuit(seed)
        for clock in CLOCKS:
            _assert_bitwise_reference(circuit, clock)


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_circuit(TWO_ARM_TEXT),
        lambda: bghz_left_circuit(0.4),
        lambda: bghz_right_circuit(1.5, arm_phase=0.3),
        lambda: mach_zehnder_circuit(2.0, 0.25),
    ],
)
@pytest.mark.parametrize("clock", CLOCKS)
def test_table_amplitudes_equal_reference(build, clock):
    _assert_bitwise_reference(build(), clock)


def test_table_amplitudes_equal_reference_on_a_ladder(ladder_text):
    circuit = parse_circuit(ladder_text(10))
    for clock in CLOCKS:
        _assert_bitwise_reference(circuit, clock)


def test_terminal_sums_follow_table_order(ladder_text):
    circuit = parse_circuit(ladder_text(6))
    stream = build_stream(circuit, initial_clock=2.5)
    sums = {key: 0.0 + 0.0j for key in circuit.terminal_keys()}
    for path, amp in zip(enumerate_paths(circuit), stream.amplitudes, strict=True):
        sums[circuit.terminal_key(path.terminal)] += amp
    assert stream_terminal_amplitudes(stream) == sums


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_unitarity_on_random_circuits(seed):
    stream = build_stream(random_circuit(seed), seed=seed)
    assert unitarity_defect(stream) < 1e-12


# -- stream pairs ---------------------------------------------------------------


def test_pair_daughters_share_one_clock(monkeypatch):
    """run_bghz builds both daughters under the one clock drawn from its seed."""
    built = []

    def recording_build(*args, **kwargs):
        built.append(build_stream(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiments, "build_stream", recording_build)
    run_bghz(0.2, 1.0, "streams", seed=5)
    clock = float(make_rng(5).uniform(0.0, 2.0 * math.pi))
    assert [stream.initial_clock for stream in built] == [clock, clock]


def _joint(left, right):
    return pair_amplitudes(stream_arms(left), stream_arms(right))


def test_joint_amplitudes_match_frozen_oracle():
    left, right = bghz_streams(0.4, 1.5, seed=11)
    joint = _joint(left, right)
    rotation = cmath.exp(2j * left.initial_clock)
    for key, want in BGHZ_JOINT_ORACLE.items():
        assert joint[key] == pytest.approx(want * rotation, abs=1e-12)


def _joint_probabilities(pair):
    return {key: abs(amp) ** 2 for key, amp in _joint(*pair).items()}


def test_joint_probabilities_normalized_and_correct():
    for alpha, beta in [(0.0, 0.0), (0.4, 1.5), (3.0, 0.7)]:
        pair = bghz_streams(alpha, beta, seed=3)
        probs = _joint_probabilities(pair)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        half = 0.5 * (beta - alpha)
        assert probs[("u", "u'")] == pytest.approx(0.5 * math.cos(half) ** 2, abs=1e-12)
        assert probs[("u", "d'")] == pytest.approx(0.5 * math.sin(half) ** 2, abs=1e-12)


def test_perfect_correlation_at_equal_shifts():
    pair = bghz_streams(1.234, 1.234, seed=8)
    probs = _joint_probabilities(pair)
    assert probs[("u", "u'")] == pytest.approx(0.5, abs=1e-12)
    assert probs[("d", "d'")] == pytest.approx(0.5, abs=1e-12)
    assert probs[("u", "d'")] == pytest.approx(0.0, abs=1e-12)
    assert probs[("d", "u'")] == pytest.approx(0.0, abs=1e-12)


# -- congruence ------------------------------------------------------------------


def test_congruence_holds_on_symmetric_bench():
    for alpha in np.linspace(0, 2 * math.pi, 8):
        for beta in np.linspace(0, 2 * math.pi, 8):
            report = congruence_check(*bghz_streams(float(alpha), float(beta), seed=2))
            assert report.identity_deviation < 1e-12
            assert report.refactoring_deviation < 1e-12


def test_congruence_cross_term_value_at_zero_shifts():
    """At alpha = beta = 0 the u-u' sum of products is exactly i (before
    the pairing weight), up to the shared clock rotation."""
    pair = bghz_streams(0.0, 0.0, seed=4)
    report = congruence_check(*pair)
    rotation = cmath.exp(2j * pair[0].initial_clock)
    assert report.cross_terms[("u", "u'")] / rotation == pytest.approx(1j, abs=1e-12)


def test_congruence_detects_desymmetrized_geometry():
    pair = bghz_streams(0.8, 2.1, seed=5, arm_phase=0.3)
    report = congruence_check(*pair)
    # the plain arms now differ by e^{0.3i}, so |1 - e^{0.3i}|/sqrt(2)
    expected = abs(1 - cmath.exp(0.3j)) / math.sqrt(2)
    assert report.identity_deviation == pytest.approx(expected, rel=1e-9)
    assert report.refactoring_deviation > 0.01


def test_refactored_terms_use_single_side_products():
    """The rewritten form must equal the cross form term by term, which is
    the numerical content of the locality rearrangement."""
    pair = bghz_streams(1.1, 0.3, seed=9)
    report = congruence_check(*pair)
    assert set(report.cross_terms) == set(report.refactored_terms)
    for key, value in report.cross_terms.items():
        assert report.refactored_terms[key] == pytest.approx(value, abs=1e-12)
