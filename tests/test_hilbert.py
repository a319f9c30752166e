"""State-vector engine: unitarity, splitter algebra, canned benches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim import hilbert
from shadowsim.circuit import Circuit, Element, ElementType, Link
from shadowsim.experiments import (
    bghz_left_circuit,
    bghz_right_circuit,
    ifm_circuit,
    mach_zehnder_circuit,
    pair_amplitudes,
)
from shadowsim.streams import unitarity_defect
from reference import hilbert_amplitudes, hilbert_arms, probabilities


def _two_arm_circuit(body, links):
    """Two-arm source feeding ``body`` elements through ``links``."""
    elements = {"src": Element(ElementType.SOURCE), **body}
    return Circuit(elements, links)


def _double_splitter(phase0: float, phase1: float) -> Circuit:
    """Two splitters wired port to matched port: bs1's reflection-first
    outputs (1, 0) feed bs2's inputs (0, 1)."""
    body = {
        "bs1": Element(ElementType.BEAMSPLITTER),
        "bs2": Element(ElementType.BEAMSPLITTER),
        "p1": Element(ElementType.DETECTOR, label="p1"),
        "p2": Element(ElementType.DETECTOR, label="p2"),
    }
    links = [
        Link("src", 0, "bs1", 0, phase0),
        Link("src", 1, "bs1", 1, phase1),
        Link("bs1", 1, "bs2", 0),
        Link("bs1", 0, "bs2", 1),
        Link("bs2", 1, "p1", 0),
        Link("bs2", 0, "p2", 0),
    ]
    return _two_arm_circuit(body, links)


def _joint(left: Circuit, right: Circuit) -> dict:
    return pair_amplitudes(hilbert_arms(left), hilbert_arms(right))


def _pair_probabilities(alpha: float, beta: float) -> dict:
    joint = _joint(bghz_left_circuit(alpha), bghz_right_circuit(beta))
    return {key: abs(amp) ** 2 for key, amp in joint.items()}


S = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize(
    "block",
    [
        ((1.0, 1.0), (1.0, 1.0)),
        ((math.nan, S), (S, 1j * S)),
        # Unit columns that are not orthogonal: the first splitter, fed on one
        # port, keeps the norm; only the second splitter's interference breaks
        # it, so one bad step still shows at the end of the emission.
        ((1j * S, S), (S, -1j * S)),
    ],
    ids=["all-ones", "nan", "skew"],
)
def test_state_vector_enforces_unit_norm(monkeypatch, block):
    monkeypatch.setattr(hilbert, "_BS_BLOCK", block)
    with pytest.raises(ValueError, match="norm"):
        hilbert_amplitudes(mach_zehnder_circuit(0.3))


def test_basis_state_and_missing_mode():
    """An arm view starts from that arm alone; unreached terminals read 0."""
    body = {
        "a": Element(ElementType.DETECTOR, label="a"),
        "b": Element(ElementType.DETECTOR, label="b"),
        "idle": Element(ElementType.MIRROR),
        "c": Element(ElementType.DETECTOR, label="never-there"),
    }
    links = [Link("src", 0, "a", 0), Link("src", 1, "b", 0), Link("idle", 0, "c", 0)]
    amps = hilbert_amplitudes(_two_arm_circuit(body, links).arm(0))
    assert amps["a"] == 1.0
    assert amps["b"] == 0.0
    assert amps["never-there"] == 0.0


def test_phase_composes_additively():
    def chain(*shifts):
        elements = {
            "src": Element(ElementType.SOURCE),
            "det": Element(ElementType.DETECTOR, label="a"),
        }
        links, prev = [], "src"
        for i, shift in enumerate(shifts):
            elements[f"ps{i}"] = Element(ElementType.PHASESHIFTER, shift=shift)
            links.append(Link(prev, 0, f"ps{i}", 0))
            prev = f"ps{i}"
        links.append(Link(prev, 0, "det", 0))
        return hilbert_amplitudes(Circuit(elements, links))["a"]

    assert chain(0.4, 1.1) == pytest.approx(chain(1.5), abs=1e-15)


def test_double_splitter_through_matched_ports_is_identity_times_i():
    """Crossing the same splitter twice returns the input up to a factor i."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        phase0, phase1 = rng.uniform(0.0, 2 * math.pi, size=2)
        circuit = _double_splitter(float(phase0), float(phase1))
        m1, m2 = np.exp(1j * phase0) / math.sqrt(2), np.exp(1j * phase1) / math.sqrt(2)
        back = hilbert_amplitudes(circuit)
        assert back["p2"] == pytest.approx(1j * m1, abs=1e-12)
        assert back["p1"] == pytest.approx(1j * m2, abs=1e-12)


def test_splitter_preserves_norm_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        phase0, phase1 = rng.uniform(0.0, 2 * math.pi, size=2)
        amps = hilbert_amplitudes(_double_splitter(float(phase0), float(phase1)))
        assert unitarity_defect(amps) < 1e-12


def test_which_path_marking_is_born_rule():
    """Blocking either arm after the first splitter absorbs half the flux."""
    for arm in ("a", "b"):
        probs = probabilities(hilbert_amplitudes(ifm_circuit(arm)))
        assert probs["absorbed"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    ("alpha", "want_u"),
    [(0.0, 1.0), (math.pi, 0.0), (math.pi / 3, 0.75), (2.2, math.cos(1.1) ** 2)],
)
def test_mz_circuit_law(alpha, want_u):
    probs = probabilities(hilbert_amplitudes(mach_zehnder_circuit(alpha)))
    assert probs["u"] == pytest.approx(want_u, abs=1e-12)
    assert probs["d"] == pytest.approx(1 - want_u, abs=1e-12)


def test_mz_circuit_ignores_common_arm_phase():
    for theta in (0.0, 0.9, 4.0):
        probs = probabilities(hilbert_amplitudes(mach_zehnder_circuit(0.7, theta)))
        assert probs["u"] == pytest.approx(math.cos(0.35) ** 2, abs=1e-12)


def test_emission_unitarity_defect_is_tiny():
    amps = hilbert_amplitudes(ifm_circuit("b"))
    assert unitarity_defect(amps) < 1e-12
    assert sum(probabilities(amps).values()) == pytest.approx(1.0, abs=1e-12)


# -- pairs ---------------------------------------------------------------------------


def test_bghz_initial_state_is_maximally_correlated():
    """With nothing on either side, the pair leaves as (|a,a'> + |b,b'>)/sqrt 2."""
    def side(prime):
        body = {
            f"a{prime}": Element(ElementType.DETECTOR, label=f"a{prime}"),
            f"b{prime}": Element(ElementType.DETECTOR, label=f"b{prime}"),
        }
        links = [Link("src", 0, f"a{prime}", 0), Link("src", 1, f"b{prime}", 0)]
        return _two_arm_circuit(body, links)

    joint = _joint(side(""), side("'"))
    assert joint[("a", "a'")] == pytest.approx(1 / math.sqrt(2))
    assert joint[("b", "b'")] == pytest.approx(1 / math.sqrt(2))
    assert joint[("a", "b'")] == 0.0
    assert sum(abs(amp) ** 2 for amp in joint.values()) == pytest.approx(1.0, abs=1e-12)


def test_side_operations_commute_across_sides():
    """Each side evolves on its own tensor factor, so swapping which side is
    called left only transposes the joint table."""
    left, right = bghz_left_circuit(0.8), bghz_right_circuit(0.3)
    one = _joint(left, right)
    two = _joint(right, left)
    for (x, y), amp in one.items():
        assert amp == pytest.approx(two[(y, x)], abs=1e-14)


@pytest.mark.parametrize(("alpha", "beta"), [(0.0, 0.0), (0.4, 1.5), (5.0, 2.2)])
def test_hilbert_pair_law(alpha, beta):
    probs = _pair_probabilities(alpha, beta)
    half = 0.5 * (beta - alpha)
    assert probs[("u", "u'")] == pytest.approx(0.5 * math.cos(half) ** 2, abs=1e-12)
    assert probs[("d", "d'")] == pytest.approx(0.5 * math.cos(half) ** 2, abs=1e-12)
    assert probs[("u", "d'")] == pytest.approx(0.5 * math.sin(half) ** 2, abs=1e-12)
    assert probs[("d", "u'")] == pytest.approx(0.5 * math.sin(half) ** 2, abs=1e-12)


def test_bghz_marginals_are_unbiased():
    """Each side alone sees 1/2 - 1/2 whatever the shifts are."""
    for alpha, beta in [(0.0, 0.0), (1.0, 0.2), (2.9, 4.4)]:
        probs = _pair_probabilities(alpha, beta)
        left_u = probs[("u", "u'")] + probs[("u", "d'")]
        right_u = probs[("u", "u'")] + probs[("d", "u'")]
        assert left_u == pytest.approx(0.5, abs=1e-12)
        assert right_u == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_bghz_depends_only_on_shift_difference(alpha, beta):
    shifted = _pair_probabilities(alpha, beta)
    reference = _pair_probabilities(0.0, beta - alpha)
    for key, p in shifted.items():
        assert p == pytest.approx(reference[key], abs=1e-12)
