"""Canned experiments, sampling, and the CHSH battery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowsim import experiments as ex
from shadowsim.outcomes import OutcomeDistribution
from shadowsim.rng import make_rng

ENGINES = ("streams", "hilbert")
S_MAX = 2 * math.sqrt(2.0)
CANONICAL = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


# -- interferometer runners -----------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("alpha", [0.0, 0.7, math.pi / 2, 2.9, math.pi])
def test_mach_zehnder_follows_cosine_law(engine, alpha):
    dist = ex.mach_zehnder_points([(alpha, 1)], engine)[0]
    assert dist.probability("u") == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)
    assert dist.probability("d") == pytest.approx(math.sin(alpha / 2) ** 2, abs=1e-12)
    assert sum(dist.outcomes.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("engine", ENGINES)
def test_mach_zehnder_ignores_common_phase(engine):
    plain = ex.mach_zehnder_points([(1.1, 0)], engine)[0]
    shifted = ex.mach_zehnder_points([(1.1, 0)], engine, theta=2.3)[0]
    for key in ("u", "d"):
        assert shifted.probability(key) == pytest.approx(plain.probability(key), abs=1e-12)


def test_closed_form_matches_engines():
    for alpha in np.linspace(0.0, 2 * math.pi, 17):
        got = ex.mach_zehnder_points([(float(alpha), None)], "hilbert")[0]
        assert got.probability("u") == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        ex.mach_zehnder_points([(0.3, None)], "quantum")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("alpha", [0.0, 0.9, 1.7, 3.0])
def test_wheeler_peek_erases_interference(engine, alpha):
    dist = ex.wheeler_points([(alpha, 4)], True, engine)[0]
    assert dist.probability("u") == pytest.approx(0.5, abs=1e-12)
    assert dist.probability("d") == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("engine", ENGINES)
def test_wheeler_without_peek_is_plain_interferometer(engine):
    for alpha in (0.4, 2.1):
        peeked = ex.wheeler_points([(alpha, 4)], False, engine)[0]
        plain = ex.mach_zehnder_points([(alpha, 4)], engine)[0]
        for key in ("u", "d"):
            assert peeked.probability(key) == pytest.approx(plain.probability(key), abs=1e-12)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("arm", ["a", "b"])
def test_bomb_tester_splits_half_quarter_quarter(engine, arm):
    dist = ex.run_ifm(arm, engine, seed=9)
    assert dist.probability("absorbed") == pytest.approx(0.5, abs=1e-12)
    assert dist.probability("u") == pytest.approx(0.25, abs=1e-12)
    assert dist.probability("d") == pytest.approx(0.25, abs=1e-12)
    assert sum(dist.outcomes.values()) == pytest.approx(1.0, abs=1e-12)


def test_bomb_tester_rejects_unknown_arm():
    with pytest.raises(ValueError):
        ex.run_ifm("c", "streams")


@pytest.mark.parametrize("engine", ENGINES)
def test_pair_outcomes_follow_difference_law(engine):
    for alpha, beta in [(0.0, 0.0), (0.4, 1.5), (2.0, 0.3)]:
        dist = ex.bghz_points([(alpha, beta, 2)], engine)[0]
        same = 0.5 * math.cos((beta - alpha) / 2) ** 2
        diff = 0.5 * math.sin((beta - alpha) / 2) ** 2
        assert dist.probability(("u", "u'")) == pytest.approx(same, abs=1e-12)
        assert dist.probability(("d", "d'")) == pytest.approx(same, abs=1e-12)
        assert dist.probability(("u", "d'")) == pytest.approx(diff, abs=1e-12)
        assert dist.probability(("d", "u'")) == pytest.approx(diff, abs=1e-12)


@pytest.mark.parametrize("engine", ENGINES)
def test_pair_outcomes_correlate_perfectly_at_equal_settings(engine):
    dist = ex.bghz_points([(1.234, 1.234, 2)], engine)[0]
    assert dist.probability(("u", "d'")) == pytest.approx(0.0, abs=1e-12)
    assert dist.probability(("d", "u'")) == pytest.approx(0.0, abs=1e-12)


def test_pair_marginals_are_even():
    dist = ex.bghz_points([(0.8, 2.1, None)], "hilbert")[0]
    left_u = sum(p for (l, _), p in dist.outcomes.items() if l == "u")
    assert left_u == pytest.approx(0.5, abs=1e-12)


# -- sampling -----------------------------------------------------------------


def test_sampling_is_reproducible():
    dist = ex.mach_zehnder_points([(1.3, 6)], "streams")[0]
    first = ex.sample(dist, 500, seed=42)
    second = ex.sample(dist, 500, seed=42)
    assert first.counts == second.counts


def test_sampling_seeds_differ():
    dist = ex.mach_zehnder_points([(math.pi / 2, 6)], "streams")[0]
    a = ex.sample(dist, 2000, seed=1)
    b = ex.sample(dist, 2000, seed=2)
    assert a.counts != b.counts


def test_sampling_sure_outcome_never_wavers():
    dist = ex.mach_zehnder_points([(0.0, 6)], "streams")[0]
    result = ex.sample(dist, 5000, seed=3)
    assert result.counts["u"] == 5000
    assert result.counts.get("d", 0) == 0


def test_sample_frequencies_track_probabilities():
    shots = 1_000_000
    dist = ex.mach_zehnder_points([(0.9, 6)], "streams")[0]
    result = ex.sample(dist, shots, seed=8)
    for key in ("u", "d"):
        p = dist.probability(key)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(result.frequencies[key] - p) < 4 * sigma


def test_counts_sum_to_shots():
    dist = ex.mach_zehnder_points([(0.7, 6)], "streams")[0]
    result = ex.sample(dist, 200_001, seed=11)
    assert sum(result.counts.values()) == 200_001


def test_sample_rejects_empty_run():
    dist = ex.mach_zehnder_points([(0.7, None)], "streams")[0]
    with pytest.raises(ValueError, match="shots"):
        ex.sample(dist, 0)


CHUNK = ex.SHOT_CHUNK
EDGE_SHOTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]


def _weighted(weights):
    total = sum(weights)
    return OutcomeDistribution({f"o{j}": w / total for j, w in enumerate(weights)}, "hilbert")


def _assert_counts_match_choice(dist, shots, seed):
    """sample() counts exactly what Generator.choice would have drawn."""
    probs = np.array(list(dist.outcomes.values()))
    p = probs / probs.sum()
    k = len(p)
    want = np.bincount(make_rng(seed).choice(k, size=shots, p=p), minlength=k)
    assert list(ex.sample(dist, shots, seed).counts.values()) == want.tolist()


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(0, 5), min_size=1, max_size=8).filter(any),
    shots=st.one_of(st.sampled_from(EDGE_SHOTS), st.integers(1, 200_000)),
    seed=st.integers(0, 2**32),
)
def test_sample_counts_equal_choice(weights, shots, seed):
    _assert_counts_match_choice(_weighted(weights), shots, seed)


@pytest.mark.parametrize("weights", [
    [1], [0, 1], [1, 0], [0, 2, 1], [2, 0, 1], [2, 1, 0], [0, 1, 0, 3, 0, 0, 1, 0],
])
@pytest.mark.parametrize("shots", EDGE_SHOTS)
def test_sample_counts_equal_choice_with_empty_outcomes(weights, shots):
    _assert_counts_match_choice(_weighted(weights), shots, seed=5)


def test_sample_memory_does_not_grow_with_shots():
    dist = ex.mach_zehnder_points([(0.9, None)], "hilbert")[0]
    tracemalloc.start()
    try:
        ex.sample(dist, 2**22, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_distribution_refuses_non_finite_probability(bad):
    with pytest.raises(ValueError, match="outside"):
        OutcomeDistribution({"a": bad, "b": 1.0}, "hilbert")


@pytest.mark.parametrize("outcomes", [{"a": float("nan"), "b": 1.0}, {"a": -0.5, "b": 1.5}])
def test_sample_refuses_what_choice_refused(outcomes):
    dist = ex.mach_zehnder_points([(0.7, None)], "hilbert")[0]
    object.__setattr__(dist, "outcomes", outcomes)  # past the constructor's checks
    with pytest.raises(ValueError, match="probabilities"):
        ex.sample(dist, 10, seed=1)


# -- CHSH ---------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_chsh_hits_tsirelson_at_canonical_angles(engine):
    report = ex.chsh_points([(CANONICAL, None)], engine)[0]
    assert report.s_value == pytest.approx(S_MAX, abs=1e-9)
    assert report.violation


def test_chsh_correlators_are_cosines():
    report = ex.chsh_points([((0.1, 0.9, 0.3, 1.4), None)], "hilbert")[0]
    for (x, y), value in report.correlations.items():
        assert value == pytest.approx(math.cos(y - x), abs=1e-12)


def test_chsh_collapses_at_equal_angles():
    report = ex.chsh_points([((0.5, 0.5, 0.5, 0.5), None)], "hilbert")[0]
    assert report.s_value == pytest.approx(2.0, abs=1e-12)
    assert not report.violation


def test_chsh_is_translation_invariant():
    base = ex.chsh_points([(CANONICAL, None)], "hilbert")[0]
    shifted = ex.chsh_points([([angle + 0.37 for angle in CANONICAL], None)], "hilbert")[0]
    assert shifted.s_value == pytest.approx(base.s_value, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4))
def test_chsh_never_exceeds_tsirelson(angles):
    report = ex.chsh_points([(angles, None)], "hilbert")[0]
    assert abs(report.s_value) <= S_MAX + 1e-9


def test_chsh_monte_carlo_reproduces_and_violates():
    first = ex.chsh_points([(CANONICAL, 13)], "streams", shots=200_000)[0]
    second = ex.chsh_points([(CANONICAL, 13)], "streams", shots=200_000)[0]
    assert first.s_value == second.s_value
    assert first.s_value > 2.4
    assert first.shots == 200_000
    other = ex.chsh_points([(CANONICAL, 14)], "streams", shots=200_000)[0]
    assert other.s_value != first.s_value


def test_chsh_report_rejects_impossible_correlator():
    with pytest.raises(ValueError):
        ex.ChshReport(
            correlations={(0.0, 0.1): 1.5},
            s_value=2.0,
            violation=False,
            engine="hilbert",
        )
