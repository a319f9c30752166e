"""Seeded-randomness contract: one integer reproduces everything, and the
batched derivations give numpy's draws bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowsim import checks, cli, streams
from shadowsim.rng import RNG_NAME, _entropy, child_seeds, make_rng, uniform_draws

TWO_PI = 2.0 * math.pi
# Word-count edges of SeedSequence's entropy: one, two, three, five and seven words.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128, 2**200]
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1]

seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**200))
indices = st.one_of(st.sampled_from(EDGE_INDICES), st.integers(0, 2**40))


def numpy_child_seed(seed: int, index: int) -> int:
    """The draw from child ``index`` of SeedSequence(seed).spawn, built by its
    spawn key so that an index past 2**32 costs nothing."""
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return int(np.random.default_rng(child).integers(2**63))


def numpy_clock(seed: int) -> float:
    """An emission clock as tests/reference.py draws it."""
    return float(np.random.default_rng(seed).uniform(0.0, TWO_PI))


def test_name_constant():
    assert RNG_NAME == "numpy-pcg64"


def test_same_seed_same_draws():
    a = make_rng(123).random(10)
    b = make_rng(123).random(10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 9, 2**63 - 1, 2**128])
def test_child_seed_reference_is_the_spawned_child(seed):
    for index in (0, 1, 5, 500):
        child = np.random.SeedSequence(seed).spawn(index + 1)[index]
        want = int(np.random.default_rng(child).integers(2**63))
        assert numpy_child_seed(seed, index) == want
        assert child_seeds([(seed, index)]) == [want]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(seeds, indices), min_size=1, max_size=8))
@example([(seed, index) for seed in EDGE_SEEDS for index in EDGE_INDICES])
def test_child_seeds_equal_numpy_bit_for_bit(pairs):
    assert child_seeds(pairs) == [numpy_child_seed(seed, index) for seed, index in pairs]


@settings(max_examples=60, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=8))
@example(EDGE_SEEDS)
def test_uniform_draws_equal_numpy_bit_for_bit(batch):
    assert uniform_draws(batch, TWO_PI) == [numpy_clock(seed) for seed in batch]


def test_a_batch_of_one_length_equals_numpy():
    pairs = [(20260814, i) for i in range(501)]
    assert child_seeds(pairs) == [numpy_child_seed(seed, i) for seed, i in pairs]
    assert uniform_draws(range(501), TWO_PI) == [numpy_clock(seed) for seed in range(501)]


def test_empty_batches():
    assert child_seeds([]) == []
    assert uniform_draws([], TWO_PI) == []


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        uniform_draws([-1], TWO_PI)
    with pytest.raises(ValueError):
        child_seeds([(-1, 0)])
    with pytest.raises(ValueError):
        child_seeds([(0, -1)])


def test_unseeded_draws_are_fresh_and_in_range():
    clocks = uniform_draws([None, None], TWO_PI) + uniform_draws([None], TWO_PI)
    assert all(0.0 <= clock < TWO_PI for clock in clocks)
    assert len(set(clocks)) == 3
    children = child_seeds([(None, 0), (None, 0)]) + child_seeds([(None, 0)])
    assert all(0 <= seed < 2**63 for seed in children)
    assert len(set(children)) == 3


def test_fresh_entropy_is_four_words_and_differs_per_call():
    first, second = _entropy(None), _entropy(None)
    assert len(first) == len(second) == 4
    assert all(0 <= word < 2**32 for word in first + second)
    assert first != second


def test_child_seeds_are_deterministic_and_differ_across_indices():
    pairs = [(9, i) for i in range(20)]
    first = child_seeds(pairs)
    assert child_seeds(pairs) == first
    assert child_seeds(pairs[::-1]) == first[::-1]
    assert len(set(first)) == 20


def _counting(real, built: list, name: str):
    def make(*args, **kwargs):
        built.append(name)
        return real(*args, **kwargs)
    return make


def test_seeded_sweep_builds_no_numpy_seed_sequence(monkeypatch, tmp_path):
    built: list[str] = []
    for name in ("SeedSequence", "default_rng"):
        monkeypatch.setattr(np.random, name, _counting(getattr(np.random, name), built, name))
    out = tmp_path / "mz.csv"
    argv = ["sweep", "mz", "--grid", "0:2pi:501", "--engine", "both", "--seed", "7",
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text().count("\n") == 2 + 4 * 501
    assert built == []


def test_check_derives_the_corpus_clocks_in_one_call(monkeypatch):
    calls: list[list] = []

    def recording(seeds, high):
        calls.append(list(seeds))
        return uniform_draws(calls[-1], high)

    monkeypatch.setattr(streams, "uniform_draws", recording)
    cases = 200
    results = checks.run_all(corpus_cases=cases, shots=checks.MIN_SHOTS, seed=5)
    assert all(result.passed for result in results)
    assert calls.count(list(range(cases))) == 1
    assert len(calls) < cases
