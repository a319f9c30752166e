"""Helpers of the invariant suite against their library references, and the
rule that turns a check's deviations into its verdict."""

import inspect
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from shadowsim import checks
from shadowsim.checks import _chi2_sf

NAN = complex(math.nan, 0.0)


@pytest.mark.parametrize("df", range(1, 9))
def test_chi2_survival_matches_scipy(df):
    for x in np.concatenate([[0.0], np.geomspace(1e-6, 150.0, 300)]):
        want = float(stats.chi2.sf(x, df))
        assert abs(_chi2_sf(float(x), df) - want) <= 1e-12 * want


def test_chi2_survival_needs_a_degree_of_freedom():
    with pytest.raises(ValueError, match="df >= 1"):
        _chi2_sf(1.0, 0)


@pytest.mark.parametrize(
    "deviations",
    [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan], []],
    ids=["nan-first", "nan-middle", "nan-last", "empty"],
)
def test_worst_counts_a_nan_or_nothing_as_infinite(deviations):
    assert checks._worst(deviations) == math.inf
    assert checks._worst(iter(deviations)) == math.inf


def test_worst_is_the_largest_deviation():
    assert checks._worst([3e-16, 0.0, 1e-15, 2e-16]) == 1e-15


def _last_setting_nan(monkeypatch):
    """Patches the checks' terminal_amplitudes so that the last setting of
    each call reads NaN on every terminal, after the real amplitudes."""
    real = checks.terminal_amplitudes

    def patched(circuit, settings, *args, **kwargs):
        *head, last = real(circuit, settings, *args, **kwargs)
        return iter([*head, dict.fromkeys(last, NAN)])

    monkeypatch.setattr(checks, "terminal_amplitudes", patched)


@pytest.mark.parametrize(
    "check", [checks.check_mz_stream_amplitudes, checks.check_clock_invariance]
)
def test_a_nan_amplitude_fails_the_check(check, monkeypatch):
    assert check().passed
    _last_setting_nan(monkeypatch)
    result = check()
    assert not result.passed
    assert result.detail.endswith("= inf")


def _corpus_with_a_nan(cases=3):
    corpus = list(checks._corpus(cases))
    circuit, amplitudes = corpus[1]
    key = next(iter(amplitudes))
    corpus[1] = (circuit, {**amplitudes, key: NAN})
    return corpus


@pytest.mark.parametrize("check", [checks.check_cross_engine, checks.check_unitarity])
def test_a_nan_amplitude_in_one_corpus_circuit_fails(check):
    assert check(list(checks._corpus(3))).passed
    result = check(_corpus_with_a_nan())
    assert not result.passed
    assert result.detail.startswith("3 circuits") and result.detail.endswith("= inf")


def test_an_empty_corpus_fails():
    assert not checks.check_cross_engine([]).passed
    assert not checks.check_unitarity([]).passed


def test_a_nan_p_value_fails_sampling(monkeypatch):
    assert checks.check_sampling(shots=1000).passed
    monkeypatch.setattr(checks, "_chi2_sf", lambda statistic, df: math.nan)
    result = checks.check_sampling(shots=1000)
    assert not result.passed
    assert result.detail == "min p-value = 0"


def test_sampling_reads_no_fresh_entropy(monkeypatch):
    """Every distribution check_sampling samples runs under the clock seed 0
    draws, so the check reads no OS entropy and its chi-square statistics
    are the same bits on every run."""
    def no_entropy(size):
        raise AssertionError("os.urandom called")

    real, statistics = checks._chi2_sf, []

    def recorded(statistic, df):
        statistics.append(statistic.hex())
        return real(statistic, df)

    monkeypatch.setattr(os, "urandom", no_entropy)
    monkeypatch.setattr(checks, "_chi2_sf", recorded)
    assert checks.check_sampling(shots=1000).passed
    assert checks.check_sampling(shots=1000).passed
    assert len(statistics) == 8 and statistics[:4] == statistics[4:]


def test_width_law_and_crank_nicolson_share_one_propagation(monkeypatch):
    calls = []
    real = checks.pathintegral.propagate_snapshots

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(checks.pathintegral, "propagate_snapshots", counted)
    checks._free_packet.cache_clear()
    assert checks.check_width_law().passed
    assert checks.check_cn_agreement().passed
    assert len(calls) == 1


def test_every_per_check_metric_names_a_check_function():
    """Each ``checks.<fn>.s`` per-layer metric of BENCHMARK.json names a
    public function of shadowsim.checks, so renaming a check cannot leave
    the benchmark timing nothing."""
    benchmark = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["per_layer"]]
    functions = [name[len("checks."):-len(".s")] for name in names
                 if name.startswith("checks.check_") and name.endswith(".s")]
    assert functions
    for name in functions:
        assert inspect.isfunction(getattr(checks, name, None)), name
