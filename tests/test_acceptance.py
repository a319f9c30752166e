"""Acceptance battery: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from shadowsim import pathintegral
from shadowsim.checks import _congruence_deviations
from shadowsim.corpus import random_circuit
from shadowsim.experiments import (
    bghz_points,
    chsh_points,
    mach_zehnder_circuit,
    mach_zehnder_points,
    run_ifm,
    wheeler_points,
)
from shadowsim.streams import initial_clocks, terminal_amplitudes
from reference import bghz_streams, hilbert_amplitudes, probabilities

S_MAX = 2 * math.sqrt(2.0)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}  {name}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_interferometer_law():
    start = time.perf_counter()
    worst = 0.0
    for alpha in np.linspace(0.0, 2 * math.pi, 64):
        for engine in ("streams", "hilbert"):
            dist = mach_zehnder_points([(float(alpha), 1)], engine)[0]
            worst = max(
                worst,
                abs(dist.probability("u") - math.cos(alpha / 2) ** 2),
                abs(dist.probability("d") - math.sin(alpha / 2) ** 2),
            )
    elapsed = time.perf_counter() - start
    _report(
        1, "interferometer law", worst < 1e-12 and elapsed < 1.0,
        f"max |dP| = {worst:.3e} over 64 angles, both engines, {elapsed:.2f}s",
    )


def test_criterion_02_stream_amplitude_forms():
    worst = 0.0
    alphas = np.linspace(0.0, 2 * math.pi, 16)
    for clock, alpha in zip(initial_clocks(range(len(alphas))), alphas):
        for theta in (0.0, 0.7, 2.0):
            (amps,) = terminal_amplitudes(mach_zehnder_circuit(float(alpha), theta), [({}, clock)])
            want = {
                "u": 0.5j * np.exp(1j * theta) * (np.exp(1j * alpha) + 1.0),
                "d": 0.5 * np.exp(1j * theta) * (np.exp(1j * alpha) - 1.0),
            }
            anchor = max(want, key=lambda k: abs(want[k]))
            phase = amps[anchor] / want[anchor]
            worst = max(worst, abs(abs(phase) - 1.0))
            for port, target in want.items():
                worst = max(worst, abs(amps[port] - phase * target))
    _report(
        2, "stream amplitude forms", worst < 1e-12,
        f"max deviation up to global phase = {worst:.3e}",
    )


def test_criterion_03_pair_joint_law():
    worst = 0.0
    correlation = 0.0
    grid = np.linspace(0.0, 2 * math.pi, 8)
    for alpha in grid:
        for beta in grid:
            half = 0.5 * (beta - alpha)
            want = {
                ("u", "u'"): 0.5 * math.cos(half) ** 2,
                ("d", "d'"): 0.5 * math.cos(half) ** 2,
                ("u", "d'"): 0.5 * math.sin(half) ** 2,
                ("d", "u'"): 0.5 * math.sin(half) ** 2,
            }
            for engine in ("streams", "hilbert"):
                dist = bghz_points([(float(alpha), float(beta), 3)], engine)[0]
                for key, p in want.items():
                    worst = max(worst, abs(dist.probability(key) - p))
        equal = bghz_points([(float(alpha), float(alpha), 3)], "streams")[0]
        correlation = max(
            correlation,
            equal.probability(("u", "d'")),
            equal.probability(("d", "u'")),
        )
    _report(
        3, "pair joint law", worst < 1e-12 and correlation < 1e-12,
        f"max |dP| = {worst:.3e}, equal-setting mismatch = {correlation:.3e}",
    )


def test_criterion_04_locality_refactoring():
    worst = 0.0
    grid = np.linspace(0.0, 2 * math.pi, 8)
    for alpha in grid:
        for beta in grid:
            deviations = _congruence_deviations(*bghz_streams(float(alpha), float(beta), seed=7))
            worst = max(worst, *deviations)
    _report(
        4, "locality refactoring", worst < 1e-12,
        f"max congruence/refactoring deviation = {worst:.3e}",
    )


def test_criterion_05_bell_violation():
    start = time.perf_counter()
    angles = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
    exact_err = 0.0
    for engine in ("streams", "hilbert"):
        report = chsh_points([(angles, None)], engine)[0]
        exact_err = max(exact_err, abs(report.s_value - S_MAX))
    shots = 1_000_000
    mc = chsh_points([(angles, 20260814)], "streams", shots=shots)[0]
    sigma_s = 2.0 / math.sqrt(shots)
    mc_ok = mc.s_value >= 2.4 and abs(mc.s_value - S_MAX) <= 4 * sigma_s
    elapsed = time.perf_counter() - start
    _report(
        5, "bell violation", exact_err < 1e-9 and mc_ok and elapsed < 30.0,
        f"|S - 2sqrt2| = {exact_err:.2e} exact, S = {mc.s_value:.4f} "
        f"from {shots} shots per setting, {elapsed:.1f}s",
    )


def test_criterion_06_interaction_free_measurement():
    worst = 0.0
    for engine in ("streams", "hilbert"):
        for arm in ("a", "b"):
            dist = run_ifm(arm, engine, seed=5)
            worst = max(
                worst,
                abs(dist.probability("absorbed") - 0.5),
                abs(dist.probability("u") - 0.25),
                abs(dist.probability("d") - 0.25),
            )
        clear = run_ifm(None, engine, seed=5)
        worst = max(worst, abs(clear.probability("u") - 1.0))
    _report(6, "interaction-free measurement", worst < 1e-12, f"max |dP| = {worst:.3e}")


def test_criterion_07_delayed_choice():
    worst_peek = 0.0
    worst_plain = 0.0
    for alpha in np.linspace(0.0, 2 * math.pi, 64):
        for engine in ("streams", "hilbert"):
            peeked = wheeler_points([(float(alpha), 2)], True, engine)[0]
            worst_peek = max(
                worst_peek,
                abs(peeked.probability("u") - 0.5),
                abs(peeked.probability("d") - 0.5),
            )
            plain = wheeler_points([(float(alpha), 2)], False, engine)[0]
            worst_plain = max(
                worst_plain, abs(plain.probability("u") - math.cos(alpha / 2) ** 2)
            )
    _report(
        7, "delayed choice", worst_peek < 1e-12 and worst_plain < 1e-12,
        f"peek flatness = {worst_peek:.3e}, no-peek law = {worst_plain:.3e}",
    )


def test_criterion_08_engine_cross_validation():
    cases = 500
    worst = 0.0
    for i, clock in enumerate(initial_clocks(range(cases))):
        circuit = random_circuit(i)
        (amps,) = terminal_amplitudes(circuit, [({}, clock)])
        probs_h = probabilities(hilbert_amplitudes(circuit))
        for key, p in probs_h.items():
            worst = max(worst, abs(abs(amps[key]) ** 2 - p))
    _report(
        8, "engine cross-validation", worst < 1e-12,
        f"{cases} randomized circuits, max |dP| = {worst:.3e}",
    )


def test_criterion_09_lattice_propagator():
    start = time.perf_counter()
    sigma0 = 1.5
    x = pathintegral.uniform_grid(1024, -30.0, 30.0)
    wf = pathintegral.gaussian_packet(x, 0.0, sigma0)

    width_err = 0.0
    for steps in (4, 10):
        [(_, final)], _ = pathintegral.propagate_snapshots(wf, 0.5, [steps * 0.5])
        t = final.t
        density = final.probability_density()
        var = float(np.sum(final.x**2 * density) * final.dx)
        want = sigma0**2 * (1.0 + (t / (2 * sigma0**2)) ** 2)
        width_err = max(width_err, abs(var - want) / want)

    [(_, lattice)], _ = pathintegral.propagate_snapshots(wf, 0.5, [10 * 0.5])
    oracle = pathintegral.crank_nicolson_propagate(wf, 0.005, 1000)
    overlap = np.sum(np.conj(oracle.values) * lattice.values) * lattice.dx
    aligned = lattice.values * np.exp(-1j * np.angle(overlap))
    cn_err = float(np.sqrt(np.sum(np.abs(aligned - oracle.values) ** 2) * lattice.dx))

    omega, x0, t_final = 0.15, 2.0, 8.0
    xh = pathintegral.uniform_grid(1024, -16.0, 16.0)
    wfh = pathintegral.gaussian_packet(xh, x0, math.sqrt(1.0 / (2.0 * omega)))
    width = math.sqrt(1.0 / (2.0 * omega))
    xc = x0 * math.cos(omega * t_final)
    pc = -x0 * omega * math.sin(omega * t_final)
    target = np.exp(-((xh - xc) ** 2) / (4 * width**2) + 1j * pc * xh)
    target = target / np.sqrt(np.sum(np.abs(target) ** 2) * (xh[1] - xh[0]))
    errors = []
    eps_values = [0.5, 1.0 / 3.0, 0.25]
    for eps in eps_values:
        [(_, final)], _ = pathintegral.propagate_snapshots(
            wfh, eps, [round(t_final / eps) * eps], pathintegral.HarmonicPotential(omega)
        )
        ov = np.sum(np.conj(target) * final.values) * final.dx
        al = final.values * np.exp(-1j * np.angle(ov))
        errors.append(float(np.sqrt(np.sum(np.abs(al - target) ** 2) * final.dx)))
    order = float(np.polyfit(np.log(eps_values), np.log(errors), 1)[0])

    elapsed = time.perf_counter() - start
    ok = width_err < 1e-3 and cn_err < 1e-3 and order >= 1.8 and elapsed < 60.0
    _report(
        9, "lattice propagator", ok,
        f"width rel err = {width_err:.2e}, oracle L2 = {cn_err:.2e}, "
        f"order = {order:.2f}, {elapsed:.1f}s at N=1024",
    )


def test_criterion_10_velocity_identity():
    worst = 0.0
    eps = 0.25
    cases = [
        (pathintegral.FREE, 0.4, "free"),
        (pathintegral.HarmonicPotential(0.15), 0.0, "harmonic"),
    ]
    x = pathintegral.uniform_grid(1024, -16.0, 16.0)
    for potential, k0, _name in cases:
        wf = pathintegral.gaussian_packet(x, 2.0, 1.3, k0)
        snaps, _ = pathintegral.propagate_snapshots(
            wf, eps, [3 * eps, 4 * eps, 5 * eps], potential
        )
        (_, before), (_, middle), (_, after) = snaps
        rate = (
            pathintegral.expectation_x(after) - pathintegral.expectation_x(before)
        ) / (2 * eps)
        worst = max(worst, abs(pathintegral.mean_velocity(middle) - rate))
    _report(
        10, "velocity identity", worst < 1e-4,
        f"max |<v> - d<x>/dt| = {worst:.3e} (free and harmonic)",
    )
