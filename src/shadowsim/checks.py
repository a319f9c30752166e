"""Full invariant suite behind the CLI ``check`` subcommand.

Every check is deterministic given its seed and returns a pass/fail plus a
one-line detail (worst deviation, measured order, p-value).  The suite
mirrors the package's acceptance gates so a green ``check`` run on a user
machine means the install reproduces the reference numbers.

One reducer, ``_worst``, turns a check's deviations into its verdict: a NaN
or an empty sequence counts as an infinite deviation, so neither can pass.
Its mirror reduces p-values, where a NaN or an empty sequence counts as 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice, product, starmap

import numpy as np

from . import hilbert, pathintegral
from .corpus import random_circuit
from .experiments import (
    ENGINES,
    bghz_left_circuit,
    bghz_points,
    bghz_right_circuit,
    chsh_points,
    mach_zehnder_circuit,
    mach_zehnder_points,
    run_ifm,
    sample,
    wheeler_points,
)
from .streams import initial_clocks, terminal_amplitudes, unitarity_defect

# cross-engine's bound: tests/test_exact.py holds streams' amplitude error to 4 eps per
# log2(rows), 80 eps ~ 1.8e-14 at MAX_PATHS = 2**20 rows, 56x below 1e-12; with hilbert's
# 2 eps per log2(rows), |dP| <= 2 |da| <= 2 (80 + 40) eps ~ 5.3e-14 stays 19x below.
_TOL = 1e-12
_S_TARGET = 2.0 * math.sqrt(2.0)

# Least power at which a PASS means anything.  Cross-engine agreement needs
# at least one circuit.  With the worst-case spread 1/sqrt(shots) per
# correlator, 1000 shots per setting put the Monte Carlo S ~7 sigma above
# its 2.4 gate (4 sigma needs ~350), and the rarest chi-square bin
# (P = 0.076) expects 76 counts, where 5 need ~66 shots.
MIN_CORPUS_CASES = 1
MIN_SHOTS = 1000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _worst(deviations: Iterable[float]) -> float:
    """The largest deviation, a NaN counted as inf; inf when there is none."""
    return max((d if d == d else math.inf for d in deviations), default=math.inf)


def _below(name: str, label: str, deviations: Iterable[float], tol: float = _TOL) -> CheckResult:
    worst = _worst(deviations)
    return _result(name, worst < tol, f"{label} = {worst:.3e}")


def check_mz_law() -> CheckResult:
    """P(u)=cos^2(alpha/2), P(d)=sin^2(alpha/2), both engines, 64 points."""
    alphas = np.linspace(0.0, 2.0 * np.pi, 64).tolist()
    deviations = (
        abs(dist.probability(key) - p)
        for engine in ENGINES
        for alpha, dist in zip(alphas, mach_zehnder_points([(a, 0) for a in alphas], engine))
        for key, p in (("u", math.cos(alpha / 2) ** 2), ("d", math.sin(alpha / 2) ** 2))
    )
    return _below("mz-law", "max |P - closed form|", deviations)


def check_mz_stream_amplitudes() -> CheckResult:
    """Stream amplitudes match the two-arm closed forms up to the clock."""
    alphas = np.linspace(0.0, 2.0 * np.pi, 9)
    settings = [({"shift_a": float(alpha)}, 0.0) for alpha in alphas]

    def deviations():
        for theta in (0.0, 0.7, 2.0):
            amplitudes = terminal_amplitudes(mach_zehnder_circuit(0.0, theta), settings)
            for alpha, amps in zip(alphas, amplitudes):
                yield abs(amps["u"] - 0.5j * np.exp(1j * theta) * (np.exp(1j * alpha) + 1.0))
                yield abs(amps["d"] - 0.5 * np.exp(1j * theta) * (np.exp(1j * alpha) - 1.0))

    return _below("mz-amplitudes", "max amplitude error", deviations())


def check_bghz_law() -> CheckResult:
    """Joint law 1/2 cos^2, 1/2 sin^2 of beta-alpha on an 8x8 grid."""
    grid = np.linspace(0.0, 2.0 * np.pi, 8).tolist()
    points = [(alpha, beta, 0) for alpha in grid for beta in grid]

    def deviations():
        for engine in ENGINES:
            for (alpha, beta, _), dist in zip(points, bghz_points(points, engine)):
                half = 0.5 * (beta - alpha)
                same, flip = 0.5 * math.cos(half) ** 2, 0.5 * math.sin(half) ** 2
                want = {("u", "u'"): same, ("u", "d'"): flip, ("d", "u'"): flip, ("d", "d'"): same}
                yield from (abs(dist.probability(key) - p) for key, p in want.items())

    return _below("bghz-law", "max |P - closed form|", deviations())


def _congruence_deviations(left_arms: list[dict], right_arms: list[dict]) -> tuple[float, float]:
    """The plain-arm congruence and the locality refactoring of Bernstein,
    Greenberger, Horne & Zeilinger (PRA 47, 78 (1993)), from the pair bench's
    terminal amplitudes per source arm, as experiments.pair_amplitudes takes
    them.  Arm 0 is the shifted arm a on the left and the plain arm a' on the
    right, arm 1 the plain arm b on the left and the shifted arm b' on the
    right; left terminal x's counterpart is x'.  Returns the largest
    |<x|b> - <x'|a'>|, which a symmetric geometry makes 0, and the largest
    difference between the cross-side sum <x|a><y'|a'> + <x|b><y'|b'> and its
    refactored form <x|a><y|b> + <x'|a'><y'|b'>, all left plus all right,
    which coincide when the congruence holds."""
    (a, b), (a_r, b_r) = left_arms, right_arms
    identity = _worst(abs(b[x] - a_r[x + "'"]) for x in a)
    refactoring = _worst(abs(a[x] * a_r[y + "'"] + b[x] * b_r[y + "'"]
                             - (a[x] * b[y] + a_r[x + "'"] * b_r[y + "'"]))
                         for x in a for y in a)
    return identity, refactoring


def check_congruence() -> CheckResult:
    """Plain-arm congruence and the locality refactoring on the same grid,
    both daughters under one clock."""
    (clock,) = initial_clocks([7])
    grid = np.linspace(0.0, 2.0 * np.pi, 8).tolist()

    def arms(structure, shifter):
        settings = [({shifter: shift}, clock) for shift in grid]
        return list(zip(*(terminal_amplitudes(structure.arm(k), settings) for k in (0, 1))))

    lefts = arms(bghz_left_circuit(0.0), "shift_a")
    rights = arms(bghz_right_circuit(0.0), "shift_b")
    deviations = chain.from_iterable(starmap(_congruence_deviations, product(lefts, rights)))
    return _below("congruence", "max deviation", deviations)


_CHSH_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def check_chsh_exact(seed: int = 20260814) -> CheckResult:
    (report,) = chsh_points([(_CHSH_ANGLES, seed)], "streams")
    err = abs(report.s_value - _S_TARGET)
    detail = f"S = {report.s_value:.9f}, |S - 2 sqrt 2| = {err:.3e}"
    return _result("chsh-exact", err < 1e-9 and report.violation, detail)


def check_chsh_monte_carlo(shots: int = 1_000_000, seed: int = 20260814) -> CheckResult:
    (report,) = chsh_points([(_CHSH_ANGLES, seed)], "streams", shots=shots)
    detail = f"S = {report.s_value:.4f} from {shots} shots per setting"
    return _result("chsh-monte-carlo", report.s_value >= 2.4, detail)


def check_ifm() -> CheckResult:
    split = {"absorbed": 0.5, "u": 0.25, "d": 0.25}
    targets = {None: {"u": 1.0, "d": 0.0}, "a": split, "b": split}

    def deviations():
        for engine in ENGINES:
            for arm, want in targets.items():
                dist = run_ifm(arm, engine, seed=0)
                yield from (abs(dist.probability(key) - p) for key, p in want.items())

    return _below("ifm", "max |P - target|", deviations())


def check_wheeler() -> CheckResult:
    alphas = np.linspace(0.0, 2.0 * np.pi, 16).tolist()

    def deviations():
        for engine in ENGINES:
            peeked, plain = (wheeler_points([(a, 0) for a in alphas], peek, engine)
                             for peek in (True, False))
            for alpha, p, q in zip(alphas, peeked, plain):
                yield abs(p.probability("u") - 0.5)
                yield abs(p.probability("d") - 0.5)
                yield abs(q.probability("u") - math.cos(alpha / 2) ** 2)

    return _below("wheeler", "max deviation", deviations())


def _corpus(cases: int) -> Iterator[tuple]:
    """Corpus circuit i with its streams terminal amplitudes under the clock
    that seed i draws; the clocks are derived in one batch up front."""
    for i, clock in enumerate(initial_clocks(range(cases))):
        circuit = random_circuit(i)
        (amplitudes,) = terminal_amplitudes(circuit, [({}, clock)])
        yield circuit, amplitudes


def check_cross_engine(corpus: Iterable[tuple]) -> CheckResult:
    """Streams vs hilbert on randomized circuits, pointwise < 1e-12."""
    per_circuit = [
        _worst(abs(abs(amplitudes[key]) ** 2 - abs(amp) ** 2)
               for key, amp in next(hilbert.terminal_amplitudes(circuit, [({}, None)])).items())
        for circuit, amplitudes in corpus
    ]
    return _below("cross-engine", f"{len(per_circuit)} circuits, max |dP|", per_circuit)


def check_unitarity(corpus: list[tuple]) -> CheckResult:
    defects = (unitarity_defect(amplitudes) for _, amplitudes in corpus)
    return _below("unitarity", f"{len(corpus)} circuits, max defect", defects)


def check_clock_invariance() -> CheckResult:
    """Outcome probabilities identical for 100 different clock values."""
    clocks = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False).tolist()
    settings = [({"shift_a": 0.9}, c) for c in clocks]
    base, *rest = (
        {k: abs(v) ** 2 for k, v in amps.items()}
        for amps in terminal_amplitudes(mach_zehnder_circuit(0.0, 0.4), settings)
    )
    spreads = (abs(probs[k] - base[k]) for probs in rest for k in base)
    return _below("clock-invariance", "max spread", spreads, tol=1e-14)


def check_correlator_translation() -> CheckResult:
    """E(alpha, beta) depends only on beta - alpha."""
    grid = np.linspace(0.0, 2.0 * np.pi, 6).tolist()
    pairs = [(alpha, beta) for alpha in grid for beta in grid]
    points = [(alpha, beta, None) for alpha, beta in pairs]
    points += [(0.0, beta - alpha, None) for alpha, beta in pairs]
    correlators = [
        dist.probability(("u", "u'"))
        + dist.probability(("d", "d'"))
        - dist.probability(("u", "d'"))
        - dist.probability(("d", "u'"))
        for dist in bghz_points(points, "hilbert")
    ]
    n = len(pairs)
    gaps = (abs(e - shifted) for e, shifted in zip(correlators[:n], correlators[n:]))
    return _below("correlator-translation", "max |dE|", gaps)


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) for integer ``df`` >= 1.

    Closed forms of the regularised upper incomplete gamma Q(df/2, x/2):
    with h = x/2, even df = 2m gives e^-h * sum_{j<m} h^j / j!, and odd df
    gives erfc(sqrt h) + e^-h * sum_{j=1..(df-1)/2} h^(j-1/2) / Gamma(j+1/2).
    """
    if df < 1:
        raise ValueError(f"chi-square needs df >= 1, got {df}")
    h = 0.5 * x
    if df % 2 == 0:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= h / j
            total += term
        return math.exp(-h) * total
    term = 2.0 * math.sqrt(h / math.pi)  # h^(1/2) / Gamma(3/2)
    total = 0.0
    for j in range(1, (df + 1) // 2):
        total += term
        term *= h / (j + 0.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def check_sampling(shots: int = 1_000_000, seed: int = 4242) -> CheckResult:
    """Chi-square goodness of fit, p > 1e-4, for canned streams runs at seed 0."""
    dists = [
        *mach_zehnder_points([(2 * math.pi / 3, 0)]),
        *wheeler_points([(0.8, 0)], True),
        run_ifm("a", seed=0),
        *bghz_points([(0.3, 1.1, 0)]),
    ]
    p_values = []
    for k, dist in enumerate(dists):
        result = sample(dist, shots, seed + k)
        support = [key for key, p in dist.outcomes.items() if p > 0.0]
        stray = sum(result.counts[key] for key in dist.outcomes if key not in support)
        if stray:
            return _result("sampling-chi2", False, "samples outside the support")
        observed = np.array([result.counts[key] for key in support], dtype=float)
        expected = np.array([dist.outcomes[key] * shots for key in support])
        expected *= observed.sum() / expected.sum()
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        p_values.append(_chi2_sf(statistic, len(support) - 1))
    worst_p = min((p if p == p else 0.0 for p in p_values), default=0.0)
    return _result("sampling-chi2", worst_p > 1e-4, f"min p-value = {worst_p:.4g}")


@cache
def _free_packet() -> tuple:
    """The grid, free packet and lattice-propagated packet that width-law and
    crank-nicolson share, computed once."""
    x = pathintegral.uniform_grid(1024, -30.0, 30.0)
    wf = pathintegral.gaussian_packet(x, 0.0, 1.5)
    [(_, final)], _ = pathintegral.propagate_snapshots(wf, 0.5, [10 * 0.5])
    return x, wf, final


def check_width_law() -> CheckResult:
    """Free-packet spreading sigma(t) on the lattice vs the closed form."""
    x, _, final = _free_packet()
    density = final.probability_density()
    mean = pathintegral.expectation_x(final, density)
    var = float(np.sum((x - mean) ** 2 * density) * final.dx)
    t = final.t
    want = 1.5**2 * (1.0 + (t / (2 * 1.5**2)) ** 2)
    rel = abs(var - want) / want
    return _result("width-law", rel < 1e-3, f"relative error = {rel:.3e} at t = {t}")


def check_cn_agreement() -> CheckResult:
    """Lattice propagator vs the Crank-Nicolson oracle, free packet."""
    _, wf, lattice = _free_packet()
    oracle = pathintegral.crank_nicolson_propagate(wf, 0.005, 1000)
    err = _aligned_distance(lattice.values, oracle.values, lattice.dx)
    return _result("crank-nicolson", err < 1e-3, f"L2 deviation = {err:.3e}")


def _aligned_distance(got: np.ndarray, want: np.ndarray, dx: float) -> float:
    """L2 distance to ``want`` from ``got`` turned to the phase of their overlap."""
    overlap = np.sum(np.conj(want) * got) * dx
    aligned = got * np.exp(-1j * np.angle(overlap))
    return float(np.sqrt(np.sum(np.abs(aligned - want) ** 2) * dx))


def _coherent_state(x: np.ndarray, omega: float, x0: float, t: float) -> np.ndarray:
    """Closed-form coherent state of the harmonic well, unit mass and hbar."""
    width = math.sqrt(1.0 / (2.0 * omega))
    xc = x0 * math.cos(omega * t)
    pc = -x0 * omega * math.sin(omega * t)
    values = np.exp(-((x - xc) ** 2) / (4 * width**2) + 1j * pc * x)
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0]))


def check_convergence_order() -> CheckResult:
    """Measured order of the step error in eps for a harmonic oscillation."""
    omega, x0, t_final = 0.15, 2.0, 8.0
    well = pathintegral.HarmonicPotential(omega)
    x = pathintegral.uniform_grid(1024, -16.0, 16.0)
    wf = pathintegral.gaussian_packet(x, x0, math.sqrt(1.0 / (2.0 * omega)))
    target = _coherent_state(x, omega, x0, t_final)
    eps_values = [0.5, 1.0 / 3.0, 0.25]
    errors = []
    for eps in eps_values:
        [(_, final)], _ = pathintegral.propagate_snapshots(
            wf, eps, [round(t_final / eps) * eps], well)
        errors.append(_aligned_distance(final.values, target, final.dx))
    slope = np.polyfit(np.log(eps_values), np.log(errors), 1)[0]
    return _result(
        "convergence-order", slope >= 1.8, f"measured order = {slope:.2f}"
    )


def check_velocity_identity() -> CheckResult:
    """mean_velocity vs central-difference d<x>/dt, free and harmonic."""
    # k0 stays modest: the spatial central difference in mean_velocity
    # biases v by about k0^3 dx^2 / 6, which must sit well under 1e-4.
    cases = [(pathintegral.FREE, 0.4), (pathintegral.HarmonicPotential(0.15), 0.0)]
    x = pathintegral.uniform_grid(1024, -16.0, 16.0)
    eps = 0.25
    times = [3 * eps, 4 * eps, 5 * eps]

    def deviations():
        for potential, k0 in cases:
            wf = pathintegral.gaussian_packet(x, 2.0, 1.3, k0)
            snaps, _ = pathintegral.propagate_snapshots(wf, eps, times, potential)
            (_, before), (_, middle), (_, after) = snaps
            moved = pathintegral.expectation_x(after) - pathintegral.expectation_x(before)
            yield abs(pathintegral.mean_velocity(middle) - moved / (2 * eps))

    return _below("velocity-identity", "max |v - dx/dt|", deviations(), tol=1e-4)


def run_all(
    *, corpus_cases: int = 500, shots: int = 1_000_000, seed: int = 20260814
) -> list[CheckResult]:
    """Run every invariant check; heavyweight counts are adjustable."""
    # Each corpus circuit and its amplitudes are built once; unitarity reads
    # the first 200 of those the cross-engine check compares, and only they
    # are held.
    corpus = _corpus(corpus_cases)
    head = list(islice(corpus, 200))
    return [
        check_mz_law(),
        check_mz_stream_amplitudes(),
        check_bghz_law(),
        check_congruence(),
        check_chsh_exact(seed=seed),
        check_chsh_monte_carlo(shots=shots, seed=seed),
        check_ifm(),
        check_wheeler(),
        check_cross_engine(chain(head, corpus)),
        check_unitarity(head),
        check_clock_invariance(),
        check_correlator_translation(),
        check_sampling(shots=shots, seed=seed),
        check_width_law(),
        check_cn_agreement(),
        check_convergence_order(),
        check_velocity_identity(),
    ]
