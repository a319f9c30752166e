"""Canned interferometer experiments run on either engine.

Geometry conventions for the canonical benches:

* Mach-Zehnder: the arm transmitted at the first splitter is ``a`` and
  carries the shifter alpha; the reflected arm is ``b``.  Detector ``u``
  sits on the cross port for arm a, so P(u) = cos^2(alpha/2) at equal arm
  lengths.
* Bomb-test bench: the same interferometer tuned to alpha = 0 (every
  particle reaches u), with an optional blocker replacing one arm.
* Delayed-choice bench: the same interferometer; with ``peek`` the arm is
  marked right after the first splitter, so the two arms add as
  probabilities (the two arm-blocked bomb-test benches, summed on either
  engine) and the interference pattern collapses to half-half.
* Pair bench: one two-arm emission per side; the left a-arm carries
  alpha and reflects toward u, the right b'-arm carries beta and reflects
  toward u'.  Joint outcomes are keyed (left label, right label).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from . import hilbert, streams
from .circuit import Circuit, parse_circuit
from .outcomes import (
    ENGINE_HILBERT,
    ENGINE_STREAMS,
    Outcome,
    OutcomeDistribution,
)
from .rng import child_seeds, make_rng
from .streams import initial_clocks

ENGINES = (ENGINE_STREAMS, ENGINE_HILBERT)


def _require_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}, expected one of {ENGINES}")


# -- canonical circuits ------------------------------------------------------
# Each bench is circuit text, parsed once per text by one memo.  A builder's
# value (a shift, ``theta``, ``arm_phase``) is written as repr(float(x)), which
# parse_angle reads back bit for bit; a runner builds each structure once and
# sets its shifters per point by settings.  Statement order is the element and
# link order, on which the topological order and the order of the outcomes rest.

_parsed = lru_cache(maxsize=64)(parse_circuit)

_MACH_ZEHNDER = """\
element src source
element bs1 beamsplitter
element m_a mirror
element shift_a phaseshifter:{alpha}
element m_b mirror
element bs2 beamsplitter
element det_u detector:u
element det_d detector:d
link src:0 bs1:0
link bs1:0 m_a:0 phase={theta}
link m_a:0 shift_a:0
link shift_a:0 bs2:0
link bs1:1 m_b:0 phase={theta}
link m_b:0 bs2:1
link bs2:1 det_u:0
link bs2:0 det_d:0
"""

# Arm a leaves bs1 through port 0, arm b through port 1; the kept arm's mirror is last.
_BLOCKED = """\
element src source
element bs1 beamsplitter
element absorbed blocker
element bs2 beamsplitter
element det_u detector:u
element det_d detector:d
element {mirror} mirror
link src:0 bs1:0
link bs1:{blocked} absorbed:0
link bs1:{kept} {mirror}:0
link {mirror}:0 bs2:{kept}
link bs2:1 det_u:0
link bs2:0 det_d:0
"""
_BLOCKED_ARMS = {"a": dict(blocked=0, kept=1, mirror="m_b"),
                 "b": dict(blocked=1, kept=0, mirror="m_a")}

_BGHZ_LEFT = """\
element srcL source
element shift_a phaseshifter:{alpha}
element bsL beamsplitter
element det_u detector:u
element det_d detector:d
link srcL:0 shift_a:0
link shift_a:0 bsL:0
link srcL:1 bsL:1
link bsL:1 det_u:0
link bsL:0 det_d:0
"""

_BGHZ_RIGHT = """\
element srcR source
element shift_b phaseshifter:{beta}
element bsR beamsplitter
element det_up detector:u'
element det_dp detector:d'
link srcR:0 bsR:0 phase={arm_phase}
link srcR:1 shift_b:0
link shift_b:0 bsR:1
link bsR:0 det_up:0
link bsR:1 det_dp:0
"""


def mach_zehnder_circuit(alpha: float, theta: float = 0.0) -> Circuit:
    return _parsed(_MACH_ZEHNDER.format(alpha=repr(float(alpha)), theta=repr(float(theta))))


def ifm_circuit(blocked_arm: str | None) -> Circuit:
    """Alpha = 0 bench, optionally with a blocker swallowing one arm."""
    if blocked_arm is None:
        return mach_zehnder_circuit(0.0)
    if blocked_arm not in _BLOCKED_ARMS:
        raise ValueError("blocked_arm must be 'a', 'b', or None")
    return _parsed(_BLOCKED.format(**_BLOCKED_ARMS[blocked_arm]))


def bghz_left_circuit(alpha: float) -> Circuit:
    return _parsed(_BGHZ_LEFT.format(alpha=repr(float(alpha))))


def bghz_right_circuit(beta: float, *, arm_phase: float = 0.0) -> Circuit:
    """Right half; ``arm_phase`` desymmetrizes the plain arm when nonzero."""
    return _parsed(_BGHZ_RIGHT.format(beta=repr(float(beta)), arm_phase=repr(float(arm_phase))))


# -- experiment runners -------------------------------------------------------
# Each *_points runner evaluates each circuit structure once for all its points.

def _clocks(engine: str, seeds: list) -> list:
    """Each point's streams clock, drawn from its seed by initial_clocks;
    hilbert has no clock, so None per point."""
    return initial_clocks(seeds) if engine == ENGINE_STREAMS else [None] * len(seeds)


def _amplitudes(circuit: Circuit, engine: str, shift_maps: Iterable[dict], clocks: list
                ) -> Iterator[dict[str, complex]]:
    """Terminal amplitudes of one emission of a circuit structure at each
    point's shifts, each made as it is read.  The engine's function is looked
    up on its module at each call, so a rebound one is the one called."""
    _require_engine(engine)
    module = hilbert if engine == ENGINE_HILBERT else streams
    return module.terminal_amplitudes(circuit, zip(shift_maps, clocks))


def _distributions(engine: str, amplitude_maps) -> Iterator[OutcomeDistribution]:
    return (OutcomeDistribution({key: abs(amp) ** 2 for key, amp in amps.items()}, engine)
            for amps in amplitude_maps)


def run_circuit(circuit: Circuit, engine: str, *, seed: int | None = None) -> OutcomeDistribution:
    """One single-particle circuit on either engine."""
    return next(_distributions(engine, _amplitudes(circuit, engine, [{}], _clocks(engine, [seed]))))


def mach_zehnder_points(points: Sequence[tuple[float, int | None]], engine: str = ENGINE_STREAMS,
                        *, theta: float = 0.0) -> list[OutcomeDistribution]:
    """The Mach-Zehnder at each (alpha, seed) point."""
    amps = _amplitudes(mach_zehnder_circuit(0.0, theta), engine,
                       [{"shift_a": a} for a, _ in points],
                       _clocks(engine, [seed for _, seed in points]))
    return list(_distributions(engine, amps))


def wheeler_points(points: Sequence[tuple[float, int | None]], peek: bool,
                   engine: str = ENGINE_STREAMS) -> list[OutcomeDistribution]:
    """The delayed-choice bench at each (alpha, seed) point; ``peek`` marks
    the arm right after the first splitter, which kills the alpha dependence:
    each arm's contribution stands alone, so the two arm-blocked benches add
    as probabilities and a phase on a lone arm drops out of |amplitude|^2."""
    if not peek:
        return mach_zehnder_points(points, engine)
    clocks = _clocks(engine, [seed for _, seed in points])
    arms = [_distributions(engine, _amplitudes(ifm_circuit(arm), engine, [{}] * len(points),
                                               clocks)) for arm in ("a", "b")]
    return [OutcomeDistribution({out: a.outcomes[out] + b.outcomes[out] for out in ("u", "d")},
                                engine) for a, b in zip(*arms)]


def run_ifm(
    blocked_arm: str | None = "a",
    engine: str = ENGINE_STREAMS,
    *,
    seed: int | None = None,
) -> OutcomeDistribution:
    """Blocked-arm bench.  Unblocked, every particle exits at u; blocked,
    the absorbed/u/d split is 1/2, 1/4, 1/4 whichever arm is blocked."""
    return run_circuit(ifm_circuit(blocked_arm), engine, seed=seed)


def pair_amplitudes(
    left_arms: Sequence[dict[str, complex]], right_arms: Sequence[dict[str, complex]]
) -> dict[Outcome, complex]:
    """Joint (left, right) terminal amplitudes of a correlated pair.

    Each side gives one terminal-amplitude dict per source arm, that of the
    side's circuit fed by that arm alone (Circuit.arm).  The source sends both
    daughters out through matching arm indices in an equal superposition
    over the arms, so arm k pairs with arm k and the sum carries
    1/sqrt(arms) (Bernstein, Greenberger, Horne & Zeilinger, PRA 47, 78
    (1993)).
    """
    if len(left_arms) != len(right_arms):
        raise ValueError("both sides of a pair need the same number of source arms")
    joint: dict[Outcome, complex] = {
        (x, y): 0.0 + 0.0j for x in left_arms[0] for y in right_arms[0]
    }
    for side_l, side_r in zip(left_arms, right_arms):
        for x, amp_l in side_l.items():
            for y, amp_r in side_r.items():
                joint[(x, y)] += amp_l * amp_r
    weight = 1.0 / math.sqrt(len(left_arms))
    return {key: weight * amp for key, amp in joint.items()}


def _bghz_joints(settings: Sequence[tuple], clocks: list, engine: str
                 ) -> Iterator[dict[Outcome, complex]]:
    """The pair bench's joint amplitudes at each setting, whose first two
    items are (alpha, beta), under its clock: both sides are paired arm by
    arm as each setting is read."""

    def side(structure: Circuit, shifter: str, i: int) -> Iterator[tuple]:
        """One daughter's amplitudes per setting, one dict per source arm."""
        arms = range(structure.source_fanout(structure.sole_source()))
        return zip(*[_amplitudes(structure.arm(k), engine, ({shifter: s[i]} for s in settings),
                                 clocks) for k in arms])

    return map(pair_amplitudes, side(bghz_left_circuit(0.0), "shift_a", 0),
               side(bghz_right_circuit(0.0), "shift_b", 1))


def bghz_points(points: Sequence[tuple[float, float, int | None]],
                engine: str = ENGINE_STREAMS) -> list[OutcomeDistribution]:
    """The pair bench at each (alpha, beta, seed) point: both sides run
    under the point's one clock and are paired arm by arm."""
    clocks = _clocks(engine, [seed for _, _, seed in points])
    return list(_distributions(engine, _bghz_joints(points, clocks, engine)))


# -- sampling -----------------------------------------------------------------

SHOT_CHUNK = 2**16  # shots drawn and counted per step


@dataclass(frozen=True)
class SampleResult:
    counts: dict[Outcome, int]
    frequencies: dict[Outcome, float]
    shots: int


def sample(dist: OutcomeDistribution, shots: int, seed: int | None = None) -> SampleResult:
    """Draw i.i.d. shots from a distribution, reproducibly.

    The counts are those of ``rng.choice(k, size=shots, p=p)``, which maps one
    ``rng.random()`` u per shot to ``cdf.searchsorted(u, side="right")``, at
    most j exactly when u < cdf[j].  The draws are counted SHOT_CHUNK at a
    time and never stored, so memory does not grow with ``shots``.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    labels = list(dist.outcomes)
    probs = np.array([dist.outcomes[k] for k in labels])
    probs = probs / probs.sum()
    # choice's refusals, at its tolerance sqrt(eps): NaN fails the first test.
    if not (np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1.5e-8):
        raise ValueError(f"probabilities must be >= 0 and sum to 1, got {probs}")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    rng = make_rng(seed)
    below = np.zeros(len(labels), dtype=np.int64)  # shots with outcome <= j
    for start in range(0, shots, SHOT_CHUNK):
        u = rng.random(min(SHOT_CHUNK, shots - start))
        below += [np.count_nonzero(u < c) for c in cdf]
    counts = np.diff(below, prepend=0)
    count_map = {label: int(c) for label, c in zip(labels, counts)}
    freq_map = {label: c / shots for label, c in count_map.items()}
    return SampleResult(counts=count_map, frequencies=freq_map, shots=shots)


# -- CHSH ---------------------------------------------------------------------

_S_BOUND = 2.0 * math.sqrt(2.0) + 1e-9


@dataclass(frozen=True)
class ChshReport:
    """Correlators and the CHSH combination
    S = E(a,b) - E(a,b') + E(a',b) + E(a',b') for four angle settings."""

    correlations: dict[tuple[float, float], float]
    s_value: float
    violation: bool
    engine: str
    shots: int | None = None

    def __post_init__(self) -> None:
        slack = 0.0 if self.shots is None else 4.0 * 2.0 / math.sqrt(self.shots)
        for e in self.correlations.values():
            if abs(e) > 1.0 + 1e-9 + slack:
                raise ValueError(f"correlator {e!r} outside [-1, 1]")
        if abs(self.s_value) > _S_BOUND + slack:
            raise ValueError(f"S = {self.s_value!r} exceeds the quantum bound")


def _correlator(probs: dict[Outcome, float]) -> float:
    def p(key: Outcome) -> float:
        return probs.get(key, 0.0)

    same = p(("u", "u'")) + p(("d", "d'"))
    diff = p(("u", "d'")) + p(("d", "u'"))
    return same - diff


_SIGNS = (1, -1, 1, 1)  # of E(a,b), E(a,b'), E(a',b), E(a',b')


def chsh_points(points: Sequence[tuple[Sequence[float], int | None]],
                engine: str = ENGINE_STREAMS, *, shots: int | None = None) -> list[ChshReport]:
    """The CHSH combination at each ((a, a', b, b'), seed) point, exact or
    Monte Carlo, from one pair-bench evaluation over every point's four
    settings, all four under the point's one clock; each point is reduced
    to its report as its settings arrive.  With ``shots`` setting i is
    sampled from child seed i of the point's seed and the correlators are
    empirical frequencies."""
    _require_engine(engine)
    rows = [[(a, b), (a, b2), (a2, b), (a2, b2)] for (a, a2, b, b2), _ in points]
    clocks = [clock for clock in _clocks(engine, [seed for _, seed in points]) for _ in range(4)]
    dists = _distributions(engine, _bghz_joints(list(chain.from_iterable(rows)), clocks, engine))
    shot_seeds = iter(child_seeds([(seed, i) for _, seed in points for i in range(4)])
                      if shots is not None else ())
    reports = []
    for settings in rows:
        correlations: dict[tuple[float, float], float] = {}
        for (x, y), dist in zip(settings, dists):
            probs = (dist.outcomes if shots is None
                     else sample(dist, shots, next(shot_seeds)).frequencies)
            correlations[(x, y)] = _correlator(probs)
        s_value = sum(s * correlations[setting] for s, setting in zip(_SIGNS, settings))
        reports.append(ChshReport(correlations, s_value, abs(s_value) > 2.0, engine, shots))
    return reports
