"""Shadow streams: per-path clock amplitudes and their composition rules.

Every emission event creates one stream covering all paths of the circuit.
The engine first compiles the circuit into a path table (circuit.PathTable),
one row per path, and then evaluates each row.  A path's amplitude is the
product of a unit phase, tracked by a path clock, and a magnitude factor
1/sqrt(2) per beamsplitter crossing:

    reflection at a beamsplitter   -> extra quarter turn (factor i)
    phase shifter with shift alpha -> factor exp(i*alpha)
    link with pathlength phase     -> factor exp(i*theta)
    shared initial clock value     -> factor exp(i*clock), once per path

Amplitudes of paths within one stream add; amplitudes of distinct streams
never add, they only multiply when a joint event needs both.  The clock is
represented by its phase alone, so its modulus cannot drift.  The initial
clock value is uniform random per emission and drops out of every
probability; the tangible path index is bookkeeping with no effect on any
number computed here.  ``path_amplitude`` evaluates one Path object step by
step and is the reference the table evaluation must match bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angles import canonical_angle
from .circuit import REFLECTION_TURN, Circuit, ElementType, Path, PathTable, compile_paths
from .rng import make_rng

ENGINE_VERSION = "1.0"

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class PathClock:
    """Unit phasor tracked by phase in [0, 2pi)."""

    phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", canonical_angle(self.phase))

    def advanced(self, delta: float) -> "PathClock":
        return PathClock(self.phase + delta)

    def amplitude(self) -> complex:
        return cmath.exp(1j * self.phase)


def path_amplitude(path: Path, circuit: Circuit, initial_clock: float = 0.0) -> complex:
    """Amplitude contributed by one path, including the stream's clock factor.

    The phase is accumulated on a PathClock and converted to a complex number
    once at the end, keeping the modulus exactly (1/sqrt 2)**crossings.
    """
    clock = PathClock(initial_clock).advanced(path.geometric_phase)
    crossings = 0
    for eid, in_port, out_port in path.steps:
        el = circuit.elements[eid]
        if el.kind is ElementType.BEAMSPLITTER:
            crossings += 1
            if in_port != out_port:
                clock = clock.advanced(REFLECTION_TURN)
        elif el.kind is ElementType.PHASESHIFTER:
            clock = clock.advanced(el.shift)
    return clock.amplitude() * INV_SQRT2**crossings


@dataclass(frozen=True)
class ShadowStream:
    """All paths of one emission with their amplitudes.

    ``amplitudes[i]`` belongs to row i of ``table``.  ``tangible_index``
    marks which path the tangible particle took; it is sampled uniformly and
    never consulted by probability computations.
    """

    circuit: Circuit
    table: PathTable
    amplitudes: tuple[complex, ...]
    initial_clock: float
    tangible_index: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if len(self.table) != len(self.amplitudes):
            raise ValueError("one amplitude per path required")
        if not 0 <= self.tangible_index < len(self.table):
            raise ValueError("tangible index out of range")

    @property
    def source(self) -> str:
        return self.table.source

    @cached_property
    def paths(self) -> tuple[Path, ...]:
        """The table's rows as Path objects, built on first use."""
        return tuple(self.table.paths())

    @property
    def tangible_path(self) -> Path:
        return self.paths[self.tangible_index]


def _table_amplitudes(table: PathTable, initial_clock: float) -> tuple[complex, ...]:
    """path_amplitude for every row, in the same order of operations."""
    start = canonical_angle(initial_clock)
    amplitudes = []
    for phase, advances, crossings in zip(table.geometric_phases, table.advances, table.crossings):
        clock = canonical_angle(start + phase)
        for delta in advances:
            clock = canonical_angle(clock + delta)
        amplitudes.append(complex(math.cos(clock), math.sin(clock)) * INV_SQRT2**crossings)
    return tuple(amplitudes)


def build_stream(
    circuit: Circuit,
    source: str | None = None,
    *,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    initial_clock: float | None = None,
) -> ShadowStream:
    """Compile the path table and evaluate its amplitudes under one shared
    clock.

    The clock value is drawn uniformly from [0, 2pi) unless given explicitly
    (pair experiments reuse one draw across both daughters).
    """
    if rng is None:
        rng = make_rng(seed)
    table = compile_paths(circuit, source)
    if initial_clock is None:
        initial_clock = float(rng.uniform(0.0, 2.0 * math.pi))
    amplitudes = _table_amplitudes(table, initial_clock)
    tangible = int(rng.integers(len(table)))
    return ShadowStream(
        circuit=circuit,
        table=table,
        amplitudes=amplitudes,
        initial_clock=initial_clock,
        tangible_index=tangible,
        seed=seed,
    )


def stream_terminal_amplitudes(stream: ShadowStream) -> dict[str, complex]:
    """Summed amplitude per terminal, blockers included, unreached ones 0.

    A source with several arms emits an equal-weight superposition over
    them, so the sums carry 1/sqrt(fanout).
    """
    circuit = stream.circuit
    keys = dict(zip(circuit.terminals, circuit.terminal_keys()))
    sums: dict[str, complex] = {key: 0.0 + 0.0j for key in keys.values()}
    for terminal, amp in zip(stream.table.terminals, stream.amplitudes):
        sums[keys[terminal]] += amp
    fanout = circuit.source_fanout(stream.source)
    if fanout > 1:
        sums = {key: amp / math.sqrt(fanout) for key, amp in sums.items()}
    return sums


def terminal_probabilities(stream: ShadowStream) -> dict[str, float]:
    return {key: abs(amp) ** 2 for key, amp in stream_terminal_amplitudes(stream).items()}


def unitarity_defect(stream: ShadowStream) -> float:
    """|total probability - 1| of one emission; a multi-arm source counts
    with its 1/sqrt(fanout) weight (see stream_terminal_amplitudes)."""
    return abs(sum(p for p in terminal_probabilities(stream).values()) - 1.0)


@dataclass(frozen=True)
class StreamPair:
    """Two daughters of one emission, with the cross-side stream split.

    ``assignment`` maps every path of both sides to stream 1 or stream 2.
    The daughters share one emission event, hence one initial clock value.
    Amplitudes are only ever multiplied across the two sides, never added
    across them; sums happen over the allowed pairings of a joint event.
    """

    left: ShadowStream
    right: ShadowStream
    assignment: dict[Path, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.left.initial_clock != self.right.initial_clock:
            raise ValueError("daughters of one emission share one clock value")
        left_set, right_set = set(self.left.paths), set(self.right.paths)
        if left_set & right_set:
            raise ValueError("left and right paths must be distinct objects")
        if self.assignment:
            if set(self.assignment) != left_set | right_set:
                raise ValueError("assignment must cover every path of both sides")
            if set(self.assignment.values()) - {1, 2}:
                raise ValueError("assignment values must be 1 or 2")


def build_stream_pair(
    left_circuit: Circuit,
    right_circuit: Circuit,
    *,
    stream1_arms: tuple[int, int] = (0, 1),
    seed: int | None = None,
) -> StreamPair:
    """Build both daughters under one sampled clock.

    ``stream1_arms`` gives (left source port, right source port) whose paths
    form stream 1; the remaining paths form stream 2.  The default matches
    the pair interferometer where the left a-arm travels with the right
    b'-arm.
    """
    rng = make_rng(seed)
    clock = float(rng.uniform(0.0, 2.0 * math.pi))
    left = build_stream(left_circuit, rng=rng, initial_clock=clock)
    right = build_stream(right_circuit, rng=rng, initial_clock=clock)
    assignment: dict[Path, int] = {}
    for path in left.paths:
        assignment[path] = 1 if path.source_port == stream1_arms[0] else 2
    for path in right.paths:
        assignment[path] = 1 if path.source_port == stream1_arms[1] else 2
    return StreamPair(left=left, right=right, assignment=assignment)


PathPair = tuple[Path, Path]


def joint_terminal_amplitudes(
    pair: StreamPair, allowed_pairs: list[PathPair] | tuple[PathPair, ...]
) -> dict[tuple[str, str], complex]:
    """Joint amplitude per (left terminal, right terminal).

    Each allowed (left path, right path) contributes the product of its two
    per-side amplitudes.  The source prepares an equal superposition of the
    distinct (left arm, right arm) emission pairings present in
    ``allowed_pairs``, so each product is weighted by 1/sqrt(#pairings);
    that weight is what normalises the joint distribution.
    """
    left_set, right_set = set(pair.left.paths), set(pair.right.paths)
    arm_pairings = set()
    for pl, pr in allowed_pairs:
        if pl not in left_set:
            raise ValueError(f"path {pl.element_ids} not in the left stream")
        if pr not in right_set:
            raise ValueError(f"path {pr.element_ids} not in the right stream")
        arm_pairings.add((pl.source_port, pr.source_port))
    if not arm_pairings:
        raise ValueError("allowed_pairs is empty")
    weight = 1.0 / math.sqrt(len(arm_pairings))

    left_amp = dict(zip(pair.left.paths, pair.left.amplitudes))
    right_amp = dict(zip(pair.right.paths, pair.right.amplitudes))
    joint: dict[tuple[str, str], complex] = {
        (kl, kr): 0.0 + 0.0j
        for kl in pair.left.circuit.terminal_keys()
        for kr in pair.right.circuit.terminal_keys()
    }
    for pl, pr in allowed_pairs:
        key = (
            pair.left.circuit.terminal_key(pl.terminal),
            pair.right.circuit.terminal_key(pr.terminal),
        )
        joint[key] += left_amp[pl] * right_amp[pr]
    return {key: weight * amp for key, amp in joint.items()}


def joint_probabilities(
    pair: StreamPair, allowed_pairs: list[PathPair] | tuple[PathPair, ...]
) -> dict[tuple[str, str], float]:
    return {
        key: abs(amp) ** 2
        for key, amp in joint_terminal_amplitudes(pair, allowed_pairs).items()
    }


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of the congruence and locality-refactoring comparison.

    ``identity_deviation`` is the largest mismatch between the plain (not
    phase-shifted) left-arm amplitudes and their right-side counterparts.
    ``refactoring_deviation`` compares, per joint terminal, the cross-side
    product sum against its refactored all-left-plus-all-right form, which
    only coincide when the congruence identity holds.
    """

    identity_deviation: float
    refactoring_deviation: float
    cross_terms: dict[tuple[str, str], complex]
    refactored_terms: dict[tuple[str, str], complex]

    @property
    def max_deviation(self) -> float:
        return max(self.identity_deviation, self.refactoring_deviation)


def congruence_check(
    pair: StreamPair,
    *,
    symmetric: bool = True,
    left_arms: tuple[int, int] = (0, 1),
    right_arms: tuple[int, int] = (0, 1),
    terminal_map: dict[str, str] | None = None,
) -> CongruenceReport:
    """Verify the single-crossing congruence between the two sides.

    ``left_arms`` is (shifted arm port, plain arm port) on the left,
    ``right_arms`` is (plain arm port, shifted arm port) on the right.
    ``terminal_map`` pairs each left terminal with its right counterpart;
    by default the right label is the left label plus a prime.

    In a symmetric geometry the plain left arm reaches each terminal with
    the same amplitude as the plain right arm reaches the counterpart
    terminal.  That identity lets the sum of cross-side products be
    rewritten as one all-left product plus one all-right product; the
    report carries both forms and their worst-case difference.
    """
    if not symmetric:
        raise ValueError("congruence undefined for a declared asymmetric geometry")

    def arm_amplitudes(stream: ShadowStream) -> dict[tuple[int, str], complex]:
        sums: dict[tuple[int, str], complex] = {}
        table = stream.table
        for port, terminal, amp in zip(table.source_ports, table.terminals, stream.amplitudes):
            key = (port, stream.circuit.terminal_key(terminal))
            sums[key] = sums.get(key, 0.0 + 0.0j) + amp
        return sums

    amp_l = arm_amplitudes(pair.left)
    amp_r = arm_amplitudes(pair.right)
    left_terms = pair.left.circuit.terminal_keys()
    right_terms = pair.right.circuit.terminal_keys()
    if terminal_map is None:
        terminal_map = {t: t + "'" for t in left_terms}
    if sorted(terminal_map.values()) != sorted(right_terms):
        raise ValueError("terminal correspondence does not match the right side")

    a_port, b_port = left_arms
    ap_port, bp_port = right_arms

    identity_dev = 0.0
    for t in left_terms:
        lhs = amp_l.get((b_port, t), 0.0 + 0.0j)
        rhs = amp_r.get((ap_port, terminal_map[t]), 0.0 + 0.0j)
        identity_dev = max(identity_dev, abs(lhs - rhs))

    cross: dict[tuple[str, str], complex] = {}
    refactored: dict[tuple[str, str], complex] = {}
    refactor_dev = 0.0
    for x in left_terms:
        for y in left_terms:
            xp, yp = terminal_map[x], terminal_map[y]
            cross_val = amp_l.get((a_port, x), 0j) * amp_r.get((ap_port, yp), 0j) + amp_l.get(
                (b_port, x), 0j
            ) * amp_r.get((bp_port, yp), 0j)
            local_val = amp_l.get((a_port, x), 0j) * amp_l.get((b_port, y), 0j) + amp_r.get(
                (ap_port, xp), 0j
            ) * amp_r.get((bp_port, yp), 0j)
            cross[(x, yp)] = cross_val
            refactored[(x, yp)] = local_val
            refactor_dev = max(refactor_dev, abs(cross_val - local_val))

    return CongruenceReport(
        identity_deviation=identity_dev,
        refactoring_deviation=refactor_dev,
        cross_terms=cross,
        refactored_terms=refactored,
    )
