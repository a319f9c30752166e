"""Shadow streams: per-path clock amplitudes and their composition rules.

Every emission event creates one stream covering all paths of the circuit.
The engine compiles the circuit into a path table (circuit.PathTable), one
row per path, walked in bundles of rows with one element sequence.  A row's
clock advances are a string of one-character codes, each naming a phase
shifter or a splitter reflection.  The table holds no shift value, so
terminal_amplitudes evaluates its rows at a whole sequence of settings, each
a shift map and a clock, one setting at a time as they are read.  A path's
amplitude is the product of a unit phase, tracked by a path clock, and
1/sqrt(2) per crossing:

    reflection at a beamsplitter   -> extra quarter turn (factor i)
    phase shifter with shift alpha -> factor exp(i*alpha)
    link with pathlength phase     -> factor exp(i*theta)
    shared initial clock value     -> factor exp(i*clock), once per path

Amplitudes of paths within one stream add; amplitudes of distinct streams
never add, they only multiply when a joint event needs both.  ``port=k``
sums the rows that leave the source through arm k, which is the view
experiments.pair_amplitudes multiplies across the two daughters of a pair.
The clock is represented by its phase alone, so its modulus cannot drift.
The initial clock value is uniform random per emission and drops out of
every probability.  Every result is read from the table's columns.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import compress, groupby
from operator import add

from .angles import canonical_angle
from .circuit import REFLECTION_TURN, Circuit, ElementType, PathTable, compile_paths
from .rng import uniform_draws

ENGINE_VERSION = "1.0"

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ShadowStream:
    """All paths of one emission with their amplitudes.

    ``amplitudes[i]`` belongs to row i of ``table``; every row shares the
    emission's ``initial_clock``.
    """

    circuit: Circuit
    table: PathTable
    amplitudes: tuple[complex, ...]
    initial_clock: float

    def __post_init__(self) -> None:
        if len(self.table) != len(self.amplitudes):
            raise ValueError("one amplitude per path required")

    @property
    def source(self) -> str:
        return self.table.source


def initial_clocks(seeds: Iterable[int | None]) -> list[float]:
    """Each emission's initial clock, uniform on [0, 2pi), drawn from its seed
    as ``default_rng(seed).uniform(0.0, 2pi)`` draws it."""
    return uniform_draws(seeds, 2.0 * math.pi)


def _table_amplitudes(circuit: Circuit, table: PathTable, port: int | None, settings):
    """Arm ``port``'s row amplitudes (every row's for None) at each setting,
    a shift map over the circuit's own and an initial clock.  The clock is
    reduced to [0, 2pi) after the geometric phase by canonical_angle, as the
    sum may be negative.  After each advance 2pi is subtracted once if the sum
    reaches it: clock and turn lie in [0, 2pi), so such a sum lies in
    [2pi, 4pi) and, by Sterbenz's lemma, the subtraction is exact, which is
    fmod's remainder bit for bit.  cmath.rect gives the bits of
    complex(cos, sin) * magnitude."""
    elements = circuit.elements
    shifters = [(chr(rank), eid) for rank, eid in enumerate(table.element_ids)
                if elements[eid].kind is ElementType.PHASESHIFTER]
    reflection = chr(len(table.element_ids))
    own = {eid: elements[eid].shift for _, eid in shifters}
    magnitudes = [INV_SQRT2**k for k in range(max(table.crossings, default=0) + 1)]
    columns = (table.geometric_phases, table.advances, table.crossings, table.source_ports)
    rect, tau = cmath.rect, 2.0 * math.pi
    for shifts, initial_clock in settings:
        values = {**own, **circuit.shift_values(shifts)}
        turns = {code: values[eid] for code, eid in shifters}
        turns[reflection] = REFLECTION_TURN
        start = canonical_angle(initial_clock)
        amplitudes = []
        for phase, advances, crossings, row_port in zip(*columns):
            if port is None or row_port == port:
                clock = canonical_angle(start + phase)
                for code in advances:
                    clock += turns[code]
                    if clock >= tau:
                        clock -= tau
                amplitudes.append(rect(magnitudes[crossings], clock))
        yield amplitudes


def _terminal_sums(circuit: Circuit, table: PathTable, port: int | None, amplitude_sets):
    """Per list of arm ``port``'s row amplitudes, the terminal amplitudes,
    each folded left to right from 0j over its rows in table order.  The
    rows of one bundle share a terminal, so the rows are split once per call
    into runs of consecutive rows with one terminal, and each run is folded
    onto its terminal's sum in turn."""
    keys = dict(zip(circuit.terminals, circuit.terminal_keys()))
    terminals = (table.terminals if port is None
                 else compress(table.terminals, map(port.__eq__, table.source_ports)))
    runs = []
    start = 0
    for terminal, run in groupby(terminals):
        stop = start + len(list(run))
        runs.append((keys[terminal], start, stop))
        start = stop
    fanout = circuit.source_fanout(table.source)
    for amplitudes in amplitude_sets:
        sums = dict.fromkeys(keys.values(), 0j)
        for key, start, stop in runs:
            sums[key] = reduce(add, amplitudes[start:stop], sums[key])
        if port is None and fanout > 1:
            sums = {key: amp / math.sqrt(fanout) for key, amp in sums.items()}
        yield sums


def terminal_amplitudes(circuit: Circuit, settings, source: str | None = None, *,
                        port: int | None = None) -> Iterator[dict[str, complex]]:
    """Amplitude per terminal, blockers included, unreached ones 0, at each
    of ``settings`` (shift map, initial clock), each made as it is read, rows
    added one by one in table order (builtin sum compensates from Python
    3.12).  With ``port=None`` a source with several arms emits an
    equal-weight superposition over them, so the sums carry 1/sqrt(fanout);
    ``port=k`` sums arm k's rows alone with weight 1, as
    hilbert.evolve_settings does."""
    table = compile_paths(circuit, source)
    amplitude_sets = _table_amplitudes(circuit, table, port, settings)
    return _terminal_sums(circuit, table, port, amplitude_sets)


def build_stream(
    circuit: Circuit,
    source: str | None = None,
    *,
    seed: int | None = None,
    initial_clock: float | None = None,
) -> ShadowStream:
    """Compile the path table and evaluate its amplitudes under one shared
    clock, drawn by initial_clocks([seed]) unless given explicitly."""
    table = compile_paths(circuit, source)
    if initial_clock is None:
        (initial_clock,) = initial_clocks([seed])
    (amplitudes,) = _table_amplitudes(circuit, table, None, [({}, initial_clock)])
    return ShadowStream(circuit, table, tuple(amplitudes), initial_clock)


def stream_terminal_amplitudes(stream: ShadowStream, *,
                               port: int | None = None) -> dict[str, complex]:
    """terminal_amplitudes, summed from one stream's row amplitudes."""
    rows = zip(stream.amplitudes, stream.table.source_ports)
    return next(_terminal_sums(stream.circuit, stream.table, port,
                               [[amp for amp, p in rows if port is None or p == port]]))


def terminal_probabilities(stream: ShadowStream) -> dict[str, float]:
    return {key: abs(amp) ** 2 for key, amp in stream_terminal_amplitudes(stream).items()}


def unitarity_defect(stream: ShadowStream) -> float:
    """|total probability - 1| of one emission; a multi-arm source counts
    with its 1/sqrt(fanout) weight (see stream_terminal_amplitudes)."""
    return abs(sum(p for p in terminal_probabilities(stream).values()) - 1.0)


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


def congruence_check(left: ShadowStream, right: ShadowStream) -> CongruenceReport:
    """Verify the single-crossing congruence between the two sides.

    Source port 0 is the shifted arm a on the left and the plain arm a' on
    the right; port 1 is the plain arm b on the left and the shifted arm b'
    on the right.  Each left terminal's counterpart is its label plus a
    prime.

    In a symmetric geometry the plain left arm reaches each terminal with
    the same amplitude as the plain right arm reaches the counterpart
    terminal.  That identity lets the sum of cross-side products be
    rewritten as one all-left product plus one all-right product; the
    report carries both forms and their worst-case difference.
    """

    def arm_amplitudes(stream: ShadowStream) -> dict[tuple[int, str], complex]:
        return {
            (port, key): amp
            for port in range(stream.circuit.source_fanout(stream.source))
            for key, amp in stream_terminal_amplitudes(stream, port=port).items()
        }

    amp_l = arm_amplitudes(left)
    amp_r = arm_amplitudes(right)
    left_terms = left.circuit.terminal_keys()
    if sorted(t + "'" for t in left_terms) != sorted(right.circuit.terminal_keys()):
        raise ValueError("terminal correspondence does not match the right side")

    identity_dev = 0.0
    for t in left_terms:
        identity_dev = max(identity_dev, abs(amp_l.get((1, t), 0j) - amp_r.get((0, t + "'"), 0j)))

    cross: dict[tuple[str, str], complex] = {}
    refactored: dict[tuple[str, str], complex] = {}
    refactor_dev = 0.0
    for x in left_terms:
        for y in left_terms:
            xp, yp = x + "'", y + "'"
            cross_val = amp_l.get((0, x), 0j) * amp_r.get((0, yp), 0j) + amp_l.get(
                (1, x), 0j
            ) * amp_r.get((1, yp), 0j)
            local_val = amp_l.get((0, x), 0j) * amp_l.get((1, y), 0j) + amp_r.get(
                (0, xp), 0j
            ) * amp_r.get((1, yp), 0j)
            cross[(x, yp)] = cross_val
            refactored[(x, yp)] = local_val
            refactor_dev = max(refactor_dev, abs(cross_val - local_val))

    return CongruenceReport(
        identity_deviation=identity_dev,
        refactoring_deviation=refactor_dev,
        cross_terms=cross,
        refactored_terms=refactored,
    )
