"""Shadow streams: per-path clock amplitudes and their composition rules.

Every emission event creates one stream covering all paths of the circuit.
The module has one entry point, terminal_amplitudes, which gives a stream's
terminal sums at each of a sequence of settings; every caller, one setting
or many, goes through it.  The engine compiles the circuit into a path
table (circuit.PathTable), one row per path, walked in bundles of rows with
one element sequence.  A row's clock advances are a string of one-character
codes, each naming a phase shifter or a splitter reflection; the table holds
each string once and a row the index of its own.  The table holds no shift
value, so terminal_amplitudes evaluates its rows at a whole sequence of
settings, each a shift map and a clock, one setting at a time as they are
read.  A path's amplitude is the product of a unit phase, tracked by a path
clock, and 1/sqrt(2) per crossing:

    reflection at a beamsplitter   -> extra quarter turn (factor i)
    phase shifter with shift alpha -> factor exp(i*alpha)
    link with pathlength phase     -> factor exp(i*theta)
    shared initial clock value     -> factor exp(i*clock), once per path

Amplitudes of paths within one stream add; amplitudes of distinct streams
never add, they only multiply when a joint event needs both.  A source with
several arms emits one stream over all of them; the stream of one arm alone
is that of the circuit Circuit.arm(k), the view experiments.pair_amplitudes
multiplies across the two daughters of a pair.  The clock is represented by
its phase alone, so its modulus cannot drift.  The initial clock value is
uniform random per emission and drops out of every probability.  Every
result is read from the table's columns.

A long table whose rows share advance strings takes a column route: numpy
does the row route's fmod, adds and compares on a block of rows at a time,
depth by depth along the strings, in the same order per row, so the bits are
the same.  numpy is imported inside that route only (rng still loads it).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import chain, groupby, islice
from operator import add, countOf

from .angles import canonical_angle
from .circuit import (COLUMN_MIN_ROWS, REFLECTION_TURN, Circuit, ElementType, PathTable,
                      compile_paths)
from .rng import uniform_draws

ENGINE_VERSION = "1.0"

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# A table of COLUMN_MIN_ROWS rows and COLUMN_ROWS_PER_ADVANCE rows per advance
# string takes the column route, COLUMN_BLOCK rows at a time.  Where rows share
# fewer strings it costs more memory than it saves time: a 16-splitter ladder
# with 81,921 strings took 89-115 ms against 96-136, peaking at 45 MiB against 3.9.
COLUMN_ROWS_PER_ADVANCE = 32
COLUMN_BLOCK = 2**12


def initial_clocks(seeds: Iterable[int | None]) -> list[float]:
    """Each emission's initial clock, uniform on [0, 2pi), drawn from its seed
    as ``default_rng(seed).uniform(0.0, 2pi)`` draws it."""
    return uniform_draws(seeds, 2.0 * math.pi)


def _table_amplitudes(circuit: Circuit, table: PathTable, settings):
    """Per setting, a shift map over the circuit's own and an initial clock,
    an iterator over the row amplitudes, each made as it is read, so no list
    of them is held."""
    elements = circuit.elements
    shifters = [(chr(rank), eid) for rank, eid in enumerate(table.element_ids)
                if elements[eid].kind is ElementType.PHASESHIFTER]
    reflection = chr(len(table.element_ids))
    own = {eid: elements[eid].shift for _, eid in shifters}
    magnitudes = [INV_SQRT2**k for k in range(max(table.crossings, default=0) + 1)]
    route = _route(table)
    for shifts, initial_clock in settings:
        values = {**own, **circuit.shift_values(shifts)}
        turns = {code: values[eid] for code, eid in shifters}
        turns[reflection] = REFLECTION_TURN
        yield route(table, canonical_angle(initial_clock), turns, magnitudes)


def _row_amplitudes(table: PathTable, start: float, turns, magnitudes):
    """The row amplitudes from the clock ``start`` in [0, 2pi).
    A row's clock starts at start plus its geometric phase, reduced to
    [0, 2pi) by canonical_angle's own steps; Circuit._validate keeps the sum
    finite, so its test is not repeated per row.  After each advance 2pi is
    subtracted once if the sum reaches it: clock and turn lie in [0, 2pi), so
    such a sum lies in [2pi, 4pi) and, by Sterbenz's lemma, the subtraction
    is exact, which is fmod's remainder bit for bit.  cmath.rect gives the
    bits of complex(cos, sin) * magnitude."""
    rect, fmod, tau = cmath.rect, math.fmod, 2.0 * math.pi
    strings = table.advance_strings
    for phase, index, crossings in zip(table.geometric_phases, table.advances, table.crossings):
        clock = fmod(start + phase, tau)
        if clock < 0.0:
            clock += tau
        if clock >= tau:
            clock -= tau
        for code in strings[index]:
            clock += turns[code]
            if clock >= tau:
                clock -= tau
        yield rect(magnitudes[crossings], clock)


def _route(table: PathTable):
    """The column route for a long table whose rows share advance strings."""
    rows = len(table)
    shared = rows >= COLUMN_MIN_ROWS and rows >= COLUMN_ROWS_PER_ADVANCE * len(table.advance_strings)
    return _block_amplitudes if shared else _row_amplitudes


def _block_amplitudes(table: PathTable, start: float, turns, magnitudes):
    """The row amplitudes of _row_amplitudes, bit for bit, with the clock
    arithmetic done on COLUMN_BLOCK rows at a time: the start and its two
    fix-ups on the whole block, then, depth by depth along the advance
    strings, each row's turn at that depth and one conditional subtraction.
    A row whose string is shorter than the depth adds -0.0, which leaves
    every float as it is, so each row takes the row route's adds and
    compares in its order.  These IEEE adds, compares and fmod are exact or
    correctly rounded in any implementation.  cmath.rect then reads the
    clocks row by row in table order; a block is evaluated when the rows
    before it have been read."""
    import numpy as np

    tau = 2.0 * math.pi
    strings = table.advance_strings
    lengths = np.array(list(map(len, strings)))
    # A code past 0xD7FF is a surrogate, which only "surrogatepass" encodes.
    codes = np.frombuffer("".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    turn_of_code = np.zeros(len(table.element_ids) + 1)
    turn_of_code[list(map(ord, turns))] = list(turns.values())
    depth_turns = np.full((lengths.max(), len(strings)), -0.0)  # per depth, a turn per string
    depth_turns.T[np.arange(lengths.max()) < lengths[:, None]] = turn_of_code.take(codes)
    phases = np.frombuffer(table.geometric_phases)
    advances = np.frombuffer(table.advances, dtype=np.uintc)
    buffer, turned = np.empty((2, min(COLUMN_BLOCK, len(phases))))

    def block_clocks(first_row):
        block = slice(first_row, first_row + COLUMN_BLOCK)
        clocks = np.add(start, phases[block], out=buffer[:len(phases[block])])
        np.fmod(clocks, tau, out=clocks)
        np.add(clocks, tau, out=clocks, where=clocks < 0.0)
        np.subtract(clocks, tau, out=clocks, where=clocks >= tau)
        rows, row_turns = advances[block].astype(np.intp), turned[:len(clocks)]
        for turns_at_depth in depth_turns:  # "clip" lets take write to out unbuffered
            clocks += turns_at_depth.take(rows, out=row_turns, mode="clip")
            np.subtract(clocks, tau, out=clocks, where=clocks >= tau)
        return memoryview(clocks)

    clocks = chain.from_iterable(map(block_clocks, range(0, len(phases), COLUMN_BLOCK)))
    return map(cmath.rect, map(magnitudes.__getitem__, table.crossings), clocks)


def _terminal_sums(circuit: Circuit, table: PathTable, row_sets):
    """Per iterator over the row amplitudes, the terminal amplitudes, each
    folded left to right from 0j over its rows in table order.  The rows of
    one bundle share a terminal, so the rows are split once per call into
    runs of consecutive rows with one terminal, counted without being copied,
    and each run is folded onto its terminal's sum in turn as its rows are
    read."""
    keys = dict(zip(circuit.terminals, circuit.terminal_keys()))
    runs = [(keys[terminal], countOf(run, terminal)) for terminal, run in groupby(table.terminals)]
    fanout = circuit.source_fanout(table.source)
    for rows in row_sets:
        sums = dict.fromkeys(keys.values(), 0j)
        for key, n in runs:
            sums[key] = reduce(add, islice(rows, n), sums[key])
        if fanout > 1:
            sums = {key: amp / math.sqrt(fanout) for key, amp in sums.items()}
        yield sums


def terminal_amplitudes(circuit: Circuit, settings) -> Iterator[dict[str, complex]]:
    """Amplitude per terminal, blockers included, unreached ones 0, of one
    emission at each of ``settings`` (shift map, initial clock), each made as
    it is read, rows added one by one in table order (builtin sum compensates
    from Python 3.12).  A source with several arms emits an equal-weight
    superposition over them, so the sums carry 1/sqrt(fanout), as
    hilbert.terminal_amplitudes, which takes the same settings, does."""
    table = compile_paths(circuit)
    return _terminal_sums(circuit, table, _table_amplitudes(circuit, table, settings))


def unitarity_defect(amplitudes: dict[str, complex]) -> float:
    """|total probability - 1| of one emission's terminal amplitudes, as
    terminal_amplitudes gives them."""
    return abs(sum(abs(amp) ** 2 for amp in amplitudes.values()) - 1.0)
