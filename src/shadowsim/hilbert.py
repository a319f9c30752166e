"""Link-mode state-vector engine, the reference the stream picture is
checked against.

The basis is the set of in-flight links of a ``Circuit``: the state maps each
link a particle may occupy to its complex amplitude.  Elements act in
topological order by local unitaries, so nothing here knows a closed-form
law or a canned bench.  The balanced beamsplitter matches the circuit
module: transmission keeps its phase, reflection gains the factor i, both
scale by 1/sqrt(2).  With outputs listed reflection-first, input port 0
scatters as

    |in0> -> (i|out1> + |out0>) / sqrt(2)
    |in1> -> (|out1> + i|out0>) / sqrt(2)

so two splitters wired port to matched port return the input times i.  A
one-port element moves the amplitude onto its output link times
exp(i(link phase + its shift)).  terminal_amplitudes evolves one emission of
a structure at a sequence of settings and takes them in the form
streams.terminal_amplitudes does, so either engine answers one call.  Source
arm k alone is the circuit Circuit.arm(k), the view
experiments.pair_amplitudes pairs across the two daughters of a pair.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator

from . import streams
from .circuit import Circuit, ElementType, TERMINAL_TYPES

ENGINE_VERSION = "1.0"

_NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Balanced splitter block: rows output ports (1, 0), columns input ports (0, 1).
_BS_BLOCK = ((1j * _INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, 1j * _INV_SQRT2))


def _schedule(circuit: Circuit) -> tuple[list[tuple], tuple, dict]:
    """The structure terminal_amplitudes reads, links by index in
    ``circuit.links`` (None unfed): non-terminal elements in topological order
    with their links and out-link factors (None for a phase shifter, whose
    shift is no structure), each terminal's key and in-link, and the index."""
    index = {link: i for i, link in enumerate(circuit.links)}

    def fed(eid: str, port: int) -> int | None:
        return index.get(circuit.in_link(eid, port))

    steps = []
    for eid in circuit.topo_order:
        kind = circuit.elements[eid].kind
        if kind is ElementType.BEAMSPLITTER:
            # Reflection-first rows: output port 1 is the cross port of input 0.
            outs = [circuit.out_link(eid, port) for port in (1, 0)]
            factors = [(index[out], cmath.exp(1j * out.phase)) for out in outs]
            steps.append((eid, True, (fed(eid, 0), fed(eid, 1)), factors))
        elif kind not in TERMINAL_TYPES and kind is not ElementType.SOURCE:
            out = circuit.out_link(eid, 0)
            # + 0.0 turns a -0.0 link phase into 0.0, as adding a shift would.
            factor = None if kind is ElementType.PHASESHIFTER else cmath.exp(1j * (out.phase + 0.0))
            steps.append((eid, False, fed(eid, 0), (index[out], out.phase, factor)))
    terminals = tuple((circuit.terminal_key(t), fed(t, 0)) for t in circuit.terminals)
    return steps, terminals, index


def terminal_amplitudes(circuit: Circuit, settings) -> Iterator[dict[str, complex]]:
    """Amplitude per terminal, blockers included, unreached ones 0, of one
    emission at each of ``settings`` (shift map, initial clock), each made as
    it is read, the shift map laid over the circuit's own by
    Circuit.shift_values.  The clock is a global phase and is not read.

    The sole source emits an equal-weight superposition over its arms, each
    amplitude divided by sqrt(fanout).  Link pathlength phases apply at
    emission onto the link.  Each emission's norm is checked once, by
    streams.unitarity_defect; a step that breaks it, or a NaN, is refused.
    """
    source = circuit.sole_source()
    steps, terminals, index = circuit.compiled("hilbert", lambda: _schedule(circuit))
    fanout = circuit.source_fanout(source)
    links = [circuit.out_link(source, arm) for arm in range(fanout)]
    initial = {index[link]: cmath.exp(1j * link.phase) / math.sqrt(fanout) for link in links}
    for shifts, _clock in settings:
        shift = circuit.shift_values(shifts)
        state = dict(initial)
        for eid, splitter, ins, outs in steps:
            if splitter:
                m1, m2 = (state.pop(link, 0.0 + 0.0j) for link in ins)
                for (b1, b2), (out, factor) in zip(_BS_BLOCK, outs):
                    state[out] = (b1 * m1 + b2 * m2) * factor
            elif ins in state:  # else a dead element: nothing arrives
                out, phase, factor = outs
                if factor is None:
                    factor = cmath.exp(1j * (phase + shift.get(eid, circuit.elements[eid].shift)))
                state[out] = state.pop(ins) * factor
        amplitudes = {k: state.get(i, 0j) for k, i in terminals}
        defect = streams.unitarity_defect(amplitudes)
        if not defect <= _NORM_TOL:
            raise ValueError(f"emission norm off 1 by {defect!r}")
        yield amplitudes
