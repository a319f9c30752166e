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
exp(i(link phase + its shift)).  ``port=k`` evolves source arm k alone;
experiments.pair_amplitudes pairs that per-arm view across the two
daughters of a pair, on either engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .circuit import Circuit, ElementType, Link, TERMINAL_TYPES
from .outcomes import Outcome

ENGINE_VERSION = "1.0"

_NORM_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Balanced splitter block: rows output ports (1, 0), columns input ports (0, 1).
_BS_BLOCK = ((1j * _INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, 1j * _INV_SQRT2))


@dataclass(frozen=True)
class CircuitEvolution:
    """Terminal amplitudes of a particle fed through a circuit."""

    amplitudes: dict[Outcome, complex]
    max_norm_drift: float

    def probabilities(self) -> dict[Outcome, float]:
        return {key: abs(amp) ** 2 for key, amp in self.amplitudes.items()}


def _drift(state: dict[Link, complex]) -> float:
    """Distance of the state norm from 1; refuses a non-unitary step."""
    drift = abs(math.sqrt(sum(abs(amp) ** 2 for amp in state.values())) - 1.0)
    if drift > _NORM_TOL:
        raise ValueError(f"state norm drifted from 1 by {drift!r}")
    return drift


def _schedule(circuit: Circuit) -> tuple[list[tuple], tuple]:
    """The structure evolve_circuit reads: non-terminal elements in
    topological order with their links and out-link factors (None for a
    phase shifter, whose shift is no structure), then each terminal's key
    and in-link."""
    steps = []
    for eid in circuit.topo_order:
        kind = circuit.elements[eid].kind
        if kind is ElementType.BEAMSPLITTER:
            # Reflection-first rows: output port 1 is the cross port of input 0.
            outs = [circuit.out_link(eid, port) for port in (1, 0)]
            ins = (circuit.in_link(eid, 0), circuit.in_link(eid, 1))
            steps.append((eid, True, ins, [(out, cmath.exp(1j * out.phase)) for out in outs]))
        elif kind not in TERMINAL_TYPES and kind is not ElementType.SOURCE:
            out = circuit.out_link(eid, 0)
            # + 0.0 turns a -0.0 link phase into 0.0, as adding a shift would.
            factor = None if kind is ElementType.PHASESHIFTER else cmath.exp(1j * (out.phase + 0.0))
            steps.append((eid, False, circuit.in_link(eid, 0), (out, factor)))
    terminals = tuple((circuit.terminal_key(t), circuit.in_link(t, 0)) for t in circuit.terminals)
    return steps, terminals


def evolve_circuit(
    circuit: Circuit, source: str | None = None, *, port: int | None = None
) -> CircuitEvolution:
    """Propagate one particle through the circuit by per-element unitaries.

    With ``port=None`` a multi-port source emits an equal-weight
    superposition over its arms; ``port=k`` starts from arm k alone with
    weight 1.  Link pathlength phases apply at emission onto the link.
    """
    if source is None:
        source = circuit.sole_source()

    fanout = circuit.source_fanout(source)
    state: dict[Link, complex] = {}
    for arm in range(fanout) if port is None else [port]:
        link = circuit.out_link(source, arm)
        if link is None:
            raise ValueError(f"source {source} has no arm {arm}")
        amp = cmath.exp(1j * link.phase)
        state[link] = amp / math.sqrt(fanout) if port is None else amp

    steps, terminals = circuit.compiled("hilbert", lambda: _schedule(circuit))
    max_drift = _drift(state)
    for eid, splitter, ins, outs in steps:
        if splitter:
            m1, m2 = (state.pop(link, 0.0 + 0.0j) for link in ins)
            for (b1, b2), (out, factor) in zip(_BS_BLOCK, outs):
                state[out] = (b1 * m1 + b2 * m2) * factor
        elif ins in state:  # else a dead element: nothing arrives
            out, factor = outs
            if factor is None:
                factor = cmath.exp(1j * (out.phase + circuit.elements[eid].shift))
            state[out] = state.pop(ins) * factor
        max_drift = max(max_drift, _drift(state))
    return CircuitEvolution({key: state.get(link, 0j) for key, link in terminals}, max_drift)
