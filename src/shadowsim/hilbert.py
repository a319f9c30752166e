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
exp(i(link phase + its shift)).  Pairs evolve each side per source arm and
combine matching arms, the same decomposition the stream engine uses.
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
    """Terminal amplitudes of a particle (or pair) fed through a circuit."""

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

    max_drift = _drift(state)
    for eid in circuit.topo_order:
        el = circuit.elements[eid]
        if el.kind in TERMINAL_TYPES or el.kind is ElementType.SOURCE:
            continue
        if el.kind is ElementType.BEAMSPLITTER:
            m1, m2 = (state.pop(circuit.in_link(eid, p), 0.0 + 0.0j) for p in range(2))
            # Reflection-first rows: output port 1 is the cross port of input 0.
            for (b1, b2), out_port in zip(_BS_BLOCK, (1, 0)):
                out = circuit.out_link(eid, out_port)
                state[out] = (b1 * m1 + b2 * m2) * cmath.exp(1j * out.phase)
        else:
            in_link = circuit.in_link(eid, 0)
            if in_link not in state:
                continue  # dead element, nothing arrives
            out = circuit.out_link(eid, 0)
            shift = out.phase + (el.shift if el.kind is ElementType.PHASESHIFTER else 0.0)
            state[out] = state.pop(in_link) * cmath.exp(1j * shift)
        max_drift = max(max_drift, _drift(state))

    amplitudes: dict[Outcome, complex] = {
        circuit.terminal_key(term): state.get(circuit.in_link(term, 0), 0.0 + 0.0j)
        for term in circuit.terminals
    }
    return CircuitEvolution(amplitudes=amplitudes, max_norm_drift=max_drift)


def evolve_pair(left: Circuit, right: Circuit) -> CircuitEvolution:
    """Joint (left, right) terminal amplitudes of a correlated pair.

    The source sends both daughters out through matching arm indices, in an
    equal superposition over the arms: each side is evolved from arm k
    alone, arm k pairs with arm k, and the sum carries 1/sqrt(arms).
    """
    arms = left.source_fanout(left.sole_source())
    if right.source_fanout(right.sole_source()) != arms:
        raise ValueError("both sides of a pair need the same number of source arms")
    joint: dict[Outcome, complex] = {
        (x, y): 0.0 + 0.0j for x in left.terminal_keys() for y in right.terminal_keys()
    }
    max_drift = 0.0
    for arm in range(arms):
        side_l = evolve_circuit(left, port=arm)
        side_r = evolve_circuit(right, port=arm)
        max_drift = max(max_drift, side_l.max_norm_drift, side_r.max_norm_drift)
        for x, amp_l in side_l.amplitudes.items():
            for y, amp_r in side_r.amplitudes.items():
                joint[(x, y)] += amp_l * amp_r
    weight = 1.0 / math.sqrt(arms)
    return CircuitEvolution({key: weight * amp for key, amp in joint.items()}, max_drift)
