"""Both engines against exact amplitudes on the long tables.

A circuit whose link phases and shifts are multiples of pi/4, run at clock
0, has amplitudes z / sqrt2**k with z in Z[w], w = exp(i pi/4), which
reference.exact_amplitudes evolves with no rounding.  Each engine's largest
|amplitude - exact| over the terminals, measured on ladders of 4 to 18
splitters and walks of 8 to 16 steps with phases drawn as below, grows with
the log of the row count, not its square root:

    circuit      rows     streams   hilbert
    ladder-10    2^10     1.2e-15   1.3e-15
    ladder-13    2^13     6.9e-15   1.7e-15
    ladder-16    2^16     8.0e-15   2.0e-15
    ladder-18    2^18     7.4e-15   2.1e-15
    walk-16      2^16     2.9e-15   9.6e-16

The largest per log2(rows) was 2.4 eps for streams (ladder-6, 1.5e-15) and
0.8 eps for hilbert (ladder-4, 6.9e-16), eps = 2**-52, so the bounds are
4 eps and 2 eps per log2(rows).

That law does not hold on the corpus.  Its tables have at most 32 rows (175
of seeds 0-499 have one, where the bound is 0), while a route multiplies up
to 13 link and shift factors, so the bound failed on 354 of the 1,000
(circuit, engine) pairs.  Per link of the longest route, the worst over
seeds 0-499 was 2.9 eps for streams and 2.0 eps for hilbert, so the corpus
bounds are 4 eps and 3 eps per link: 1.4x and 1.5x headroom.
"""

import math
import random
from dataclasses import replace

import pytest

from shadowsim import hilbert, streams
from shadowsim.circuit import Circuit, Element, ElementType, compile_paths, parse_circuit
from shadowsim.corpus import random_circuit
from shadowsim.experiments import mach_zehnder_circuit
from conftest import _shifted_ladder_text
from reference import exact_amplitudes, exact_error

EPS = 2.0**-52
BOUND_PER_LOG2_ROWS = {"streams": 4 * EPS, "hilbert": 2 * EPS}
BOUND_PER_LINK = {"streams": 4 * EPS, "hilbert": 3 * EPS}
ENGINES = {"streams": streams.terminal_amplitudes, "hilbert": hilbert.terminal_amplitudes}


def _snapped(circuit: Circuit, seed: int) -> Circuit:
    """``circuit`` with each link phase, then each phase shift, a multiple of
    pi/4 drawn from ``seed``."""
    rng = random.Random(seed)
    links = [replace(link, phase=rng.randrange(8) * math.pi / 4) for link in circuit.links]
    elements = {eid: Element(el.kind, shift=rng.randrange(8) * math.pi / 4)
                if el.kind is ElementType.PHASESHIFTER else el
                for eid, el in circuit.elements.items()}
    return Circuit(elements, links)


def _worst_errors(circuit: Circuit):
    """Per engine, its largest |amplitude - exact| over the terminals at the
    circuit's own shifts and clock 0."""
    exact = exact_amplitudes(circuit)
    for name, engine in ENGINES.items():
        (amplitudes,) = engine(circuit, [({}, 0.0)])
        assert list(amplitudes) == list(exact)
        yield name, max(exact_error(exact[key], amp) for key, amp in amplitudes.items())


def _longest_route(circuit: Circuit) -> int:
    """Links on the longest route from the source to a terminal."""
    links = dict.fromkeys(circuit.topo_order, 0)
    for link in sorted(circuit.links, key=lambda link: circuit.topo_order.index(link.src)):
        links[link.dst] = max(links[link.dst], links[link.src] + 1)
    return max(links[terminal] for terminal in circuit.terminals)


CASES = {
    **{f"ladder-{k}": lambda ladder, walk, k=k: _snapped(parse_circuit(ladder(k)), k)
       for k in range(10, 19)},
    "walk-16": lambda ladder, walk: _snapped(parse_circuit(walk(16)), 16),
    "shifter-ladder-12": lambda ladder, walk: _snapped(parse_circuit(_shifted_ladder_text(12)), 12),
}


@pytest.mark.parametrize("case", CASES)
def test_both_engines_sit_within_the_bound_of_the_exact_amplitudes(ladder_text, walk_text, case):
    circuit = CASES[case](ladder_text, walk_text)
    log_rows = math.log2(len(compile_paths(circuit)))
    for name, worst in _worst_errors(circuit):
        assert worst <= BOUND_PER_LOG2_ROWS[name] * log_rows, name


def test_both_engines_sit_within_the_bound_per_link_on_the_corpus():
    for seed in range(500):
        circuit = _snapped(random_circuit(seed), seed)
        links = _longest_route(circuit)
        for name, worst in _worst_errors(circuit):
            assert worst <= BOUND_PER_LINK[name] * links, (seed, name)


def test_the_oracle_gives_the_mach_zehnder_closed_form():
    """At alpha = pi/2, theta = pi/4 the closed forms (1/2)e^{i theta} i
    (e^{i alpha} + 1) and (1/2)e^{i theta}(e^{i alpha} - 1) are both
    -sqrt2/2 = (w^3 - w) / sqrt2**2; a phase off the pi/4 grid is refused."""
    exact = exact_amplitudes(mach_zehnder_circuit(math.pi / 2, math.pi / 4))
    assert exact == {"u": ((0, -1, 0, 1), 2, 1), "d": ((0, -1, 0, 1), 2, 1)}
    assert exact_error(exact["u"], complex(-math.sqrt(0.5))) < 1e-16
    with pytest.raises(ValueError, match="multiple of pi/4"):
        exact_amplitudes(mach_zehnder_circuit(0.3))
