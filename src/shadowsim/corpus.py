"""Randomized circuit generator for cross-engine agreement tests.

Circuits are grown frontier-first from a single one-arm source, so the
result is a DAG by construction: every new element consumes open outputs
and emits fresh ones.  Recombining splitters (both inputs fed from the
frontier) are favored because they are the only way to create
interference, which is what the agreement tests are really exercising.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .circuit import Circuit, Element, ElementType, Link
from .rng import make_rng

_TWO_PI = 2.0 * math.pi
# The kinds' weights 0.45, 0.15, 0.2, 0.2 as Generator.choice's normalised cdf
# (exactly these floats), into which each growth step bisects one rng.random().
_KINDS = ("bs", "mirror", "shift", "close")
_KIND_CDF = (0.45, 0.6, 0.8, 1.0)
MAX_BEAMSPLITTERS = 5  # the splitter budget is drawn from 1 to this
RECOMBINE_BIAS = 0.65  # chance a new splitter also takes a second open output
PHASE_CHANCE = 0.5  # chance a link carries a random pathlength phase
BLOCKER_CHANCE = 0.1  # chance an output is closed by a blocker, not a detector


def random_circuit(seed: int) -> Circuit:
    """Grow one valid single-source circuit from ``seed``.

    The splitter count is drawn up to MAX_BEAMSPLITTERS; unresolved outputs
    are closed with detectors (occasionally blockers) once the budget runs
    out.
    """
    rng = make_rng(seed)
    elements: dict[str, Element] = {"src": Element(ElementType.SOURCE)}
    links: list[Link] = []
    frontier: list[tuple[str, int]] = [("src", 0)]
    bs_budget = int(rng.integers(1, MAX_BEAMSPLITTERS + 1))
    counters = {"bs": 0, "m": 0, "ps": 0, "det": 0, "blk": 0}

    def fresh(prefix: str) -> str:
        name = f"{prefix}{counters[prefix]}"
        counters[prefix] += 1
        return name

    def link_phase() -> float:
        if rng.random() < PHASE_CHANCE:
            return float(rng.uniform(0.0, _TWO_PI))
        return 0.0

    while frontier:
        pick = int(rng.integers(len(frontier)))
        src_id, src_port = frontier.pop(pick)
        if len(elements) > 60:
            bs_budget = 0  # runaway guard, close everything out
        if bs_budget > 0:
            kind = _KINDS[bisect_right(_KIND_CDF, rng.random())]
        else:
            kind = "close"
        if kind == "bs":
            bs_budget -= 1
            eid = fresh("bs")
            elements[eid] = Element(ElementType.BEAMSPLITTER)
            feeds = [(src_id, src_port)]
            if frontier and rng.random() < RECOMBINE_BIAS:
                other = int(rng.integers(len(frontier)))
                feeds.append(frontier.pop(other))
            in_ports = [0, 1] if rng.random() < 0.5 else [1, 0]
            for (sid, sport), in_port in zip(feeds, in_ports):
                links.append(Link(sid, sport, eid, in_port, link_phase()))
            frontier += [(eid, 0), (eid, 1)]
        elif kind == "mirror":
            eid = fresh("m")
            elements[eid] = Element(ElementType.MIRROR)
            links.append(Link(src_id, src_port, eid, 0, link_phase()))
            frontier.append((eid, 0))
        elif kind == "shift":
            eid = fresh("ps")
            shift = float(rng.uniform(0.0, _TWO_PI))
            elements[eid] = Element(ElementType.PHASESHIFTER, shift=shift)
            links.append(Link(src_id, src_port, eid, 0, link_phase()))
            frontier.append((eid, 0))
        else:
            if rng.random() < BLOCKER_CHANCE:
                eid = fresh("blk")
                elements[eid] = Element(ElementType.BLOCKER)
            else:
                eid = fresh("det")
                elements[eid] = Element(ElementType.DETECTOR, label=eid)
            links.append(Link(src_id, src_port, eid, 0, link_phase()))
    return Circuit(elements, links)
