"""Optical-bench circuit description: elements, links, parsing, path listing.

A circuit is a finite DAG of bench elements.  Ports are integer indexed.
Beamsplitters have input ports {0, 1} and output ports {0, 1}; the same-index
in/out pair is the transmission route and the cross-index pair is the
reflection route (which later picks up the quarter-turn phase factor i).
Mirrors and phase shifters are 1-in/1-out, sources have no inputs, detectors
and blockers have no outputs.  Every link may carry a pathlength phase in
radians, already reduced from geometric length, so symmetric geometries are
expressed by giving matching arms equal phase totals.  Mirrors themselves are
phase neutral.

Text format, one statement per line, ``#`` starts a comment:

    element <id> source|beamsplitter|mirror|detector:<label>|blocker|phaseshifter:<radians>
    link <id>:<port> <id>:<port> [phase=<radians>]

Radians accept literals and pi-expressions such as ``pi/2`` or ``3pi/4``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field

from .angles import canonical_angle, parse_angle

__all__ = [
    "ElementType",
    "Element",
    "Link",
    "Path",
    "Circuit",
    "CircuitError",
    "CircuitParseError",
    "CircuitValidationError",
    "parse_circuit",
    "render_circuit",
    "enumerate_paths",
]


class ElementType(enum.Enum):
    SOURCE = "source"
    BEAMSPLITTER = "beamsplitter"
    MIRROR = "mirror"
    PHASESHIFTER = "phaseshifter"
    DETECTOR = "detector"
    BLOCKER = "blocker"


# Terminals absorb; everything else must pass amplitude onward.
TERMINAL_TYPES = frozenset({ElementType.DETECTOR, ElementType.BLOCKER})


@dataclass(frozen=True)
class Element:
    """One bench element.  ``shift`` is meaningful for phase shifters only
    (canonicalized to [0, 2pi)), ``label`` for detectors only."""

    kind: ElementType
    shift: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is ElementType.PHASESHIFTER:
            object.__setattr__(self, "shift", canonical_angle(self.shift))
        elif self.shift != 0.0:
            raise CircuitValidationError(f"{self.kind.value} takes no shift")
        if self.kind is ElementType.DETECTOR:
            if not self.label:
                raise CircuitValidationError("detector needs a label")
        elif self.label:
            raise CircuitValidationError(f"{self.kind.value} takes no label")


@dataclass(frozen=True)
class Link:
    """Directed connection from an output port to an input port."""

    src: str
    src_port: int
    dst: str
    dst_port: int
    phase: float = 0.0


@dataclass(frozen=True)
class Path:
    """One complete route from a source to a terminal.

    ``steps`` holds (element-id, in-port, out-port) triples for every element
    traversed, the source entry carrying in-port None and the terminal exit
    carrying out-port None.  ``geometric_phase`` is the sum of link phases
    along the route.
    """

    source: str
    steps: tuple[tuple[str, int | None, int | None], ...]
    terminal: str
    geometric_phase: float

    @property
    def element_ids(self) -> tuple[str, ...]:
        return tuple(step[0] for step in self.steps)

    @property
    def source_port(self) -> int:
        """Output port through which the route leaves its source."""
        port = self.steps[0][2]
        assert port is not None
        return port


class CircuitError(Exception):
    """Base class for circuit description problems."""


class CircuitParseError(CircuitError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CircuitValidationError(CircuitError):
    pass


_IN_ARITY = {
    ElementType.SOURCE: 0,
    ElementType.BEAMSPLITTER: 2,
    ElementType.MIRROR: 1,
    ElementType.PHASESHIFTER: 1,
    ElementType.DETECTOR: 1,
    ElementType.BLOCKER: 1,
}

# Sources get their fan-out from the links; None means "inferred".
_OUT_ARITY: dict[ElementType, int | None] = {
    ElementType.SOURCE: None,
    ElementType.BEAMSPLITTER: 2,
    ElementType.MIRROR: 1,
    ElementType.PHASESHIFTER: 1,
    ElementType.DETECTOR: 0,
    ElementType.BLOCKER: 0,
}


class Circuit:
    """Validated, immutable circuit.  Mutating the payload is unsupported."""

    def __init__(self, elements: dict[str, Element], links: list[Link] | tuple[Link, ...]):
        self.elements: dict[str, Element] = dict(elements)
        self.links: tuple[Link, ...] = tuple(links)
        self._out: dict[tuple[str, int], Link] = {}
        self._in: dict[tuple[str, int], Link] = {}
        self._validate()
        self.sources: tuple[str, ...] = tuple(
            eid for eid, el in self.elements.items() if el.kind is ElementType.SOURCE
        )
        self.terminals: tuple[str, ...] = tuple(
            eid for eid, el in self.elements.items() if el.kind in TERMINAL_TYPES
        )
        self.topo_order: tuple[str, ...] = self._toposort()

    # -- structure queries ------------------------------------------------

    def out_link(self, eid: str, port: int) -> Link | None:
        return self._out.get((eid, port))

    def in_link(self, eid: str, port: int) -> Link | None:
        return self._in.get((eid, port))

    def source_fanout(self, eid: str) -> int:
        if self.elements[eid].kind is not ElementType.SOURCE:
            raise CircuitValidationError(f"{eid} is not a source")
        return len([1 for (e, _p) in self._out if e == eid])

    def sole_source(self) -> str:
        """The source to use when the caller names none."""
        if len(self.sources) != 1:
            raise CircuitValidationError(
                f"circuit has {len(self.sources)} sources, pass one explicitly"
            )
        return self.sources[0]

    def terminal_key(self, eid: str) -> str:
        """Outcome key for a terminal: detector label, or blocker id."""
        el = self.elements[eid]
        if el.kind is ElementType.DETECTOR:
            return el.label
        if el.kind is ElementType.BLOCKER:
            return eid
        raise CircuitValidationError(f"{eid} is not a terminal")

    def terminal_keys(self) -> tuple[str, ...]:
        return tuple(self.terminal_key(t) for t in self.terminals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            list(self.elements.items()) == list(other.elements.items())
            and self.links == other.links
        )

    def __repr__(self) -> str:
        return f"Circuit({len(self.elements)} elements, {len(self.links)} links)"

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        if not self.elements:
            raise CircuitValidationError("no source: circuit has no elements")

        labels: dict[str, str] = {}
        for eid, el in self.elements.items():
            if not eid or not isinstance(eid, str):
                raise CircuitValidationError(f"bad element id {eid!r}")
            if el.kind is ElementType.DETECTOR:
                if el.label in labels:
                    raise CircuitValidationError(
                        f"duplicate detector label {el.label!r} on {labels[el.label]} and {eid}"
                    )
                labels[el.label] = eid
        for eid, el in self.elements.items():
            if el.kind is ElementType.BLOCKER and eid in labels:
                raise CircuitValidationError(
                    f"blocker id {eid!r} collides with a detector label"
                )

        for link in self.links:
            for end in (link.src, link.dst):
                if end not in self.elements:
                    raise CircuitValidationError(f"dangling link: unknown element {end!r}")
            src_el = self.elements[link.src]
            dst_el = self.elements[link.dst]
            if src_el.kind in TERMINAL_TYPES:
                raise CircuitValidationError(
                    f"port arity violation: {link.src} ({src_el.kind.value}) has no outputs"
                )
            out_arity = _OUT_ARITY[src_el.kind]
            if out_arity is not None and not 0 <= link.src_port < out_arity:
                raise CircuitValidationError(
                    f"port arity violation: {link.src} has no output port {link.src_port}"
                )
            if src_el.kind is ElementType.SOURCE and link.src_port < 0:
                raise CircuitValidationError(
                    f"port arity violation: bad source port {link.src_port}"
                )
            if dst_el.kind is ElementType.SOURCE:
                raise CircuitValidationError(
                    f"port arity violation: {link.dst} (source) has no inputs"
                )
            if not 0 <= link.dst_port < _IN_ARITY[dst_el.kind]:
                raise CircuitValidationError(
                    f"port arity violation: {link.dst} has no input port {link.dst_port}"
                )
            out_key = (link.src, link.src_port)
            if out_key in self._out:
                raise CircuitValidationError(
                    f"port arity violation: output {link.src}:{link.src_port} linked twice"
                )
            in_key = (link.dst, link.dst_port)
            if in_key in self._in:
                raise CircuitValidationError(
                    f"port arity violation: input {link.dst}:{link.dst_port} fed twice"
                )
            self._out[out_key] = link
            self._in[in_key] = link

        any_source = False
        for eid, el in self.elements.items():
            if el.kind is ElementType.SOURCE:
                any_source = True
                used = sorted(p for (e, p) in self._out if e == eid)
                if not used:
                    raise CircuitValidationError(f"source {eid} emits into nothing")
                if used != list(range(len(used))):
                    raise CircuitValidationError(
                        f"source {eid} output ports must be contiguous from 0, got {used}"
                    )
            elif el.kind not in TERMINAL_TYPES:
                arity = _OUT_ARITY[el.kind]
                assert arity is not None
                for port in range(arity):
                    if (eid, port) not in self._out:
                        raise CircuitValidationError(
                            f"output port {eid}:{port} is not linked"
                        )
        if not any_source:
            raise CircuitValidationError("no source element in circuit")

    def _toposort(self) -> tuple[str, ...]:
        indeg = {eid: 0 for eid in self.elements}
        adjacent: dict[str, list[str]] = {eid: [] for eid in self.elements}
        for link in self.links:
            indeg[link.dst] += 1
            adjacent[link.src].append(link.dst)
        ready = [eid for eid in self.elements if indeg[eid] == 0]
        order: list[str] = []
        while ready:
            eid = ready.pop(0)
            order.append(eid)
            for nxt in adjacent[eid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.elements):
            cyclic = sorted(eid for eid, d in indeg.items() if d > 0)
            raise CircuitValidationError(f"cycle detected involving {cyclic}")
        return tuple(order)


# -- text format ----------------------------------------------------------

_PORT_REF = re.compile(r"^(?P<id>[A-Za-z0-9_']+):(?P<port>\d+)$")
_ID = re.compile(r"^[A-Za-z0-9_']+$")


def _tokens(line: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs, dropping comments."""
    code = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", code)]


def parse_circuit(text: str) -> Circuit:
    """Parse the text format into a validated Circuit.

    Raises CircuitParseError with line and column on malformed input, and
    CircuitValidationError on structural problems (bad arity, cycles, ...).
    """
    elements: dict[str, Element] = {}
    element_lines: dict[str, int] = {}
    links: list[Link] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw.rstrip("\r"))
        if not toks:
            continue
        head, col = toks[0]
        if head == "element":
            if len(toks) != 3:
                raise CircuitParseError(
                    "expected: element <id> <kind>", lineno, col
                )
            eid, eid_col = toks[1]
            if not _ID.match(eid):
                raise CircuitParseError(f"bad element id {eid!r}", lineno, eid_col)
            if eid in elements:
                raise CircuitParseError(
                    f"duplicate id {eid!r} (first defined on line {element_lines[eid]})",
                    lineno,
                    eid_col,
                )
            kind_tok, kind_col = toks[2]
            elements[eid] = _parse_kind(kind_tok, lineno, kind_col)
            element_lines[eid] = lineno
        elif head == "link":
            if len(toks) not in (3, 4):
                raise CircuitParseError(
                    "expected: link <id>:<port> <id>:<port> [phase=<radians>]",
                    lineno,
                    col,
                )
            (src_tok, src_col), (dst_tok, dst_col) = toks[1], toks[2]
            src = _PORT_REF.match(src_tok)
            if src is None:
                raise CircuitParseError(f"bad port reference {src_tok!r}", lineno, src_col)
            dst = _PORT_REF.match(dst_tok)
            if dst is None:
                raise CircuitParseError(f"bad port reference {dst_tok!r}", lineno, dst_col)
            phase = 0.0
            if len(toks) == 4:
                phase_tok, phase_col = toks[3]
                if not phase_tok.startswith("phase="):
                    raise CircuitParseError(
                        f"expected phase=<radians>, got {phase_tok!r}", lineno, phase_col
                    )
                try:
                    phase = parse_angle(phase_tok[len("phase="):])
                except ValueError as exc:
                    raise CircuitParseError(str(exc), lineno, phase_col) from exc
            for end, end_col in ((src.group("id"), src_col), (dst.group("id"), dst_col)):
                if end not in elements:
                    raise CircuitParseError(
                        f"dangling link: unknown element {end!r}", lineno, end_col
                    )
            links.append(
                Link(
                    src.group("id"),
                    int(src.group("port")),
                    dst.group("id"),
                    int(dst.group("port")),
                    phase,
                )
            )
        else:
            raise CircuitParseError(f"unknown statement {head!r}", lineno, col)
    return Circuit(elements, links)


def _parse_kind(token: str, lineno: int, col: int) -> Element:
    name, _, arg = token.partition(":")
    try:
        kind = ElementType(name)
    except ValueError:
        raise CircuitParseError(f"unknown element kind {name!r}", lineno, col) from None
    if kind is ElementType.DETECTOR:
        if not arg or not _ID.match(arg):
            raise CircuitParseError("detector needs a label: detector:<label>", lineno, col)
        return Element(kind, label=arg)
    if kind is ElementType.PHASESHIFTER:
        if not arg:
            raise CircuitParseError(
                "phaseshifter needs an angle: phaseshifter:<radians>", lineno, col
            )
        try:
            return Element(kind, shift=parse_angle(arg))
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno, col) from exc
    if arg:
        raise CircuitParseError(f"{name} takes no argument", lineno, col)
    return Element(kind)


def render_circuit(circuit: Circuit) -> str:
    """Render back to the text format; parse(render(c)) == c exactly."""
    lines = []
    for eid, el in circuit.elements.items():
        if el.kind is ElementType.DETECTOR:
            kind = f"detector:{el.label}"
        elif el.kind is ElementType.PHASESHIFTER:
            kind = f"phaseshifter:{el.shift!r}"
        else:
            kind = el.kind.value
        lines.append(f"element {eid} {kind}")
    for link in circuit.links:
        stmt = f"link {link.src}:{link.src_port} {link.dst}:{link.dst_port}"
        if link.phase != 0.0:
            stmt += f" phase={link.phase!r}"
        lines.append(stmt)
    return "\n".join(lines) + "\n"


# -- path enumeration ------------------------------------------------------

def enumerate_paths(circuit: Circuit, source: str | None = None) -> list[Path]:
    """All source-to-terminal routes, sorted by their element-id sequence.

    The walker branches at every beamsplitter (both output ports) and at the
    source (every emission port).  The circuit being a DAG with single-linked
    output ports guarantees termination and uniqueness.
    """
    if source is None:
        source = circuit.sole_source()
    if source not in circuit.elements:
        raise CircuitValidationError(f"unknown source {source!r}")
    if circuit.elements[source].kind is not ElementType.SOURCE:
        raise CircuitValidationError(f"{source} is not a source")

    paths: list[Path] = []

    def walk(
        eid: str,
        in_port: int | None,
        steps: list[tuple[str, int | None, int | None]],
        phase: float,
    ) -> None:
        el = circuit.elements[eid]
        if el.kind in TERMINAL_TYPES:
            paths.append(
                Path(source, tuple(steps + [(eid, in_port, None)]), eid, phase)
            )
            return
        if el.kind is ElementType.SOURCE:
            out_ports = range(circuit.source_fanout(eid))
        elif el.kind is ElementType.BEAMSPLITTER:
            out_ports = range(2)
        else:
            out_ports = range(1)
        for out_port in out_ports:
            link = circuit.out_link(eid, out_port)
            assert link is not None, "validated circuits have no open outputs"
            walk(
                link.dst,
                link.dst_port,
                steps + [(eid, in_port, out_port)],
                phase + link.phase,
            )

    walk(source, None, [], 0.0)
    paths.sort(key=lambda p: p.element_ids)
    return paths
