"""Optical-bench circuit description: elements, links, parsing, path tables.

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
import math
import re
from array import array
from dataclasses import dataclass, replace
from itertools import cycle, groupby
from operator import attrgetter
from typing import Any, Callable, Hashable

from .angles import canonical_angle, parse_angle

__all__ = [
    "ElementType",
    "Element",
    "Link",
    "PathTable",
    "Circuit",
    "CircuitError",
    "CircuitParseError",
    "CircuitValidationError",
    "parse_circuit",
    "compile_paths",
    "count_paths",
    "MAX_PATHS",
    "REFLECTION_TURN",
]

# Clock advance of a splitter reflection: the quarter-turn factor i.
REFLECTION_TURN = math.pi / 2.0

# Most routes one source may have before compile_paths refuses the circuit:
# k cascaded splitters give 2**k routes, so this admits 20 of them.
MAX_PATHS = 2**20

# A path table of at least COLUMN_MIN_ROWS rows, with at least
# COLUMN_ROWS_PER_ADVANCE rows per distinct advance string, is grouped for
# evaluation COLUMN_BLOCK rows at a time (PathTable.blocks).  Below either
# bound the per-group array work costs more than it saves.
COLUMN_MIN_ROWS = 2**10
COLUMN_ROWS_PER_ADVANCE = 32
COLUMN_BLOCK = 2**12


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
        # Links leaving each element by destination, in id order; each group in port order.
        self._successors: dict[str, dict[str, list[Link]]] = {eid: {} for eid in self.elements}
        for link in sorted(self.links, key=attrgetter("dst", "src_port")):
            self._successors[link.src].setdefault(link.dst, []).append(link)
        self._compiled: dict = {}

    def shift_values(self, shifts: dict[str, float]) -> dict[str, float]:
        """``shifts`` as phase-shifter Elements hold them, reduced to [0, 2pi)."""
        for eid in shifts:
            if eid not in self.elements or self.elements[eid].kind is not ElementType.PHASESHIFTER:
                raise CircuitValidationError(f"{eid!r} is not a phase shifter")
        return {eid: canonical_angle(shift) for eid, shift in shifts.items()}

    def compiled(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per circuit and shared by every setting
        it is evaluated at; ``build`` must not read shift values."""
        if key not in self._compiled:
            self._compiled[key] = build()
        return self._compiled[key]

    def arm(self, k: int) -> Circuit:
        """The circuit fed by arm ``k`` of the sole source alone: every element
        kept, the source's other links dropped, arm k's link moved to port 0
        with its phase.  An arm that does not exist leaves the source emitting
        into nothing, which validation refuses."""
        source = self.sole_source()
        return self.compiled(("arm", k), lambda: Circuit(self.elements, [
            replace(link, src_port=0) if link.src == source else link
            for link in self.links if link.src != source or link.src_port == k]))

    # -- structure queries ------------------------------------------------

    def out_link(self, eid: str, port: int) -> Link | None:
        return self._out.get((eid, port))

    def in_link(self, eid: str, port: int) -> Link | None:
        return self._in.get((eid, port))

    def source_fanout(self, eid: str) -> int:
        if self.elements[eid].kind is not ElementType.SOURCE:
            raise CircuitValidationError(f"{eid} is not a source")
        return sum(map(len, self._successors[eid].values()))

    def sole_source(self) -> str:
        """The circuit's one source; both engines emit from it alone."""
        if len(self.sources) != 1:
            raise CircuitValidationError(
                f"circuit has {len(self.sources)} sources ({', '.join(self.sources)}); "
                "only a circuit with exactly one source can run, so remove all but one"
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
        # Every route's phase sum is bounded by this one, and the stream
        # clock must hold it as a finite number.
        if not math.isfinite(sum(abs(link.phase) for link in self.links)):
            raise CircuitValidationError(
                "link phases along a route can sum past the float range"
            )

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


# -- path tables -----------------------------------------------------------

def count_paths(circuit: Circuit) -> int:
    """Routes from the sole source to a terminal, counted without walking them.

    One pass over the topological order adds each element's route count to
    every element its outputs feed; the count is exact however large.
    """
    counts = dict.fromkeys(circuit.topo_order, 0)
    counts[circuit.sole_source()] = 1
    for eid in circuit.topo_order:
        for dst, links in circuit._successors[eid].items():
            counts[dst] += counts[eid] * len(links)
    return sum(counts[eid] for eid in circuit.terminals)


@dataclass(frozen=True)
class PathTable:
    """Every route of the sole source, one row per route, in the order of their
    element-id sequences; routes with one sequence keep the order of a
    depth-first walk that takes output port 0 first.

    Column entry i describes route i: its geometric phase, the link phases
    added one by one from the source, held unboxed in an ``array('d')``;
    its clock ``advances``, an ``array('I')`` of indices into
    ``advance_strings``, which holds each advance string once; the number of
    splitter ``crossings``; and the terminal the route ends at.  An advance
    string has one character per advance in route order: a phase shifter's
    code, the rank of its id among the sorted ``element_ids``
    (``element_ids[ord(c)]``), or ``chr(len(element_ids))`` for a splitter
    reflection (a REFLECTION_TURN).  No column holds a shift value, so one
    table serves every setting the structure is evaluated at.

    ``blocks``, for the streams engine's column route, is empty unless the
    table has COLUMN_MIN_ROWS rows and COLUMN_ROWS_PER_ADVANCE rows per
    distinct advance string.  Then it holds one entry per COLUMN_BLOCK rows
    in table order: the offsets within the block of its rows with advances,
    an ``array('H')`` sorted by advance string, and the block's advance
    steps, each a code and the run of that order it advances.
    """

    source: str
    element_ids: tuple[str, ...]
    geometric_phases: array
    advances: array
    advance_strings: tuple[str, ...]
    crossings: tuple[int, ...]
    terminals: tuple[str, ...]
    blocks: tuple[tuple[array, tuple[tuple[str, int, int], ...]], ...]

    def __len__(self) -> int:
        return len(self.terminals)


def compile_paths(circuit: Circuit) -> PathTable:
    """Walk every route from the sole source once and tabulate it.

    The walker branches at every beamsplitter (both output ports) and at the
    source (every emission port).  The circuit being a DAG with single-linked
    output ports guarantees termination and uniqueness.  A circuit with more
    than MAX_PATHS routes is refused before the walk.  The table is walked,
    and a long one grouped into blocks, once per circuit structure, then
    shared.
    """
    return circuit.compiled("paths", lambda: _walk_paths(circuit, circuit.sole_source()))


def _walk_paths(circuit: Circuit, source: str) -> PathTable:
    """Depth first over element sequences, destinations in id order, so the
    rows come out in table order.  A bundle holds the routes of one element
    sequence: the in-ports its members cycle through, then per member a
    phase and the index of its advance string.  Each string is extended by a
    code once per walk, through a memo per code, so the walk makes each
    string once.  A bundle of fewer than COLUMN_MIN_ROWS members holds
    Python lists; a longer one holds numpy columns, made by _column_children
    with the same adds, so the bits do not change.  The geometric phases and
    advances go straight into arrays; the other columns become tuples one at
    a time, each list emptied once it is copied, so the table is never held
    twice."""
    total = count_paths(circuit)
    if total > MAX_PATHS:
        raise CircuitValidationError(
            f"source {source} has {total} paths, more than the limit of {MAX_PATHS}"
        )
    kinds = {eid: el.kind for eid, el in circuit.elements.items()}
    splitter_kind, shifter_kind = ElementType.BEAMSPLITTER, ElementType.PHASESHIFTER
    element_ids = tuple(sorted(kinds))
    strings = [""]
    extended = {eid: _Extensions(chr(rank), strings) for rank, eid in enumerate(element_ids)
                if kinds[eid] is shifter_kind}
    reflected = _Extensions(chr(len(element_ids)), strings)
    geometric_phases, advance_column = array("d"), array("I")
    crossing_column: list[int] = []
    terminal_column: list[str] = []
    column_min = COLUMN_MIN_ROWS
    stack: list[tuple] = [(source, 0, (-1,), [0.0], [0])]
    while stack:
        eid, crossings, in_ports, phases, advances = stack.pop()
        groups, n = circuit._successors[eid], len(phases)
        if not groups:  # only terminals have no outputs
            if type(phases) is list:
                geometric_phases.extend(phases)
                advance_column.extend(advances)
            else:
                geometric_phases.frombytes(phases.data.cast("B"))
                advance_column.frombytes(advances.data.cast("B"))
            crossing_column += [crossings] * n
            terminal_column += [eid] * n
            continue
        splitter = kinds[eid] is splitter_kind
        if splitter:
            crossings += 1
        elif kinds[eid] is shifter_kind:
            advances = _mapped(extended[eid], advances)
        for dst, links in reversed(groups.items()):
            if n * len(links) >= column_min:
                stack.append((dst, crossings, tuple(link.dst_port for link in links), *_column_children(
                    phases, advances, in_ports, links, reflected if splitter else None)))
            elif len(links) == 1:
                (link,) = links
                out = link.src_port
                stack.append((dst, crossings, (link.dst_port,),
                    [p + link.phase for p in phases],
                    advances if not splitter or in_ports == (out,) else
                    [reflected[a] if ip != out else a for a, ip in zip(advances, cycle(in_ports))]))
            else:  # several links into one element: each member's children, in port order
                stack.append((dst, crossings, tuple(link.dst_port for link in links),
                    [p + link.phase for p in phases for link in links],
                    [reflected[a] if splitter and ip != link.src_port else a
                     for a, ip in zip(advances, cycle(in_ports)) for link in links]))
    del phases, advances  # the last bundle's, already in the columns
    crossings, terminals = _frozen((crossing_column, terminal_column))
    advance_strings = tuple(strings)
    return PathTable(source, element_ids, geometric_phases, advance_column, advance_strings,
                     crossings, terminals, _advance_blocks(advance_column, advance_strings))


def _column_children(phases, advances, in_ports, links, reflected):
    """The phases and advances of one destination's children of a bundle as
    numpy columns, in the list route's order: member by member, each taking
    its in-port from ``in_ports`` in turn, one child per link in port order.
    A child's phase is its member's plus the link's, one IEEE add as in the
    list route; its advance is reflected, through the memo ``reflected`` (None
    off a splitter), where the link leaves by the port the member did not
    come in by."""
    import numpy as np

    phases = np.asarray(phases, dtype=np.float64)
    advances = np.asarray(advances, dtype=np.uintc)
    child_phases = (phases[:, None] + [link.phase for link in links]).ravel()
    turned = np.array([[ip != link.src_port for link in links] for ip in in_ports])
    if reflected is None or not turned.any():
        return child_phases, advances if len(links) == 1 else np.repeat(advances, len(links))
    members = advances.reshape(-1, len(in_ports), 1)
    return child_phases, np.where(turned, _mapped(reflected, members), members).ravel()


def _mapped(memo: _Extensions, advances):
    """Each advance index through ``memo``: a list one by one; a numpy array
    by one ``take`` from a lookup table that maps each distinct index once."""
    if isinstance(advances, list):
        return list(map(memo.__getitem__, advances))
    import numpy as np

    distinct = np.flatnonzero(np.bincount(advances.ravel()))
    lookup = np.zeros(distinct[-1] + 1, dtype=np.uintc)
    lookup[distinct] = list(map(memo.__getitem__, distinct.tolist()))
    return lookup.take(advances)


def _frozen(columns):
    """Each column as a tuple, the list emptied once it is copied."""
    for column in columns:
        yield tuple(column)
        column.clear()


def _advance_blocks(advances: array, strings: tuple[str, ...]) -> tuple:
    """PathTable.blocks of a table with these advance indices into
    ``strings``: empty unless the table is long enough and shares its
    strings enough to be evaluated a block at a time.  Each string used gets
    its rank in sorted order, the empty string, which advances nothing, the
    last; a block's rows are ordered by one stable argsort of their ranks,
    and one bincount gives each string's run."""
    n = len(advances)
    if n < COLUMN_MIN_ROWS:
        return ()
    import numpy as np

    indices = np.frombuffer(advances, dtype=np.uintc)
    used = np.flatnonzero(np.bincount(indices))
    if COLUMN_ROWS_PER_ADVANCE * len(used) > n:
        return ()
    ordered = sorted((i for i in used.tolist() if i), key=strings.__getitem__)  # strings[0] == ""
    ranks = np.full(len(strings), len(ordered))
    ranks[ordered] = np.arange(len(ordered))
    blocks = []
    for start in range(0, n, COLUMN_BLOCK):
        block_ranks = ranks.take(indices[start:start + COLUMN_BLOCK])
        counts = np.bincount(block_ranks, minlength=len(ordered) + 1)[:-1]
        order = np.argsort(block_ranks, kind="stable")[:counts.sum()].astype(np.uint16)
        present = np.flatnonzero(counts)
        bounds = [0, *np.cumsum(counts[present]).tolist()]
        steps = _advance_steps([strings[ordered[r]] for r in present.tolist()], bounds)
        blocks.append((array("H", order.tobytes()), tuple(steps)))
    return tuple(blocks)


def _advance_steps(strings: list[str], bounds: list[int]):
    """Depth by depth, (code, first, end) for each run of consecutive sorted
    ``strings`` that take ``code`` at that depth, the rows of ``strings[i]``
    lying at [bounds[i], bounds[i + 1]) of the block's order.  Sorting keeps
    the rows that share a prefix together, so each of its advances is one
    step over all of them."""
    for depth in range(max(map(len, strings), default=0)):
        for code, run in groupby(range(len(strings)), lambda i: strings[i][depth:depth + 1]):
            if code:
                run = list(run)
                yield code, bounds[run[0]], bounds[run[-1] + 1]


class _Extensions(dict):
    """Memo from the index of an advance string in ``strings`` to that of the
    string extended by ``code``, which is appended to ``strings`` when first
    asked for."""

    def __init__(self, code: str, strings: list[str]):
        self.code, self.strings = code, strings

    def __missing__(self, index: int) -> int:
        self[index] = extended = len(self.strings)
        self.strings.append(self.strings[index] + self.code)
        return extended
