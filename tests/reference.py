"""Reference code the tests hold the program against.

Nothing here runs in a command.  ``enumerate_paths`` walks a circuit's
routes afresh into Path objects, and ``path_amplitude`` evaluates one of
them step by step on a PathClock; the stream engine's path table must
match both bit for bit.  ``render_circuit`` writes a circuit back to the
text format and ``circuits_equal`` compares two circuits, for round trips;
``reshifted`` builds a circuit anew with other phase-shifter values.
``row_amplitudes`` reads the stream engine's amplitude of each table row.
``hilbert_amplitudes`` is one hilbert emission at the circuit's own shifts
and ``probabilities`` squares amplitudes into Born probabilities.
``exact_amplitudes`` evolves a circuit whose phases are multiples of pi/4
with no rounding at all, and ``exact_error`` measures an engine against it.
``bghz_streams``, ``stream_arms`` and ``hilbert_arms`` build the per-arm
inputs that experiments.pair_amplitudes pairs, one emission of each
Circuit.arm view, as bghz_points builds them, and ``pair_clock`` is the
clock that bghz_points draws from a seed.
For the lattice propagator, ``dense_kernel`` is the one-step kernel as a
matrix and ``split_operator_values`` an independent second-order oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from shadowsim import hilbert
from shadowsim.angles import canonical_angle
from shadowsim.circuit import REFLECTION_TURN, Circuit, Element, ElementType, compile_paths
from shadowsim.experiments import bghz_left_circuit, bghz_right_circuit
from shadowsim.rng import make_rng
from shadowsim.streams import INV_SQRT2, _table_amplitudes, terminal_amplitudes

# (element id, in-port, out-port) of one element on a route.
Step = tuple[str, int | None, int | None]


@dataclass(frozen=True)
class Path:
    """One complete route from a source to a terminal.

    ``steps`` holds (element-id, in-port, out-port) triples for every element
    traversed, the source entry carrying in-port None and the terminal exit
    carrying out-port None.  ``geometric_phase`` is the sum of link phases
    along the route, added one by one from the source.
    """

    source: str
    steps: tuple[Step, ...]
    terminal: str
    geometric_phase: float

    @property
    def element_ids(self) -> tuple[str, ...]:
        return tuple(step[0] for step in self.steps)


def enumerate_paths(circuit: Circuit) -> list[Path]:
    """Every route from the sole source, walked depth first with port 0
    first, then sorted by element-id sequence with ties in walk order: the
    row order of ``compile_paths``, which walks its rows in bundles and
    needs no sort."""
    source = circuit.sole_source()
    outs: dict[str, list] = {eid: [] for eid in circuit.elements}
    for link in sorted(circuit.links, key=lambda link: link.src_port):
        outs[link.src].append(link)
    paths = []

    def walk(eid: str, in_port: int | None, steps: tuple, phase: float) -> None:
        if not outs[eid]:
            paths.append(Path(source, steps + ((eid, in_port, None),), eid, phase))
        for link in outs[eid]:
            step = (eid, in_port, link.src_port)
            walk(link.dst, link.dst_port, steps + (step,), phase + link.phase)

    walk(source, None, (), 0.0)
    return sorted(paths, key=lambda path: path.element_ids)


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


def render_circuit(circuit: Circuit) -> str:
    """Render back to the text format; parse(render(c)) equals c exactly."""
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
        if link.phase != 0.0 or math.copysign(1.0, link.phase) < 0:
            stmt += f" phase={link.phase!r}"
        lines.append(stmt)
    return "\n".join(lines) + "\n"


def circuits_equal(a: Circuit, b: Circuit) -> bool:
    """Same elements in the same order, and the same links, with link phases
    and phase-shifter shifts compared bit for bit so that -0.0 and 0.0 differ."""
    def elements(circuit):
        return [(eid, el, float.hex(el.shift)) for eid, el in circuit.elements.items()]

    def links(circuit):
        return [(link, float.hex(link.phase)) for link in circuit.links]

    return elements(a) == elements(b) and links(a) == links(b)


def reshifted(circuit: Circuit, shifts: dict[str, float]) -> Circuit:
    """A new Circuit with the same links whose phase shifters named in
    ``shifts`` are built anew at those values."""
    shifters = {eid: Element(ElementType.PHASESHIFTER, shift=s) for eid, s in shifts.items()}
    return Circuit({**circuit.elements, **shifters}, circuit.links)


def row_amplitudes(circuit: Circuit, clock: float) -> list[complex]:
    """The stream engine's amplitude of each row of the circuit's path table,
    in table order, under ``clock`` at the circuit's own shifts."""
    table = compile_paths(circuit)
    (amplitudes,) = _table_amplitudes(circuit, table, [({}, clock)])
    return list(amplitudes)


# -- exact amplitudes ----------------------------------------------------------

# An amplitude z / (sqrt2**k * sqrt(fanout)) with z = a0 + a1 w + a2 w^2 + a3 w^3
# in Z[w], w = exp(i pi/4), held as ((a0, a1, a2, a3), k).
_ZERO = ((0, 0, 0, 0), 0)


def _eighths(angle: float) -> int:
    """``angle`` as a count of eighth turns mod 8; refused unless it lies
    within 1e-9 of a multiple of pi/4."""
    turns = round(angle / (math.pi / 4))
    if abs(angle - turns * math.pi / 4) > 1e-9:
        raise ValueError(f"{angle!r} is not a multiple of pi/4")
    return turns % 8


def _turned(z, eighths: int):
    """z * w**eighths: each factor w moves every coefficient up one power,
    w^4 = -1 coming round to the constant."""
    for _ in range(eighths):
        a0, a1, a2, a3 = z
        z = (-a3, a0, a1, a2)
    return z


def _sum(x, y):
    """x + y over the larger of their powers of sqrt2, sqrt2 = w - w^3."""
    (zx, kx), (zy, ky) = sorted((x, y), key=lambda amp: amp[1])
    for _ in range(ky - kx):
        zx = tuple(a - b for a, b in zip(_turned(zx, 1), _turned(zx, 3)))
    return tuple(a + b for a, b in zip(zx, zy)), ky


def exact_amplitudes(circuit: Circuit) -> dict[str, tuple]:
    """Amplitude per terminal key of one emission at the circuit's own shifts
    and clock 0, evolved exactly link by link in topological order as hilbert
    does: each link's amplitude z / sqrt2**k with z in Z[w] in Python ints.
    Every link phase and shift must be a multiple of pi/4.  The values are
    read with exact_error."""
    source = circuit.sole_source()
    elements = circuit.elements
    on_link: dict = {}

    def arrived(eid, port):
        return on_link.get(circuit.in_link(eid, port), _ZERO)

    def emit(eid, port, amp):
        link = circuit.out_link(eid, port)
        on_link[link] = _turned(amp[0], _eighths(link.phase)), amp[1]

    for eid in circuit.topo_order:
        kind = elements[eid].kind
        if eid == source:
            for port in range(circuit.source_fanout(eid)):
                emit(eid, port, ((1, 0, 0, 0), 0))
        elif kind is ElementType.BEAMSPLITTER:
            (z0, k0), (z1, k1) = arrived(eid, 0), arrived(eid, 1)
            for port, (zt, kt), (zr, kr) in ((0, (z0, k0), (z1, k1)), (1, (z1, k1), (z0, k0))):
                z, k = _sum((zt, kt), (_turned(zr, 2), kr))  # reflection: factor i
                emit(eid, port, (z, k + 1))
        elif kind in (ElementType.MIRROR, ElementType.PHASESHIFTER):
            z, k = arrived(eid, 0)
            emit(eid, 0, (_turned(z, _eighths(elements[eid].shift)), k))
    fanout = circuit.source_fanout(source)
    return {circuit.terminal_key(t): (*arrived(t, 0), fanout) for t in circuit.terminals}


def exact_error(exact: tuple, amp: complex) -> float:
    """|amp - exact| for an exact_amplitudes value, computed at 60 digits."""
    (a0, a1, a2, a3), k, fanout = exact
    with localcontext() as context:
        context.prec = 60
        root2 = Decimal(2).sqrt()
        scale = root2**k * Decimal(fanout).sqrt()
        real = (a0 + (a1 - a3) / root2) / scale
        imag = (a2 + (a1 + a3) / root2) / scale
        return float(((Decimal(amp.real) - real) ** 2 + (Decimal(amp.imag) - imag) ** 2).sqrt())


# -- correlated pairs ----------------------------------------------------------


def pair_clock(seed: int) -> float:
    """The one clock that bghz_points draws from ``seed`` for both daughters."""
    return float(make_rng(seed).uniform(0.0, 2.0 * math.pi))


def bghz_streams(alpha, beta, *, seed, arm_phase=0.0):
    """Both bghz daughters' terminal sums per source arm, under the one clock
    that bghz_points draws from ``seed``; ``arm_phase`` desymmetrizes the right
    side's plain arm."""
    clock = pair_clock(seed)
    return (stream_arms(bghz_left_circuit(alpha), clock),
            stream_arms(bghz_right_circuit(beta, arm_phase=arm_phase), clock))


def stream_arms(circuit: Circuit, clock: float) -> list[dict]:
    """Streams terminal sums per source arm under ``clock``, arm 0 first."""
    fanout = circuit.source_fanout(circuit.sole_source())
    return [next(terminal_amplitudes(circuit.arm(k), [({}, clock)])) for k in range(fanout)]


def hilbert_amplitudes(circuit: Circuit) -> dict:
    """Hilbert terminal amplitudes of one emission at the circuit's own shifts."""
    return next(hilbert.terminal_amplitudes(circuit, [({}, None)]))


def probabilities(amplitudes: dict) -> dict:
    return {key: abs(amp) ** 2 for key, amp in amplitudes.items()}


def hilbert_arms(circuit: Circuit) -> list[dict]:
    """Hilbert terminal amplitudes per source arm, arm 0 first."""
    fanout = circuit.source_fanout(circuit.sole_source())
    return [hilbert_amplitudes(circuit.arm(k)) for k in range(fanout)]


# -- lattice propagator --------------------------------------------------------


def dense_kernel(wf, eps, potential):
    """The endpoint-rule one-step kernel as a dense N x N matrix, built in one
    shot from the formula

        K[x, a] = A dx exp(i/hbar * ((m/2)(x - a)^2/eps - eps (V(x) + V(a))/2)),
        A = sqrt(m / (2 pi i hbar eps)).
    """
    x, m, hbar = wf.x, wf.mass, wf.hbar
    phase = np.subtract.outer(x, x)
    phase **= 2
    phase *= 0.5 * m / eps
    v = potential.values(x, m)
    phase -= 0.5 * eps * np.add.outer(v, v)
    kernel = (1j / hbar) * phase
    del phase
    np.exp(kernel, out=kernel)
    kernel *= cmath.sqrt(m / (2j * math.pi * hbar * eps)) * wf.dx
    return kernel


def split_operator_values(wf, potential, t, dt):
    """Strang split-operator evolution of ``wf`` to time ``t`` in steps of
    ``dt``: half a potential step, a kinetic step that is exact in Fourier
    space, half a potential step (Feit, Fleck & Steiger, J. Comput. Phys. 47,
    412 (1982)).  The grid is embedded in a periodic one twice as long whose
    added half starts empty, so a packet far from the walls never meets the
    wrap.  Returns the values on the original grid."""
    n, dx, m, hbar = wf.n, wf.dx, wf.mass, wf.hbar
    x = wf.x[0] + dx * np.arange(2 * n)
    k = 2.0 * math.pi * np.fft.fftfreq(2 * n, dx)
    kinetic = np.exp(-1j * hbar * k**2 * dt / (2.0 * m))
    half = np.exp(-0.5j * dt * potential.values(x, m) / hbar)
    values = np.concatenate([wf.values, np.zeros(n)])
    for _ in range(round(t / dt)):
        values = half * np.fft.ifft(kinetic * np.fft.fft(half * values))
    return values[:n]
