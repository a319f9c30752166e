"""Shadow-stream simulator for single-particle optical circuits.

Two engines compute the same detector statistics: a stream engine that
propagates one emission per run as a bundle of phase-clocked paths, and a
link-mode state-vector engine, reading the same circuits, used as the
reference.  A lattice
propagator handles the continuum side, and the experiments module wires
up the canonical interferometer benches.
"""

from __future__ import annotations

from .angles import canonical_angle, parse_angle
from .circuit import (
    Circuit,
    CircuitError,
    CircuitParseError,
    CircuitValidationError,
    Element,
    ElementType,
    Link,
    Path,
    enumerate_paths,
    parse_circuit,
    render_circuit,
)
from .experiments import (
    ChshReport,
    SampleResult,
    bghz_left_circuit,
    bghz_pair,
    bghz_right_circuit,
    chsh,
    ifm_circuit,
    mach_zehnder_circuit,
    run_bghz,
    run_circuit,
    run_ifm,
    run_mach_zehnder,
    run_wheeler,
    sample,
)
from .hilbert import CircuitEvolution, evolve_circuit, evolve_pair
from .outcomes import (
    ENGINE_HILBERT,
    ENGINE_STREAMS,
    OutcomeDistribution,
)
from .pathintegral import (
    FREE,
    HarmonicPotential,
    LatticeWavefunction,
    PropagationRun,
    PropagationUnstableError,
    TabulatedPotential,
    crank_nicolson_propagate,
    gaussian_packet,
    kernel_matrix,
    propagate,
    propagate_snapshots,
    step,
    uniform_grid,
)
from .rng import RNG_NAME, make_rng, substream
from .streams import (
    CongruenceReport,
    PathClock,
    ShadowStream,
    StreamPair,
    build_stream,
    build_stream_pair,
    congruence_check,
    joint_terminal_amplitudes,
    path_amplitude,
    stream_terminal_amplitudes,
    terminal_probabilities,
    unitarity_defect,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitError",
    "CircuitParseError",
    "CircuitValidationError",
    "ChshReport",
    "CircuitEvolution",
    "CongruenceReport",
    "Element",
    "ElementType",
    "ENGINE_HILBERT",
    "ENGINE_STREAMS",
    "FREE",
    "HarmonicPotential",
    "LatticeWavefunction",
    "Link",
    "OutcomeDistribution",
    "Path",
    "PathClock",
    "PropagationRun",
    "PropagationUnstableError",
    "RNG_NAME",
    "SampleResult",
    "ShadowStream",
    "StreamPair",
    "TabulatedPotential",
    "bghz_left_circuit",
    "bghz_pair",
    "bghz_right_circuit",
    "build_stream",
    "build_stream_pair",
    "canonical_angle",
    "chsh",
    "congruence_check",
    "crank_nicolson_propagate",
    "enumerate_paths",
    "evolve_circuit",
    "evolve_pair",
    "gaussian_packet",
    "ifm_circuit",
    "joint_terminal_amplitudes",
    "kernel_matrix",
    "mach_zehnder_circuit",
    "make_rng",
    "parse_angle",
    "parse_circuit",
    "path_amplitude",
    "propagate",
    "propagate_snapshots",
    "render_circuit",
    "run_bghz",
    "run_circuit",
    "run_ifm",
    "run_mach_zehnder",
    "run_wheeler",
    "sample",
    "step",
    "stream_terminal_amplitudes",
    "substream",
    "terminal_probabilities",
    "uniform_grid",
    "unitarity_defect",
    "__version__",
]
