"""Shadow-stream simulator for single-particle optical circuits.

Two engines compute the same detector statistics: a stream engine that
propagates one emission per run as a bundle of phase-clocked paths, and a
link-mode state-vector engine, reading the same circuits, used as the
reference.  A lattice
propagator handles the continuum side, and the experiments module wires
up the canonical interferometer benches.

The names below are what a script needs to reproduce a command-line
result; everything else is imported from its module.
"""

from __future__ import annotations

from .angles import parse_angle
from .circuit import CircuitError, parse_circuit
from .experiments import (
    chsh,
    run_bghz,
    run_circuit,
    run_ifm,
    run_mach_zehnder,
    run_wheeler,
    sample,
)
from .outcomes import ENGINE_HILBERT, ENGINE_STREAMS
from .pathintegral import (
    FREE,
    HarmonicPotential,
    LatticeWavefunction,
    PropagationUnstableError,
    TabulatedPotential,
    gaussian_packet,
    propagate,
    propagate_snapshots,
    uniform_grid,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitError",
    "ENGINE_HILBERT",
    "ENGINE_STREAMS",
    "FREE",
    "HarmonicPotential",
    "LatticeWavefunction",
    "PropagationUnstableError",
    "TabulatedPotential",
    "chsh",
    "gaussian_packet",
    "parse_angle",
    "parse_circuit",
    "propagate",
    "propagate_snapshots",
    "run_bghz",
    "run_circuit",
    "run_ifm",
    "run_mach_zehnder",
    "run_wheeler",
    "sample",
    "uniform_grid",
    "__version__",
]
