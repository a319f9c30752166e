"""Shadow-stream simulator for single-particle optical circuits.

Two engines compute the same detector statistics: a stream engine that
propagates one emission per run as a bundle of phase-clocked paths, and a
link-mode state-vector engine, reading the same circuits, used as the
reference.  A lattice propagator handles the continuum side, and the
experiments module wires up the canonical interferometer benches.

The names below are what a script needs to reproduce a command-line
result; everything else is imported from its module.  A canned bench runs
through its ``*_points`` runner, one structure evaluated at each point's
settings: ``mach_zehnder_points([(alpha, seed)])[0]`` is one point.  A
lattice run of ``steps`` steps is ``propagate_snapshots(wf, eps, [steps * eps])``.
"""

from __future__ import annotations

from .angles import parse_angle
from .circuit import CircuitError, parse_circuit
from .experiments import (
    bghz_points,
    chsh_points,
    mach_zehnder_points,
    run_circuit,
    run_ifm,
    sample,
    wheeler_points,
)
from .outcomes import ENGINE_HILBERT, ENGINE_STREAMS
from .pathintegral import (
    FREE,
    HarmonicPotential,
    LatticeWavefunction,
    PropagationUnstableError,
    TabulatedPotential,
    gaussian_packet,
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
    "bghz_points",
    "chsh_points",
    "gaussian_packet",
    "mach_zehnder_points",
    "parse_angle",
    "parse_circuit",
    "propagate_snapshots",
    "run_circuit",
    "run_ifm",
    "sample",
    "uniform_grid",
    "wheeler_points",
    "__version__",
]
