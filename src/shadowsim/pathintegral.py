"""Lattice sum-over-paths propagator for a particle on a 1D grid.

One time step of size eps advances the wavefunction by summing over all
grid predecessors a:

    psi'(x) = A * sum_a exp(i*S(x, a)/hbar) * psi(a) * dx
    S(x, a) = (m/2) * ((x - a)/eps)**2 * eps - (V(x) + V(a))/2 * eps
    A       = sqrt(m / (2*pi*i*hbar*eps))

with the endpoint (symmetric Trotter) potential rule and the free-kernel
normalisation A, followed by an explicit renormalisation (the lattice
kernel is unitary only up to quadrature error; the per-step drift is
recorded and a drift beyond NORM_DRIFT_LIMIT aborts the run).

Stability: the sampled kernel exp(i*m*(x-a)^2 / (2*hbar*eps)) aliases
once its phase advances more than pi between neighbouring grid points,
which spawns displaced full-amplitude copies of the packet ("ghosts") at
multiples of 2*pi*hbar*eps/(m*dx) from the true one.  Runs are clean when
that shift exceeds the grid span, i.e.

    eps >= m * dx * span / (2*pi*hbar)

so for a fixed grid the step must be coarse enough, not fine enough.

Every step is applied by FFT in O(N log N): the endpoint rule makes the
kernel diag . Toeplitz . diag for any potential, where the Toeplitz part is
the free kernel, which depends on x - a alone and is one circulant
convolution on a 2N embedding; nothing of size N^2 is built.  The rule is
second order in eps (Trotter, Proc. AMS 10, 545 (1959); Feit, Fleck &
Steiger, J. Comput. Phys. 47, 412 (1982)).  Budgets fail fast instead of
exhausting memory or time: ``uniform_grid`` refuses grids whose arrays would
exceed FFT_MAX_BYTES, ``propagate_snapshots`` (the one way to propagate)
snapshots whose states would, and no run takes more than MAX_STEPS steps.

Boundaries are hard walls: no amplitude beyond the grid, so keep packets
several widths away from the edges for the duration of a run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
# numpy 2 imports numpy.fft on first attribute access; import it here so that
# its cost falls in start-up, not in the first propagation.
import numpy.fft

__all__ = [
    "LatticeWavefunction",
    "FreePotential",
    "HarmonicPotential",
    "TabulatedPotential",
    "PropagationUnstableError",
    "uniform_grid",
    "gaussian_packet",
    "propagate_snapshots",
    "expectation_x",
    "mean_velocity",
    "crank_nicolson_propagate",
    "aliasing_ghost_shift",
    "NORM_DRIFT_LIMIT",
    "FFT_MAX_BYTES",
    "MAX_STEPS",
]

NORM_DRIFT_LIMIT = 1e-3
# Largest working set, counted at _FFT_BYTES_PER_POINT bytes per grid point,
# so the budget admits N <= 6,391,320.  A run peaks below that figure (the
# grid, the state, the 2N-point spectrum and transforms; 136 free and 152
# with a potential, measured with tracemalloc at N = 2^16 and 2^18).
FFT_MAX_BYTES = 2**30
_FFT_BYTES_PER_POINT = 168
# Most steps one run may take.
MAX_STEPS = 2**20
_NORM_TOL = 1e-9
_GRID_TOL = 1e-9


@dataclass(frozen=True)
class LatticeWavefunction:
    """Complex wavefunction sampled on a uniform grid, unit L2 norm."""

    x: np.ndarray
    values: np.ndarray
    t: float = 0.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        if x.ndim != 1 or x.shape != values.shape or len(x) < 8:
            raise ValueError("grid and values must be 1D arrays of equal length >= 8")
        spacings = np.diff(x)
        if spacings.min() <= 0 or np.ptp(spacings) > _GRID_TOL * spacings.mean():
            raise ValueError("grid must be uniform and increasing")
        if self.mass <= 0 or self.hbar <= 0:
            raise ValueError("mass and hbar must be positive")
        if not abs(self.norm() - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"wavefunction norm {self.norm()!r} is not 1")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def n(self) -> int:
        return len(self.x)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * (self.x[1] - self.x[0])))

    def probability_density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


class FreePotential:
    def values(self, x: np.ndarray, mass: float) -> np.ndarray:
        return np.zeros_like(x)


@dataclass(frozen=True)
class HarmonicPotential:
    """V(x) = m * omega^2 * x^2 / 2."""

    omega: float

    def values(self, x: np.ndarray, mass: float) -> np.ndarray:
        # omega * omega turns to inf past the float range; omega**2 would raise
        return 0.5 * mass * self.omega * self.omega * x**2


@dataclass(frozen=True)
class TabulatedPotential:
    """Potential interpolated linearly from (x, V) samples."""

    x_table: np.ndarray
    v_table: np.ndarray

    def values(self, x: np.ndarray, mass: float) -> np.ndarray:
        return np.interp(x, self.x_table, self.v_table)


FREE = FreePotential()


class PropagationUnstableError(RuntimeError):
    """One propagation step drifted the norm beyond NORM_DRIFT_LIMIT."""

    def __init__(self, message: str, *, drift: float, eps: float, dx: float,
                 ghost_shift: float, span: float):
        super().__init__(message)
        self.drift = drift
        self.eps = eps
        self.dx = dx
        self.ghost_shift = ghost_shift
        self.span = span


def uniform_grid(n: int, xmin: float, xmax: float) -> np.ndarray:
    """``n`` evenly spaced points; refuses, before allocating, a grid whose
    FFT-path arrays would exceed FFT_MAX_BYTES or whose squared span (the
    scale of kernel phases and position variances) is past the float range."""
    if n < 8 or xmax <= xmin:
        raise ValueError("need n >= 8 and xmax > xmin")
    if not math.isfinite((xmax - xmin) * (xmax - xmin)):
        raise ValueError(f"grid span {xmax - xmin!r} squared is past the float range")
    needed = _FFT_BYTES_PER_POINT * n
    if needed > FFT_MAX_BYTES:
        raise ValueError(
            f"N = {n} grid points need about {needed} bytes on the FFT path, over "
            f"the {FFT_MAX_BYTES}-byte budget; use fewer grid points"
        )
    return np.linspace(xmin, xmax, n)


def gaussian_packet(
    x: np.ndarray,
    x0: float,
    sigma0: float,
    k0: float = 0.0,
    *,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> LatticeWavefunction:
    """Normalized Gaussian exp(-(x-x0)^2/(4 sigma0^2) + i k0 x).

    Enforces the hard-wall margin: the centre must sit at least six widths
    from both grid edges, which keeps the clipped density below 1e-8.
    Refuses a packet whose samples underflow to zero or leave the float range.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if x0 - 6 * sigma0 < x[0] or x0 + 6 * sigma0 > x[-1]:
        raise ValueError("packet must start at least 6 sigma from the hard walls")
    with np.errstate(all="ignore"):
        values = np.exp(-((x - x0) ** 2) / (4 * sigma0**2) + 1j * k0 * x)
        norm = np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0]))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"the packet's samples (sigma0 = {sigma0!r}, k0 = {k0!r}) "
                         "underflow to zero or leave the float range")
    values = values / norm
    return LatticeWavefunction(x=x, values=values, t=0.0, mass=mass, hbar=hbar)


def aliasing_ghost_shift(eps: float, dx: float, mass: float, hbar: float) -> float:
    """Displacement of the first aliasing ghost copy after one step."""
    return 2.0 * math.pi * hbar * eps / mass / dx  # mass * dx could underflow to 0


def _prefactor(wf: LatticeWavefunction, eps: float) -> complex:
    """Free-kernel normalisation A times the quadrature weight dx."""
    amplitude = math.sqrt(wf.mass / (2.0 * math.pi * wf.hbar * eps))
    return amplitude * wf.dx * np.exp(-1j * math.pi / 4.0)


def _kernel_apply(wf: LatticeWavefunction, eps: float, potential):
    """The one-step kernel as a map from values to values.

    The endpoint rule puts half of the step's potential phase on each end,
    so the kernel is diag . Toeplitz . diag: the Toeplitz part is the free
    kernel, applied as a circulant convolution on a 2N embedding, and a
    free potential has no diagonal.  Raises ValueError, before any step,
    when the kernel leaves the float range, or when its prefactor is so
    small that the squares a step's norm sums would underflow.
    """
    m, hbar, n = wf.mass, wf.hbar, wf.n
    prefactor = _prefactor(wf, eps)
    if abs(prefactor) < math.sqrt(sys.float_info.min):
        raise ValueError(
            f"the one-step kernel at eps = {eps!r} underflows: its prefactor "
            f"{abs(prefactor):.3g} squares to below the float range; use a larger "
            "mass or a smaller hbar or eps"
        )
    d = wf.x - wf.x[0]
    curvature = 0.5 * m / eps
    with np.errstate(all="ignore"):
        column = prefactor * np.exp(1j * curvature * d**2 / hbar)
        spectrum = np.fft.fft(np.concatenate([column, [0.0], column[:0:-1]]))
        diagonal = None if isinstance(potential, FreePotential) else np.exp(
            -1j * eps * potential.values(wf.x, m) / (2 * hbar)
        )
    if not (np.isfinite(spectrum).all() and (diagonal is None or np.isfinite(diagonal).all())):
        raise ValueError(
            f"the one-step kernel at eps = {eps!r} is past the float range; use "
            "a smaller potential, mass or grid span, or a larger hbar"
        )

    def apply(values: np.ndarray) -> np.ndarray:
        if diagonal is not None:
            values = diagonal * values
        # two statements, so that the diagonal product is freed before the
        # inverse transform allocates
        values = spectrum * np.fft.fft(values, 2 * n)
        values = np.fft.ifft(values)[:n]
        return values if diagonal is None else diagonal * values

    return apply


def _unstable(wf: LatticeWavefunction, eps: float, drift: float) -> PropagationUnstableError:
    """The refusal of a step whose norm drifted by ``drift``, naming the likely cause."""
    span = float(wf.x[-1] - wf.x[0])
    ghost = aliasing_ghost_shift(eps, wf.dx, wf.mass, wf.hbar)
    bound = wf.mass * wf.dx * span / (2 * math.pi * wf.hbar)
    cause = (f"kernel aliasing puts ghost copies every {ghost:.3g} units on a grid spanning "
             f"{span:.3g} (stable when the shift exceeds the span, i.e. eps >= {bound:.3g}); "
             "increase eps or shrink the grid" if ghost < span else f"eps = {eps:.3g} meets "
             f"the aliasing bound eps >= {bound:.3g}, but the kernel spreads the packet past "
             "the grid in one step; use a larger mass, a smaller eps or a wider grid")
    return PropagationUnstableError(
        f"one-step norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}; {cause}",
        drift=drift, eps=eps, dx=wf.dx, ghost_shift=ghost, span=span,
    )


def propagate_snapshots(
    wf: LatticeWavefunction,
    eps: float,
    times: list[float],
    potential=FREE,
) -> tuple[list[tuple[float, LatticeWavefunction]], float]:
    """States at the requested times, each a whole number of steps of size
    eps after wf.t, in ascending order, and the worst one-step norm drift.

    One kernel serves every step.  Refuses, before building it (none is
    built when no step is taken), a run of more than MAX_STEPS steps and
    snapshots whose states would take the run past FFT_MAX_BYTES.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    steps_at = []
    for t in sorted(times):
        k = (t - wf.t) / eps
        if not math.isfinite(k):
            raise ValueError(f"snapshot time {t} is not a finite number of steps")
        k = round(k)
        off_grid = abs(wf.t + k * eps - t) > 1e-9 * max(1.0, abs(t))
        if k < 0 or (off_grid and t < wf.t):
            raise ValueError(f"snapshot time {t} is before the start at t = {wf.t:g}")
        if off_grid:
            raise ValueError(f"snapshot time {t} is not a whole number of steps")
        steps_at.append((int(k), t))
    counts = sorted({k for k, _ in steps_at})
    last = counts[-1] if counts else 0
    if last > MAX_STEPS:
        from decimal import Decimal  # formats a count past the float range too
        raise ValueError(
            f"{Decimal(last):.3g} steps exceed the {MAX_STEPS}-step budget; "
            "use a larger eps or an earlier time"
        )
    # Each snapshot holds a state of 16 bytes a point, and the CLI a density of 8.
    needed = (len(counts) * 24 + _FFT_BYTES_PER_POINT) * wf.n
    if needed > FFT_MAX_BYTES:
        raise ValueError(
            f"{len(counts)} snapshots of N = {wf.n} grid points need about {needed} bytes, "
            f"over the {FFT_MAX_BYTES}-byte budget; ask for fewer times or grid points"
        )
    apply = _kernel_apply(wf, eps, potential) if last else None
    states = {}
    values, t, dx = wf.values, wf.t, wf.dx
    max_drift, done = 0.0, 0
    for k in counts:
        for _ in range(k - done):
            values = apply(values)
            norm = float(np.sqrt(np.sum(np.abs(values) ** 2) * dx))
            drift = abs(norm - 1.0)
            if not drift <= NORM_DRIFT_LIMIT:  # a NaN drift fails too
                raise _unstable(wf, eps, drift)
            max_drift = max(max_drift, drift)
            values = values / norm
            t += eps
        done = k
        states[k] = replace(wf, values=values, t=t) if k else wf
    return [(time, states[k]) for k, time in steps_at], max_drift


# -- observables -------------------------------------------------------------

def expectation_x(wf: LatticeWavefunction, density: np.ndarray | None = None) -> float:
    """Riemann-sum position expectation, over ``density`` if the caller
    already holds wf.probability_density()."""
    if density is None:
        density = wf.probability_density()
    return float(np.sum(wf.x * density) * wf.dx)


def mean_velocity(wf: LatticeWavefunction) -> float:
    """Probability-current mean velocity (hbar/m) Im sum psi* dpsi/dx dx.

    The spatial derivative is the central difference on interior points;
    with packets far from the walls the dropped edge terms are nil.  Real
    wavefunctions give exactly zero.  A non-finite result is refused.
    """
    dpsi = (wf.values[2:] - wf.values[:-2]) / (2.0 * wf.dx)
    current = np.imag(np.conj(wf.values[1:-1]) * dpsi)
    # Python floats: hbar / mass may overflow to inf, which numpy would warn of
    velocity = wf.hbar / wf.mass * float(np.sum(current)) * wf.dx
    if not math.isfinite(velocity):
        raise ValueError(f"the mean velocity is {velocity!r}: its factor hbar/mass = "
                         f"{wf.hbar / wf.mass:.3g} is too large; use a larger mass or smaller hbar")
    return velocity


# -- independent finite-difference oracle ------------------------------------

def _dst1(values: np.ndarray) -> np.ndarray:
    """Unnormalised type-I discrete sine transform, sum_j v_j sin(pi j k/(N+1)).

    Computed as the FFT of the odd extension [0, v, 0, -reversed v] of
    length 2(N+1), whose transform is -2i times the sine sum.
    """
    n = len(values)
    zero = np.zeros(1, dtype=values.dtype)
    odd = np.concatenate([zero, values, zero, -values[::-1]])
    return 0.5j * np.fft.fft(odd)[1 : n + 1]


def crank_nicolson_propagate(
    wf: LatticeWavefunction,
    dt: float,
    steps: int,
) -> LatticeWavefunction:
    """Free Crank-Nicolson evolution with hard walls, as the cross-method check.

    The 3-point hard-wall Hamiltonian H is diagonal in the DST-I basis
    sin(pi j k/(N+1)), with eigenvalues
    lambda_k = hbar^2/(m dx^2) * (1 - cos(pi k/(N+1))).  One CN step
    (1 + i dt H/2hbar)^-1 (1 - i dt H/2hbar) multiplies mode k by
    exp(-2i atan(dt lambda_k/2hbar)), so ``steps`` steps are one DST-I, one
    phase per mode and a second DST-I (the transform is its own inverse up
    to 2/(N+1)).  This is the same CN map as stepping, not a different
    discretisation, and it shares no code with the kernel-sum path.
    """
    if dt <= 0 or steps < 0:
        raise ValueError("need dt > 0 and steps >= 0")
    dx, n = wf.dx, wf.n
    k = np.arange(1, n + 1)
    eigenvalues = wf.hbar**2 / (wf.mass * dx**2) * (1.0 - np.cos(np.pi * k / (n + 1)))
    phases = np.exp(-2j * steps * np.arctan(dt * eigenvalues / (2.0 * wf.hbar)))
    values = _dst1(phases * _dst1(wf.values)) * (2.0 / (n + 1))
    norm = float(np.sqrt(np.sum(np.abs(values) ** 2) * dx))
    return replace(wf, values=values / norm, t=wf.t + steps * dt)
