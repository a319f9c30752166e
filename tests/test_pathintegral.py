"""Lattice propagator: spreading law, oracle agreement, stability, observables."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from shadowsim import pathintegral as pi
from reference import dense_kernel, split_operator_values


def _variance(wf):
    density = wf.probability_density()
    mean = float(np.sum(wf.x * density) * wf.dx)
    return float(np.sum((wf.x - mean) ** 2 * density) * wf.dx)


def _l2_up_to_phase(got, want, dx):
    overlap = np.sum(np.conj(want) * got) * dx
    aligned = got * np.exp(-1j * np.angle(overlap))
    return float(np.sqrt(np.sum(np.abs(aligned - want) ** 2) * dx))


def _coherent_state(x, omega, x0, t):
    width = math.sqrt(1.0 / (2.0 * omega))
    xc = x0 * math.cos(omega * t)
    pc = -x0 * omega * math.sin(omega * t)
    values = np.exp(-((x - xc) ** 2) / (4 * width**2) + 1j * pc * x)
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0]))


# -- construction and validation ----------------------------------------------


def test_grid_must_be_uniform():
    x = np.concatenate([np.linspace(0, 1, 6), [1.5, 3.0]])
    with pytest.raises(ValueError, match="uniform"):
        pi.LatticeWavefunction(x, np.full(8, 1.0 / math.sqrt(3.0)))


def test_wavefunction_must_be_normalized():
    x = pi.uniform_grid(16, -1.0, 1.0)
    with pytest.raises(ValueError, match="norm"):
        pi.LatticeWavefunction(x, np.ones(16, dtype=complex))


def test_nan_wavefunction_is_refused():
    x = pi.uniform_grid(16, -1.0, 1.0)
    with pytest.raises(ValueError, match="norm nan"):
        pi.LatticeWavefunction(x, np.full(16, complex(math.nan, 0.0)))


@pytest.mark.parametrize(("sigma0", "k0"), [(1e-300, 0.0), (1e-160, 0.0), (1.5, 1e307)])
def test_packet_whose_samples_vanish_or_overflow_is_refused(sigma0, k0):
    x = pi.uniform_grid(64, -30.0, 30.0)
    with pytest.raises(ValueError, match="underflow to zero or leave the float range"):
        pi.gaussian_packet(x, 0.0, sigma0, k0)


def test_grid_whose_squared_span_overflows_is_refused():
    with pytest.raises(ValueError, match="squared is past the float range"):
        pi.uniform_grid(64, -30.0, 1e300)


def test_packet_needs_wall_margin():
    x = pi.uniform_grid(64, -5.0, 5.0)
    with pytest.raises(ValueError, match="walls"):
        pi.gaussian_packet(x, 4.0, 1.0)


def test_packet_is_normalized_and_centred():
    x = pi.uniform_grid(512, -20.0, 20.0)
    wf = pi.gaussian_packet(x, 1.0, 1.4, 0.3)
    assert wf.norm() == pytest.approx(1.0, abs=1e-12)
    assert pi.expectation_x(wf) == pytest.approx(1.0, abs=1e-9)


# -- free propagation -----------------------------------------------------------


def test_free_width_law():
    """sigma(t)^2 = sigma0^2 (1 + (t / 2 sigma0^2)^2) in natural units."""
    sigma0 = 1.5
    x = pi.uniform_grid(1024, -30.0, 30.0)
    wf = pi.gaussian_packet(x, 0.0, sigma0)
    snaps, _ = pi.propagate_snapshots(wf, 0.5, [4 * 0.5, 10 * 0.5])
    for t, final in snaps:
        assert final.t == t
        want = sigma0**2 * (1.0 + (t / (2 * sigma0**2)) ** 2)
        assert _variance(final) == pytest.approx(want, rel=1e-3)


def test_free_step_drift_is_negligible_in_stable_regime():
    x = pi.uniform_grid(1024, -30.0, 30.0)
    [(_, final)], drift = pi.propagate_snapshots(pi.gaussian_packet(x, 0.0, 1.5), 0.5, [10 * 0.5])
    assert drift < 1e-12
    assert final.norm() == pytest.approx(1.0, abs=1e-12)


def test_moving_packet_translates_at_group_velocity():
    x = pi.uniform_grid(1024, -15.0, 15.0)
    wf = pi.gaussian_packet(x, -5.0, 1.5, 0.4)
    [(_, final)], _ = pi.propagate_snapshots(wf, 0.5, [8 * 0.5])
    assert pi.expectation_x(final) == pytest.approx(-5.0 + 0.4 * 4.0, abs=1e-6)
    assert pi.mean_velocity(final) == pytest.approx(0.4, abs=1e-4)


def test_parity_preserved_for_symmetric_packet():
    x = pi.uniform_grid(1024, -30.0, 30.0)
    [(_, final)], _ = pi.propagate_snapshots(pi.gaussian_packet(x, 0.0, 1.5), 0.5, [10 * 0.5])
    values = final.values
    assert np.max(np.abs(values - values[::-1])) < 1e-9


# -- independent oracle ------------------------------------------------------------


def test_matches_crank_nicolson_oracle():
    x = pi.uniform_grid(1024, -30.0, 30.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    [(_, lattice)], _ = pi.propagate_snapshots(wf, 0.5, [10 * 0.5])
    oracle = pi.crank_nicolson_propagate(wf, 0.005, 1000)
    assert _l2_up_to_phase(lattice.values, oracle.values, lattice.dx) < 1e-3


def _stepped_crank_nicolson(wf, dt, steps):
    """Reference: the free hard-wall CN map applied step by step, each step a
    banded tridiagonal solve of (1 + i dt H/2hbar) psi' = (1 - i dt H/2hbar) psi."""
    dx, m, hbar, n = wf.dx, wf.mass, wf.hbar, wf.n
    diag_h = hbar**2 / (m * dx**2)
    off_h = -hbar**2 / (2.0 * m * dx**2)
    factor = 1j * dt / (2.0 * hbar)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = factor * off_h
    ab[1, :] = 1.0 + factor * diag_h
    ab[2, :-1] = factor * off_h
    rhs_diag = 1.0 - factor * diag_h
    rhs_off = -factor * off_h
    values = wf.values.copy()
    for _ in range(steps):
        rhs = rhs_diag * values
        rhs[:-1] += rhs_off * values[1:]
        rhs[1:] += rhs_off * values[:-1]
        values = scipy.linalg.solve_banded((1, 1), ab, rhs)
    norm = float(np.sqrt(np.sum(np.abs(values) ** 2) * dx))
    return replace(wf, values=values / norm, t=wf.t + steps * dt)


@pytest.mark.parametrize(
    ("n", "dt", "steps", "mass", "hbar"),
    [
        (1024, 0.005, 1000, 1.0, 1.0),  # the crank-nicolson check's settings
        (8, 0.005, 1000, 1.0, 1.0),
        (63, 0.005, 1000, 1.0, 1.0),
        (63, 0.3, 17, 0.6, 1.3),
        (63, 0.3, 0, 1.0, 1.0),
    ],
)
def test_spectral_crank_nicolson_matches_stepped_solves(n, dt, steps, mass, hbar):
    rng = np.random.default_rng(n + steps)
    x = pi.uniform_grid(n, -30.0, 30.0)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    wf = pi.LatticeWavefunction(
        x, values / np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0])), mass=mass, hbar=hbar
    )
    got = pi.crank_nicolson_propagate(wf, dt, steps)
    want = _stepped_crank_nicolson(wf, dt, steps)
    assert got.t == want.t
    assert np.max(np.abs(got.values - want.values)) <= 1e-11


def test_crank_nicolson_reproduces_width_law_by_itself():
    """The oracle must stand on its own feet before it can referee."""
    x = pi.uniform_grid(1024, -30.0, 30.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    evolved = pi.crank_nicolson_propagate(wf, 0.005, 1000)
    want = 1.5**2 * (1.0 + (5.0 / (2 * 1.5**2)) ** 2)
    assert _variance(evolved) == pytest.approx(want, rel=1e-3)


def test_harmonic_coherent_state_against_closed_form():
    omega, x0 = 0.15, 2.0
    x = pi.uniform_grid(1024, -16.0, 16.0)
    wf = pi.gaussian_packet(x, x0, math.sqrt(1.0 / (2.0 * omega)))
    [(_, final)], _ = pi.propagate_snapshots(wf, 0.25, [32 * 0.25], pi.HarmonicPotential(omega))
    err = _l2_up_to_phase(final.values, _coherent_state(x, omega, x0, 8.0), final.dx)
    assert err < 5e-3


def test_convergence_order_in_eps_is_quadratic():
    omega, x0, t_final = 0.15, 2.0, 8.0
    x = pi.uniform_grid(1024, -16.0, 16.0)
    wf = pi.gaussian_packet(x, x0, math.sqrt(1.0 / (2.0 * omega)))
    target = _coherent_state(x, omega, x0, t_final)
    eps_values = [0.5, 1.0 / 3.0, 0.25]
    errors = []
    for eps in eps_values:
        [(_, final)], _ = pi.propagate_snapshots(
            wf, eps, [round(t_final / eps) * eps], pi.HarmonicPotential(omega))
        errors.append(_l2_up_to_phase(final.values, target, final.dx))
    slope = np.polyfit(np.log(eps_values), np.log(errors), 1)[0]
    assert slope >= 1.8
    assert errors[0] > errors[-1]


def test_ehrenfest_oscillation_of_mean_position():
    omega, x0 = 0.15, 2.0
    x = pi.uniform_grid(1024, -16.0, 16.0)
    wf = pi.gaussian_packet(x, x0, math.sqrt(1.0 / (2.0 * omega)))
    snaps, _ = pi.propagate_snapshots(wf, 0.25, [2.0, 4.0, 8.0], pi.HarmonicPotential(omega))
    for t, snap in snaps:
        assert pi.expectation_x(snap) == pytest.approx(x0 * math.cos(omega * t), abs=1e-3)


def test_tabulated_potential_matches_its_analytic_twin():
    omega = 0.15
    x = pi.uniform_grid(1024, -16.0, 16.0)
    wf = pi.gaussian_packet(x, 2.0, math.sqrt(1.0 / (2.0 * omega)))
    table_x = np.linspace(-16.0, 16.0, 2001)
    tabulated = pi.TabulatedPotential(table_x, 0.5 * omega**2 * table_x**2)
    [(_, got)], _ = pi.propagate_snapshots(wf, 0.25, [16 * 0.25], tabulated)
    [(_, want)], _ = pi.propagate_snapshots(wf, 0.25, [16 * 0.25], pi.HarmonicPotential(omega))
    assert np.sqrt(np.sum(np.abs(got.values - want.values) ** 2) * got.dx) < 1e-5


def test_tabulated_well_matches_split_operator_oracle():
    """A non-quadratic well against a Strang split-operator run at dt = 0.01,
    which agrees with its own dt = 0.005 run to 6e-6.  The endpoint rule
    lands at 7.8e-4; a midpoint rule V((x + a)/2) lands at 1.1e-2."""
    x = pi.uniform_grid(4096, -30.0, 30.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    table_x = np.linspace(-30.0, 30.0, 301)
    well = pi.TabulatedPotential(table_x, 0.01 * table_x**2 + 0.05 * np.sin(table_x))
    [(_, got)], _ = pi.propagate_snapshots(wf, 0.5, [20 * 0.5], well)
    want = split_operator_values(wf, well, 10.0, 0.01)
    assert _l2_up_to_phase(got.values, want, wf.dx) < 2e-3


# -- velocity identities --------------------------------------------------------------


def test_mean_velocity_exactly_zero_for_real_wavefunction():
    x = pi.uniform_grid(256, -12.0, 12.0)
    wf = pi.gaussian_packet(x, 0.0, 1.2)
    assert pi.mean_velocity(wf) == 0.0


@pytest.mark.parametrize(
    ("potential", "k0"),
    [(pi.FREE, 0.4), (pi.HarmonicPotential(0.15), 0.0)],
)
def test_mean_velocity_matches_position_rate(potential, k0):
    x = pi.uniform_grid(1024, -16.0, 16.0)
    wf = pi.gaussian_packet(x, 2.0, 1.3, k0)
    eps = 0.25
    snaps, _ = pi.propagate_snapshots(wf, eps, [3 * eps, 4 * eps, 5 * eps], potential)
    (_, before), (_, middle), (_, after) = snaps
    rate = (pi.expectation_x(after) - pi.expectation_x(before)) / (2 * eps)
    assert pi.mean_velocity(middle) == pytest.approx(rate, abs=1e-4)


# -- stability ------------------------------------------------------------------------


def test_unstable_step_aborts_with_diagnostics():
    x = pi.uniform_grid(1024, -30.0, 30.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    with pytest.raises(pi.PropagationUnstableError) as err:
        pi.propagate_snapshots(wf, 0.05, [0.05])
    assert err.value.drift > pi.NORM_DRIFT_LIMIT
    assert err.value.ghost_shift < err.value.span
    assert "eps" in str(err.value)


def test_snapshots_at_no_step_build_no_kernel():
    x = pi.uniform_grid(256, -30.0, 30.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    with pytest.raises(ValueError, match="past the float range"):
        pi.propagate_snapshots(wf, 0.5, [0.5], pi.HarmonicPotential(1e155))
    snaps, drift = pi.propagate_snapshots(wf, 0.5, [0.0], pi.HarmonicPotential(1e155))
    assert [t for t, _ in snaps] == [0.0] and snaps[0][1] is wf and drift == 0.0


def test_snapshots_past_the_memory_budget_are_refused_before_the_kernel(monkeypatch):
    x = pi.uniform_grid(256, -10.0, 10.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    # Room for the run and two snapshot states, but not three.
    monkeypatch.setattr(pi, "FFT_MAX_BYTES", (pi._FFT_BYTES_PER_POINT + 2 * 24) * 256)

    def no_kernel(*args):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(pi, "_kernel_apply", no_kernel)
    with pytest.raises(ValueError, match=f"3 snapshots .* over the {pi.FFT_MAX_BYTES}-byte budget"):
        pi.propagate_snapshots(wf, 0.5, [0.5, 1.0, 1.5])
    with pytest.raises(AssertionError, match="the kernel was built"):
        pi.propagate_snapshots(wf, 0.5, [0.5, 1.0, 1.0, 0.5])


def test_one_state_is_built_per_distinct_snapshot_step_count(monkeypatch):
    x = pi.uniform_grid(256, -10.0, 10.0)
    wf = pi.gaussian_packet(x, 0.0, 1.5)
    built = []
    real = pi.LatticeWavefunction.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(pi.LatticeWavefunction, "__post_init__", counted)
    [(_, final)], _ = pi.propagate_snapshots(wf, 0.5, [20 * 0.5])
    assert built == [final]
    built.clear()
    snaps, _ = pi.propagate_snapshots(wf, 1.5, [0, 1.5, 1.5, 3])
    assert len(built) == 2
    assert snaps[0][1] is wf and snaps[1][1] is snaps[2][1]
    assert [snap.t for _, snap in snaps] == [0.0, 1.5, 1.5, 3.0]


def test_snapshot_time_is_accumulated_one_step_at_a_time():
    """The state's t adds eps once per step: at eps = 1/3 the sum of 24 steps
    is not 24 * eps, which width-law's printed time would show."""
    x = pi.uniform_grid(1024, -16.0, 16.0)
    wf = pi.gaussian_packet(x, 2.0, math.sqrt(1.0 / 0.3))
    eps = 1.0 / 3.0
    [(_, final)], _ = pi.propagate_snapshots(wf, eps, [24 * eps], pi.HarmonicPotential(0.15))
    t = 0.0
    for _ in range(24):
        t += eps
    assert final.t == t != 24 * eps


def test_mean_velocity_refuses_a_result_past_the_float_range():
    x = pi.uniform_grid(256, -30.0, 30.0)
    with pytest.raises(ValueError, match="hbar/mass = inf"):
        pi.mean_velocity(pi.gaussian_packet(x, 0.0, 1.5, mass=1e-322))
    with pytest.raises(ValueError, match="the mean velocity is inf"):
        pi.mean_velocity(pi.gaussian_packet(x, 0.0, 1.5, 1.0, mass=1e-308))


def test_ghost_shift_formula():
    assert pi.aliasing_ghost_shift(0.5, 0.1, 2.0, 1.0) == pytest.approx(
        2 * math.pi * 0.5 / (2.0 * 0.1)
    )


_TABLE_X = np.linspace(-40.0, 60.0, 301)
_WELL = pi.TabulatedPotential(_TABLE_X, 0.01 * _TABLE_X**2 + 0.05 * np.sin(_TABLE_X))


@pytest.mark.parametrize("potential", [pi.FREE, pi.HarmonicPotential(0.15), _WELL])
@pytest.mark.parametrize(
    ("n", "xmin", "xmax", "mass", "hbar", "eps"),
    [
        (8, -12.5, 47.5, 0.6, 1.3, 0.35),
        (63, -12.5, 47.5, 0.6, 1.3, 0.35),
        (1024, -12.5, 47.5, 0.6, 1.3, 0.35),
        (4096, -12.5, 47.5, 0.6, 1.3, 0.35),
        (1024, -30.0, 30.0, 1.0, 1.0, 0.5),
    ],
)
def test_fft_apply_matches_dense_kernel(n, xmin, xmax, mass, hbar, eps, potential):
    """The FFT kernel apply equals the dense endpoint-rule matvec to rounding.

    The off-centre grid catches sign or offset errors in the potential
    diagonal, which uses absolute x.  Both sides round kernel phases of up
    to c*span^2/hbar radians (at most about 3600 here), which sets the 1e-12 floor.
    """
    rng = np.random.default_rng(n)
    x = pi.uniform_grid(n, xmin, xmax)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    wf = pi.LatticeWavefunction(
        x, values / np.sqrt(np.sum(np.abs(values) ** 2) * (x[1] - x[0])), mass=mass, hbar=hbar
    )
    want = dense_kernel(wf, eps, potential) @ wf.values
    got = pi._kernel_apply(wf, eps, potential)(wf.values)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize(
    ("potential", "mass", "hbar", "xmax"),
    [
        (pi.FREE, 1e10, 1.0, 1e154),  # m (x - a)^2 overflows
        (pi.FREE, 1e300, 1e-300, 30.0),  # m / hbar overflows
        (pi.HarmonicPotential(1e155), 1.0, 1.0, 30.0),  # omega^2 overflows
        (pi.TabulatedPotential(np.array([-30.0, 30.0]), np.array([0.0, 1e308])), 1.0, 1.0, 30.0),
    ],
)
def test_kernel_past_the_float_range_is_refused(potential, mass, hbar, xmax):
    x = pi.uniform_grid(64, -30.0, xmax)
    wf = pi.LatticeWavefunction(x, np.full(64, 1.0 / math.sqrt(64 * (x[1] - x[0]))),
                                mass=mass, hbar=hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="past the float range"):
            pi.propagate_snapshots(wf, 10.0, [2 * 10.0], potential)


def test_snapshot_times_must_be_whole_steps():
    x = pi.uniform_grid(64, -10.0, 10.0)
    wf = pi.gaussian_packet(x, 0.0, 1.0)
    with pytest.raises(ValueError, match="whole number"):
        pi.propagate_snapshots(wf, 0.5, [0.7])
