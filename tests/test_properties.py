"""Property tests of the evolution engine over random thermal fields, Bloch atoms and times."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_density
from dense_oracle import dense_trajectory
from jcentropy import (
    BlochParams,
    SweepGrid,
    TrajectoryData,
    auto_truncate,
    bloch_qubit,
    diagonal_evolve,
    dynamics,
    evolve,
    partial_transpose,
    product_state,
    purity_rate_exact,
    run_sweep,
    thermal_field,
    trajectory_data,
)

n_bars = st.floats(min_value=0.0, max_value=2.0)
radii = st.floats(min_value=1e-3, max_value=1.0)
thetas = st.floats(min_value=-np.pi / 2, max_value=np.pi / 2)
phis = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)
times = st.lists(st.floats(min_value=1e-3, max_value=40.0), min_size=1, max_size=4, unique=True)


def joint_state(n_bar, r, theta, phi):
    field = thermal_field(n_bar, auto_truncate(n_bar))
    return product_state(bloch_qubit(BlochParams(r, theta, phi)), field)


def grid_of(ts):
    return np.concatenate([[0.0], np.sort(ts)])


def assert_matches_oracle(joint, grid):
    engine = trajectory_data(joint, grid, ppt=True)
    oracle = dense_trajectory(joint, grid)
    for name in TrajectoryData.__dataclass_fields__:
        got, want = getattr(engine, name), getattr(oracle, name)
        assert np.abs(got - want).max() <= 1e-12, name
    assert np.array_equal(engine.n_significant, oracle.n_significant)


@settings(max_examples=40, deadline=None)
@given(n_bars, radii, thetas, times)
def test_real_path_matches_dense_oracle(n_bar, r, theta, ts):
    joint = joint_state(n_bar, r, theta, 0.0)
    assert dynamics._gauged(joint)[0].dtype == np.float64
    assert_matches_oracle(joint, grid_of(ts))


@settings(max_examples=40, deadline=None)
@given(n_bars, radii, thetas, phis, times)
@example(2.225073858507203e-309, 1.0, 0.0, 1.5, [1.0])  # subnormal level-1 weight
def test_complex_path_matches_dense_oracle(n_bar, r, theta, phi, ts):
    # a complex-valued atom: the phi factor of the gauge makes it real
    joint = joint_state(n_bar, r, theta, phi)
    assert dynamics._gauged(joint)[0].dtype == np.float64
    assert_matches_oracle(joint, grid_of(ts))


@settings(max_examples=60, deadline=None)
@given(n_bars, st.floats(min_value=0.0, max_value=1.0, exclude_min=True), thetas, phis)
@example(2.225073858507203e-309, 1.0, 0.0, 1.5)  # subnormal level-1 weight
def test_every_bloch_atom_on_a_thermal_field_gauges_banded(n_bar, r, theta, phi):
    # every state the CLI builds, so its sidecar names the band solver without gauging one
    sigma0, _ = dynamics._gauged(joint_state(n_bar, r, theta, phi))
    assert sigma0.dtype == np.float64
    assert dynamics._excitation_banded(sigma0)


@settings(max_examples=40, deadline=None)
@given(n_bars, radii, thetas, phis, times)
def test_phi_changes_no_diagnostic(n_bar, r, theta, phi, ts):
    # exp(-i phi N) is a local unitary that commutes with the evolution
    grid = grid_of(ts)
    turned = trajectory_data(joint_state(n_bar, r, theta, phi), grid, ppt=True)
    plain = trajectory_data(joint_state(n_bar, r, theta, 0.0), grid, ppt=True)
    for name in TrajectoryData.__dataclass_fields__:
        assert np.abs(getattr(turned, name) - getattr(plain, name)).max() <= 1e-12, name
    assert np.array_equal(turned.n_significant, plain.n_significant)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(3, 12), times)
def test_entangled_complex_state_matches_dense_oracle(seed, f_dim, ts):
    joint = random_density(np.random.default_rng(seed), 2 * f_dim, (2, f_dim))
    assert dynamics._gauged(joint)[0].dtype == np.complex128
    assert_matches_oracle(joint, grid_of(ts))


@settings(max_examples=40, deadline=None)
@given(n_bars, radii, thetas, phis, times)
def test_araki_lieb(n_bar, r, theta, phi, ts):
    # |S_a - S_f| <= S_af <= S_a + S_f, with S_af from each sample's own spectrum
    data = trajectory_data(joint_state(n_bar, r, theta, phi), grid_of(ts))
    assert np.all(np.abs(data.s_atom - data.s_field) <= data.s_joint + 1e-10)
    assert np.all(data.s_joint <= data.s_atom + data.s_field + 1e-10)


@settings(max_examples=40, deadline=None)
@given(n_bars, radii, thetas, phis, times)
# a nearly pure state: two zero eigenvalues come out at -6e-18 and -5e-123
@example(n_bar=1.401298464324817e-45, r=0.8039442038147591, theta=-0.4648687400367364,
         phi=3.2171412818292935, ts=[4.953935627817456])
def test_partial_transpose_spectrum(n_bar, r, theta, phi, ts):
    # unit trace, and at most N - 1 negative eigenvalues for a 2 x N state
    # (Rana, PRA 87, 054301 (2013)); eigvalsh finds each eigenvalue only to about
    # D eps max|w|, so an exact zero may come out negative below that
    joint = joint_state(n_bar, r, theta, phi)
    for t in ts:
        rho = evolve(joint, t)
        w = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims))
        assert abs(w.sum() - 1.0) <= 1e-10
        rounding = w.size * np.finfo(float).eps * np.abs(w).max()
        assert np.count_nonzero(w < -rounding) <= rho.dims[1] - 1


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.one_of(st.sampled_from([-np.pi / 2, np.pi / 2]), thetas),
                min_size=1, max_size=3, unique=True),
       st.lists(radii, min_size=1, max_size=3, unique=True),
       st.integers(min_value=2, max_value=40))
def test_sweep_independent_of_worker_count(n_bar, theta_values, r_values, n_t):
    # at theta = +-pi/2 the off-diagonal pair blocks hold only cos(pi/2) ~ 6e-17
    grid = SweepGrid(np.sort(theta_values), np.sort(r_values), n_bar, auto_truncate(n_bar),
                     0.1 * np.arange(n_t))
    assert run_sweep(grid, workers=1) == run_sweep(grid, workers=2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["ground", "excited"]), st.floats(0.0, 3.0), st.integers(1, 30),
       st.floats(0.0, 30.0))
def test_purity_rates_are_the_derivative_of_the_closed_form(initial, n_bar, n_f, t):
    # centred differences of the purities of diagonal_evolve's populations
    field, p_e, h = thermal_field(n_bar, n_f), float(initial == "excited"), 1e-5

    def purities(s):
        (excited, ground), field_pops = diagonal_evolve(p_e, field, s)
        return np.array([excited**2 + ground**2, (field_pops**2).sum()])

    numeric = (purities(t + h) - purities(t - h)) / (2 * h)
    rates = np.array(purity_rate_exact(initial, field, t))
    assert np.all(np.abs(numeric - rates) < 1e-6 * np.maximum(1.0, np.abs(rates)))
