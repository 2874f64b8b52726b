import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density, random_pure_product
from jcentropy import (
    BlochParams,
    InvalidParameter,
    NoConvergence,
    bloch_qubit,
    diagonal_evolve,
    evolve,
    excitation_expectation,
    ladder,
    partial_trace,
    ppt_report,
    product_state,
    propagator_stack,
    thermal_field,
    trajectory_data,
    validate_density,
)


def propagator(n_f, t):
    return propagator_stack(n_f + 2, [t])[0]


class TestPropagator:
    def test_identity_at_zero(self):
        u = propagator(13, 0.0)
        assert np.array_equal(u, np.eye(30, dtype=complex))

    @pytest.mark.parametrize("t", [0.3, 1.7, 7.3, 24.99])
    def test_unitary(self, t):
        u = propagator(13, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(30)) < 1e-12

    @pytest.mark.parametrize("t", [0.9, 5.21])
    def test_group_inverse(self, t):
        forward = propagator(8, t)
        backward = propagator(8, -t)
        assert np.linalg.norm(forward @ backward - np.eye(20)) < 1e-12

    def test_quarter_period_flip(self):
        # two-level closed solution: |e,0> -> -i sin(t)|g,1> at t = pi/2
        u = propagator(1, np.pi / 2)
        f_dim = 3
        e0 = 0
        g1 = f_dim + 1
        assert abs(u[e0, e0]) < 1e-15
        assert abs(u[g1, e0] + 1j) < 1e-15

    def test_rejects_tiny_space(self):
        with pytest.raises(InvalidParameter):
            propagator_stack(2, [1.0])  # n_f = 0

    def test_block_frequencies(self):
        # diagonal entries carry cos(t sqrt(n+1)) and cos(t sqrt(n))
        t = 0.77
        u = propagator(3, t)
        f_dim = 5
        for n in range(f_dim - 1):
            assert abs(u[n, n] - np.cos(t * np.sqrt(n + 1))) < 1e-15
        for n in range(f_dim):
            assert abs(u[f_dim + n, f_dim + n] - np.cos(t * np.sqrt(n))) < 1e-15

    def test_stack_matches_single_times(self):
        grid = np.array([0.0, 0.4, 3.1])
        stack = propagator_stack(10, grid)
        for k, t in enumerate(grid):
            assert np.array_equal(stack[k], propagator(8, t))


class TestRabiFrequencies:
    def test_ladder_identity(self):
        alpha, beta = ladder(10)
        assert np.array_equal(alpha[:-1], beta[1:])
        assert_allclose(beta, np.sqrt(np.arange(10.0)))
        assert alpha[-1] == 0.0  # the top excited level is uncoupled


class TestEvolve:
    def test_dark_state_stationary(self):
        joint = product_state(
            bloch_qubit(BlochParams(1.0, -np.pi / 2)), thermal_field(0.0, 3)
        )
        for t in (0.5, 2.0, 9.0):
            out = evolve(joint, t)
            assert np.abs(out.mat - joint.mat).max() < 1e-14

    def test_vacuum_rabi_oscillation(self):
        # closed two-level solution: P_e(t) = cos^2(t)
        joint = product_state(
            bloch_qubit(BlochParams(1.0, np.pi / 2)), thermal_field(0.0, 4)
        )
        for t in (0.2, 0.9, 2.3):
            atom = partial_trace(evolve(joint, t), "atom")
            assert abs(atom.mat[0, 0].real - np.cos(t) ** 2) < 1e-13

    def test_fixed_point_partials_stationary(self, field01):
        atom = validate_density(np.diag([1 / 12, 11 / 12]).astype(complex), (2,))
        joint = product_state(atom, field01)
        for t in (1.0, 5.0, 20.0):
            out = evolve(joint, t)
            assert np.abs(partial_trace(out, "atom").mat - atom.mat).max() < 1e-10
            assert (
                np.abs(
                    partial_trace(out, "field").mat - field01.density_matrix().mat
                ).max()
                < 1e-10
            )

    def test_spectrum_invariant(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        out = evolve(joint, 3.7)
        assert np.abs(out.eigenvalues - joint.eigenvalues).max() < 1e-10


class TestDiagonalEvolve:
    def test_matched_populations_frozen(self, field01):
        p_e = 1.0 / 12.0  # matches the field's Boltzmann ratio at n_bar = 0.1
        for t in (0.8, 3.0, 17.0):
            (a, b), field_pops = diagonal_evolve(p_e, field01, t)
            assert abs(a - p_e) < 1e-15
            assert np.abs(field_pops - field01.probs).max() < 1e-15

    def test_vacuum_excited_single_term(self):
        vac = thermal_field(0.0, 4)
        for t in (0.3, 1.1):
            (a, _), _ = diagonal_evolve(1.0, vac, t)
            assert abs(a - np.cos(t) ** 2) < 1e-15

    def test_populations_normalized(self, field01):
        (a, b), field_pops = diagonal_evolve(0.37, field01, 4.2)
        assert abs(a + b - 1.0) < 1e-13
        assert abs(field_pops.sum() - 1.0) < 1e-13

    def test_agrees_with_full_propagator(self, rng):
        # independent oracle: dense evolution + partial trace
        worst = 0.0
        for _ in range(10):
            p_e = rng.uniform()
            field = thermal_field(rng.uniform(0.0, 1.5), int(rng.integers(4, 10)))
            atom = validate_density(np.diag([p_e, 1 - p_e]).astype(complex), (2,))
            joint = product_state(atom, field)
            t = rng.uniform(0.0, 12.0)
            (a, b), field_pops = diagonal_evolve(p_e, field, t)
            out = evolve(joint, t)
            atom_out = partial_trace(out, "atom").mat
            field_out = partial_trace(out, "field").mat
            worst = max(
                worst,
                abs(atom_out[0, 0].real - a),
                abs(atom_out[1, 1].real - b),
                np.abs(np.diag(field_out).real - field_pops).max(),
            )
        assert worst < 1e-10

    def test_rejects_bad_population(self, field01):
        with pytest.raises(InvalidParameter):
            diagonal_evolve(1.2, field01, 0.5)


class TestExcitation:
    def test_single_quantum(self):
        f_dim = 4
        psi = np.zeros(2 * f_dim)
        psi[0] = 1.0  # |e,0>
        rho = validate_density(np.outer(psi, psi), (2, f_dim))
        assert excitation_expectation(rho) == pytest.approx(1.0)

    def test_thermal_occupancy(self, field01, ground_joint):
        # direct sum over the distribution, lump level included at its index
        n = np.arange(field01.dim)
        expected = float((n * field01.probs).sum())
        assert abs(excitation_expectation(ground_joint) - expected) < 1e-13

    def test_conserved(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        values = [
            excitation_expectation(evolve(joint, t)) for t in (0.0, 1.3, 4.4, 17.9)
        ]
        assert max(values) - min(values) < 1e-12


class TestTrajectory:
    def test_record_count_and_grid(self, ground_joint):
        grid = np.arange(0.0, 2.0, 0.25)
        data = trajectory_data(ground_joint, grid)
        assert len(data) == len(grid)
        assert np.array_equal(data.t, grid)

    def test_joint_entropy_constant(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        data = trajectory_data(joint, np.arange(0.0, 5.0, 0.05))
        assert np.ptp(data.s_joint) < 1e-10

    def test_stationary_state_records_identical(self, field01):
        atom = validate_density(np.diag([1 / 12, 11 / 12]).astype(complex), (2,))
        joint = product_state(atom, field01)
        data = trajectory_data(joint, np.arange(0.0, 3.0, 0.5))
        for column in (data.s_atom, data.s_field, data.purity_atom):
            assert np.abs(column - column[0]).max() < 1e-12

    def test_excitation_drift(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        data = trajectory_data(joint, np.arange(0.0, 10.0, 0.02))
        assert np.ptp(data.n_expectation) < 1e-12

    def test_matches_single_shot_evolve(self, rng, field01):
        from jcentropy import purity, von_neumann

        joint = product_state(random_density(rng, 2), field01)
        grid = np.array([0.0, 0.7, 1.9, 3.3])
        data = trajectory_data(joint, grid)
        for k, t in enumerate(grid):
            out = evolve(joint, t)
            atom = partial_trace(out, "atom")
            field = partial_trace(out, "field")
            assert abs(data.s_atom[k] - von_neumann(atom)) < 1e-12
            assert abs(data.s_field[k] - von_neumann(field)) < 1e-12
            assert abs(data.s_joint[k] - von_neumann(out)) < 1e-12
            assert abs(data.purity_atom[k] - purity(atom)) < 1e-12
            assert abs(data.purity_field[k] - purity(field)) < 1e-12

    def test_fast_mode_matches_full(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        grid = np.arange(0.0, 4.0, 0.1)
        full = trajectory_data(joint, grid, full_verification=True)
        fast = trajectory_data(joint, grid, full_verification=False)
        assert np.abs(full.s_atom - fast.s_atom).max() == 0.0
        assert np.abs(full.s_field - fast.s_field).max() == 0.0
        assert np.abs(full.s_joint - fast.s_joint).max() < 1e-10

    def test_schmidt_equality_pure_product(self, rng):
        for _ in range(3):
            joint = random_pure_product(rng, 8)
            data = trajectory_data(joint, np.arange(0.0, 6.0, 0.05))
            assert np.abs(data.s_atom - data.s_field).max() < 1e-10

    def test_ppt_columns(self, excited_joint):
        # the batched columns agree with a single-state report per sample
        grid = np.arange(0.0, 1.0, 0.2)
        data = trajectory_data(excited_joint, grid, ppt=True)
        assert data.lambda_m is not None and len(data.lambda_m) == len(grid)
        for k, t in enumerate(grid):
            evolved = evolve(excited_joint, t)
            report = ppt_report(evolved.mat, evolved.dims)
            assert abs(report.lambda_m - data.lambda_m[k]) < 1e-12
            assert report.n_significant == data.n_significant[k]
        assert data.n_significant.max() >= 1

    def test_solver_failure_is_no_convergence(self, ground_joint, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            trajectory_data(ground_joint, np.arange(0.0, 1.0, 0.5))

    def test_grid_validation(self, ground_joint):
        with pytest.raises(InvalidParameter):
            trajectory_data(ground_joint, np.array([0.5, 1.0]))
        with pytest.raises(InvalidParameter):
            trajectory_data(ground_joint, np.array([0.0, 1.0, 0.5]))
        with pytest.raises(InvalidParameter):
            trajectory_data(ground_joint, np.array([]))
