import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import dsbev_absent, dsbev_failing, random_density, random_pure_product
from dense_oracle import (dense_trajectory, excitation_expectation, partial_trace,
                          propagator_stack, purity)
from jcentropy import (
    BlochParams,
    EntropySeries,
    InsufficientMemory,
    InvalidParameter,
    NoConvergence,
    NotHermitian,
    TraceNotOne,
    TrajectoryData,
    bloch_qubit,
    default_grid,
    diagonal_evolve,
    dynamics,
    entropy_from_spectrum,
    evolve,
    exchange_parameter,
    ladder,
    ppt_report,
    product_state,
    purity_rate_approx,
    purity_rate_exact,
    thermal_field,
    trajectory_data,
    validate_density,
)
from jcentropy import states
from jcentropy.states import hermiticity_residual


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
        joint = product_state(bloch_qubit(BlochParams(1.0, np.pi / 2)), thermal_field(0.1, 0))
        with pytest.raises(InvalidParameter):
            evolve(joint, 1.0)  # n_f = 0
        with pytest.raises(InvalidParameter):
            trajectory_data(joint, [0.0, 1.0])

    @pytest.mark.parametrize("dims", [(3, 4), (4, 2)])
    @pytest.mark.parametrize("entry", [
        lambda joint: trajectory_data(joint, [0.0, 1.0]),
        lambda joint: evolve(joint, 1.0),
        dynamics._gauged,
        lambda joint: product_state(validate_density(np.eye(joint.dims[0]) / joint.dims[0],
                                                     joint.dims[:1]), thermal_field(0.1, 1)),
    ], ids=["trajectory_data", "evolve", "gauge", "product_state"])
    def test_rejects_non_qubit_atom(self, dims, entry):
        d = dims[0] * dims[1]
        joint = validate_density(np.eye(d) / d, dims)
        with pytest.raises(InvalidParameter, match=f"atom factor has dimension {dims[0]}"):
            entry(joint)

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

    def test_feeds_the_diagnostics(self, ground_joint):
        # a trajectory is the entropy series the diagnostics reduce: no conversion
        assert issubclass(TrajectoryData, EntropySeries)
        data = trajectory_data(ground_joint, np.arange(0.0, 5.0, 0.05))
        result = exchange_parameter(data)
        assert result.used_steps + result.skipped_steps == len(data) - 1
        assert -1.0 <= result.p < 0.0

    def test_excitation_drift(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        data = trajectory_data(joint, np.arange(0.0, 10.0, 0.02))
        assert np.ptp(data.n_expectation) < 1e-12

    def test_matches_single_shot_evolve(self, rng, field01):
        joint = product_state(random_density(rng, 2), field01)
        grid = np.array([0.0, 0.7, 1.9, 3.3])
        data = trajectory_data(joint, grid)
        for k, t in enumerate(grid):
            out = evolve(joint, t)
            atom = partial_trace(out, "atom")
            field = partial_trace(out, "field")
            assert abs(data.s_atom[k] - entropy_from_spectrum(atom.eigenvalues)) < 1e-12
            assert abs(data.s_field[k] - entropy_from_spectrum(field.eigenvalues)) < 1e-12
            assert abs(data.s_joint[k] - entropy_from_spectrum(out.eigenvalues)) < 1e-12
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
            assert abs(report["lambda_m"] - data.lambda_m[k]) < 1e-12
            assert report["n_significant"] == data.n_significant[k]
        assert data.n_significant.max() >= 1

    def test_solver_failure_is_no_convergence(self, ground_joint, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # without dsbev the band solver calls numpy's eigvalsh too, so every solve fails
        monkeypatch.setattr(states, "_dsbev", dsbev_absent)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            trajectory_data(ground_joint, np.arange(0.0, 1.0, 0.5))

    @pytest.mark.parametrize("t_grid", [[0.0, np.nan], [0.0, 1.0, np.inf]], ids=str)
    def test_non_finite_time_is_refused_as_input(self, ground_joint, t_grid):
        # refused before any rotation, whose cos(inf) = NaN would reach the eigensolver
        with pytest.raises(InvalidParameter, match="t_grid must be finite"):
            trajectory_data(ground_joint, np.array(t_grid))

    @pytest.mark.parametrize("ppt", [False, True])
    def test_bad_threshold_is_refused_on_entry(self, ground_joint, ppt, monkeypatch):
        # without ppt nothing read the threshold; with it ppt_report refused it only after
        # the first block was rotated and its joint spectra solved
        def no_rotation(*_):
            raise AssertionError("a block was rotated")

        monkeypatch.setattr(dynamics, "_rotate", no_rotation)
        with pytest.raises(InvalidParameter, match="artifact_threshold=-1 must be positive"):
            trajectory_data(ground_joint, np.arange(0.0, 1.0, 0.1), ppt=ppt,
                            artifact_threshold=-1)

    def test_grid_validation(self, ground_joint):
        with pytest.raises(InvalidParameter):
            trajectory_data(ground_joint, np.array([0.5, 1.0]))
        with pytest.raises(InvalidParameter):
            trajectory_data(ground_joint, np.array([0.0, 1.0, 0.5]))
        with pytest.raises(InvalidParameter):
            trajectory_data(ground_joint, np.array([]))


class TestFieldSolver:
    """The reduced field of a Bloch atom on a diagonal field is tridiagonal, and is solved
    by ``dsbev`` at half-bandwidth 1, which iterates as ``dsterf`` does."""

    @pytest.mark.parametrize("ppt", [False, True])
    @pytest.mark.parametrize("n_bar,n_f", [(0.1, 13), (1.0, 46)])
    def test_fast_path_equals_fallback(self, n_bar, n_f, ppt, monkeypatch):
        # without full verification the field is the one band solve; n_f = 46 puts it
        # past the crossover to LAPACK's blocked dense reduction
        joint = product_state(bloch_qubit(BlochParams(0.7, 0.4, 1.3)), thermal_field(n_bar, n_f))
        assert dynamics._excitation_banded(dynamics._gauged(joint)[0])
        grid = np.arange(0.0, 2.0, 0.05)
        fast = trajectory_data(joint, grid, ppt=ppt, full_verification=False)
        monkeypatch.setattr(states, "_dsbev", dsbev_absent)
        assert states.lapack_solver() == "eigvalsh"
        dense = trajectory_data(joint, grid, ppt=ppt, full_verification=False)
        for name in TrajectoryData.__dataclass_fields__:
            got, want = getattr(fast, name), getattr(dense, name)
            assert (got is None and want is None) or np.array_equal(got, want), name

    def test_real_dense_state_takes_dense_path(self, rng, monkeypatch):
        # no coherence between the atom's sectors keeps the gauged state real, and
        # entries two and more quanta apart make its reduced field dense
        f_dim = 8
        g = rng.normal(size=(2 * f_dim, 2 * f_dim))
        m = g @ g.T
        m[:f_dim, f_dim:] = m[f_dim:, :f_dim] = 0.0
        joint = validate_density(m / np.trace(m), (2, f_dim))
        sigma0, _ = dynamics._gauged(joint)
        assert sigma0.dtype == np.float64
        assert not dynamics._excitation_banded(sigma0)

        def unexpected(_):
            raise AssertionError("band solver called on a non-banded state")

        monkeypatch.setattr(dynamics, "banded_eigvalsh", unexpected)
        grid = np.arange(0.0, 3.0, 0.25)
        engine = trajectory_data(joint, grid, ppt=True)
        oracle = dense_trajectory(joint, grid)
        for name in TrajectoryData.__dataclass_fields__:
            assert np.abs(getattr(engine, name) - getattr(oracle, name)).max() <= 1e-12, name

    def test_sterf_failure_is_no_convergence(self, ground_joint, monkeypatch):
        # the field solve calls no numpy eigvalsh, so it needs its own failure test
        monkeypatch.setattr(states, "_dsbev", dsbev_failing(kd=1))
        with pytest.raises(NoConvergence, match="dsbev"):
            trajectory_data(ground_joint, np.arange(0.0, 1.0, 0.5),
                            ppt=False, full_verification=False)


class TestJointSolver:
    """For a Bloch atom on a diagonal field the reduced field (half-bandwidth 1) and,
    under full verification, the joint state (half-bandwidth 3, filled straight from the
    rotated pair blocks) are solved as band matrices."""

    @pytest.mark.parametrize("ppt", [False, True])
    @pytest.mark.parametrize("n_bar,n_f", [(0.1, 13), (1.0, 46)])
    @pytest.mark.parametrize("atom", [(1.0, -np.pi / 2, 0.0), (0.7, 0.4, 1.3)])
    def test_band_path_equals_dense_to_rounding(self, atom, n_bar, n_f, ppt, monkeypatch):
        joint = product_state(bloch_qubit(BlochParams(*atom)), thermal_field(n_bar, n_f))
        # n_f = 46 puts the field past LAPACK's crossover to a blocked dense reduction
        assert dynamics._excitation_banded(dynamics._gauged(joint)[0])
        grid = np.arange(0.0, 3.0, 0.05)
        band = trajectory_data(joint, grid, ppt=ppt)
        monkeypatch.setattr(states, "_dsbev", dsbev_absent)
        assert states.lapack_solver() == "eigvalsh"
        dense = trajectory_data(joint, grid, ppt=ppt)
        for name in TrajectoryData.__dataclass_fields__:
            got, want = getattr(band, name), getattr(dense, name)
            if name == "s_joint":
                assert np.abs(got - want).max() <= 1e-14
            else:  # s_field too: at half-bandwidth 1 dsbev is bit-identical
                assert (got is None and want is None) or np.array_equal(got, want), name

    def test_band_map_fills_the_band_of_the_dense_sample(self):
        # a real state whose entries two and more quanta apart are 0, as in every spot cell
        f_dim = 7
        joint = product_state(bloch_qubit(BlochParams(0.8, -0.3)), thermal_field(0.5, f_dim - 2))
        sigma0, _ = dynamics._gauged(joint)
        assert dynamics._excitation_banded(sigma0)
        blocks = dynamics._pair_blocks(sigma0)
        x = dynamics._rotate(blocks, np.array([1.7]))[0]
        band = dynamics._band(x[None], dynamics._band_map(blocks), 2 * f_dim)[0]
        dense = np.zeros_like(sigma0)
        dense[blocks.rows, blocks.cols] = x
        n = np.arange(f_dim)
        order = np.stack([f_dim + n, n], axis=1).ravel()  # |g,0>, |e,0>, |g,1>, |e,1>, ...
        in_n_order = dense[np.ix_(order, order)]
        assert np.abs(np.triu(in_n_order, 4)).max() == 0.0
        want = np.zeros((2 * f_dim, 4))
        for offset in range(4):
            want[: 2 * f_dim - offset, offset] = np.diagonal(in_n_order, -offset)
        assert np.array_equal(band, want)

    def test_spot_cell_builds_no_dense_sample(self):
        # full verification without PT, at D = 96 as in sweep-hot's spot cells
        joint = product_state(bloch_qubit(BlochParams(0.7, 0.4)), thermal_field(1.0, 46))
        peak = TestMemoryPreflight.measured_peak(joint, np.arange(0.0, 25.005, 0.01),
                                                 ppt=False, full_verification=True)
        assert peak < dynamics.CHUNK_BYTES

    def test_sbev_failure_is_no_convergence(self, ground_joint, monkeypatch):
        # only full verification solves the joint band (half-bandwidth 3)
        monkeypatch.setattr(states, "_dsbev", dsbev_failing(kd=3))
        grid = np.arange(0.0, 1.0, 0.5)
        trajectory_data(ground_joint, grid, ppt=False, full_verification=False)
        with pytest.raises(NoConvergence, match="dsbev"):
            trajectory_data(ground_joint, grid, ppt=False, full_verification=True)


class TestBlockChecks:
    """The invariant checks read off the rotated pair blocks, without a dense sample."""

    @staticmethod
    def perturb(monkeypatch, select, entry):
        # add 1e-9 to one entry of the first selected block at every sample
        rotate = dynamics._rotate

        def perturbed(blocks, times):
            x_t = rotate(blocks, times)
            x_t[(slice(None), np.flatnonzero(select(blocks))[0]) + entry] += 1e-9
            return x_t

        monkeypatch.setattr(dynamics, "_rotate", perturbed)

    @pytest.fixture
    def coherent_joint(self, field01):
        return product_state(bloch_qubit(BlochParams(0.7, 0.4)), field01)

    def test_off_diagonal_block_raises_not_hermitian(self, coherent_joint, monkeypatch):
        self.perturb(monkeypatch, lambda b: b.k != b.l, (0, 1))
        with pytest.raises(NotHermitian) as exc:
            trajectory_data(coherent_joint, np.arange(0.0, 1.0, 0.1),
                            ppt=False, full_verification=False)
        assert exc.value.residual == pytest.approx(1e-9, rel=1e-6)

    def test_diagonal_entry_raises_trace_not_one(self, coherent_joint, monkeypatch):
        self.perturb(monkeypatch, lambda b: b.k == b.l, (0, 0))
        with pytest.raises(TraceNotOne) as exc:
            trajectory_data(coherent_joint, np.arange(0.0, 1.0, 0.1),
                            ppt=False, full_verification=False)
        assert abs(exc.value.trace - 1.0) == pytest.approx(1e-9, rel=1e-6)

    @staticmethod
    def block_and_dense_residuals(sigma0, times):
        blocks = dynamics._pair_blocks(sigma0)
        x_t = dynamics._rotate(blocks, times)
        dense = np.zeros((len(times),) + sigma0.shape, sigma0.dtype)
        dense[:, blocks.rows, blocks.cols] = x_t
        return (dynamics._hermiticity_residual(blocks, x_t),
                max(hermiticity_residual(m) for m in dense))

    @pytest.mark.parametrize("tiny", [1e-20, 1e-20 + 3e-20j])
    def test_unpaired_tiny_entry_matches_dense_residual(self, ground_joint, tiny):
        # (|e,0>, |e,5>) lies in pair block (0, 5); its transpose block holds exact zeros
        sigma0 = ground_joint.mat.real.astype(type(tiny))
        sigma0[0, 5] = tiny
        assert sigma0[5, 0] == 0.0
        block, dense = self.block_and_dense_residuals(sigma0, np.array([0.0, 0.8, 3.1]))
        assert block == dense > 0.0

    def test_dense_state_matches_dense_residual(self, rng):
        sigma0 = random_density(rng, 30, (2, 15)).mat
        block, dense = self.block_and_dense_residuals(sigma0, np.arange(0.0, 2.0, 0.3))
        assert block == dense > 0.0


class TestMemoryPreflight:
    @staticmethod
    def measured_peak(joint, grid=np.arange(0.0, 12.0, 0.01), **checks):
        # tracemalloc sees numpy's buffers; 1200 samples span several blocks
        tracemalloc.start()
        try:
            trajectory_data(joint, grid, **{"ppt": True, **checks})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("phi", [0.0, 1.3])
    def test_estimate_bounds_measured_peak(self, field01, phi):
        # every Bloch atom on a diagonal field evolves real
        joint = product_state(bloch_qubit(BlochParams(0.7, 0.4, phi)), field01)
        assert dynamics._gauged(joint)[0].dtype == np.float64
        assert self.measured_peak(joint) <= dynamics.peak_bytes(field01.dim)

    def test_scales_with_workers(self):
        assert dynamics.peak_bytes(15, 2) == 2 * dynamics.peak_bytes(15)

    def test_refuses_beyond_machine_memory(self, monkeypatch):
        need = dynamics.peak_bytes(15, 2)
        monkeypatch.setattr(dynamics, "machine_bytes", lambda: need - 1)
        with pytest.raises(InsufficientMemory) as exc:
            dynamics.require_memory(15, 2)
        assert exc.value.need == need
        dynamics.require_memory(15, 1)

    def test_block_path_peaks_below_one_dense_block(self):
        # without an eigensolve no dense (block, D, D) sample is built: D = 96, as in sweep-hot
        joint = product_state(bloch_qubit(BlochParams(0.7, 0.4)), thermal_field(1.0, 46))
        peak = self.measured_peak(joint, np.arange(0.0, 25.005, 0.01),
                                  ppt=False, full_verification=False)
        assert peak < dynamics.CHUNK_BYTES


@pytest.mark.parametrize("call", [
    lambda t: diagonal_evolve(0.3, thermal_field(0.1, 4), t),
    lambda t: purity_rate_exact("ground", thermal_field(0.1, 4), t),
    lambda t: purity_rate_approx("ground", 0.1, t),
    lambda t: evolve(product_state(bloch_qubit(BlochParams(0.7, 0.4)), thermal_field(0.1, 4)), t),
], ids=["diagonal_evolve", "purity_rate_exact", "purity_rate_approx", "evolve"])
@pytest.mark.parametrize("t", [np.nan, np.inf], ids=str)
def test_non_finite_time_names_t(call, t):
    # the closed forms returned NaN, and evolve refused "matrix contains NaN or Inf entries"
    with pytest.raises(InvalidParameter, match="^t must be finite$"):
        call(t)


GRID_CALLS = {
    "sample_count": dynamics.sample_count,
    "time_grid": dynamics.time_grid,
    "default_grid": lambda t_max, dt: default_grid(0.1, 4, (3, 3), t_max, dt),
}


@pytest.mark.parametrize("t_max,dt,message", [
    (1.0, 0.0, "dt=0.0 must be positive"),
    (1.0, -0.1, "dt=-0.1 must be positive"),
    (1.0, np.nan, "dt=nan must be positive"),
    (0.001, 0.01, "t_max=0.001 must be >= dt=0.01"),
], ids=["dt0", "dt_negative", "dt_nan", "t_max_below_dt"])
@pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
def test_time_grid_domain_is_refused_as_input(call, t_max, dt, message):
    # not ZeroDivisionError, numpy's bare ValueError, or a grid of one sample
    with pytest.raises(InvalidParameter, match=re.escape(message)):
        call(t_max, dt)


@given(st.floats(1e-3, 10.0), st.floats(1.0, 1e4))
def test_sample_count_is_time_grid_length(dt, span):
    assert dynamics.sample_count(dt * span, dt) == len(dynamics.time_grid(dt * span, dt))
