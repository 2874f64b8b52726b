import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_density
from jcentropy import (
    BlochParams,
    InvalidParameter,
    SEPARABLE_GRADE,
    TraceNotOne,
    bloch_qubit,
    evolve,
    negativity_exponent,
    partial_transpose,
    ppt_report,
    product_state,
    thermal_field,
    trajectory_data,
    validate_density,
)


def pt(joint):
    return partial_transpose(joint.mat, joint.dims)


def crafted_report(spectrum, threshold=1e-12):
    # a diagonal matrix is its own partial transpose, so its PT spectrum is exact
    w = np.asarray(spectrum, dtype=float)
    return ppt_report(np.diag(w).astype(complex), (2, w.size // 2), threshold)


def bell_joint(f_dim=5):
    psi = np.zeros(2 * f_dim, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[f_dim + 1] = 1 / np.sqrt(2)
    return validate_density(np.outer(psi, psi.conj()), (2, f_dim))


class TestPartialTranspose:
    def test_product_state_stays_positive(self, rng):
        atom = random_density(rng, 2)
        joint = product_state(atom, thermal_field(0.4, 6))
        w = np.linalg.eigvalsh(pt(joint))
        assert w[0] > -1e-12

    def test_bell_minimum_eigenvalue(self):
        # the 4x4 support diagonalizes by hand to {1/2, 1/2, 1/2, -1/2}
        w = np.linalg.eigvalsh(pt(bell_joint()))
        assert abs(w[0] + 0.5) < 1e-12
        assert abs(w.sum() - 1.0) < 1e-12

    def test_involution(self, rng):
        joint = random_density(rng, 12, dims=(2, 6))
        once = pt(joint)
        twice = partial_transpose(once, joint.dims)
        assert np.array_equal(twice, joint.mat)

    def test_stack_matches_single(self, rng):
        stack = np.stack([random_density(rng, 12, dims=(2, 6)).mat for _ in range(3)])
        batched = partial_transpose(stack, (2, 6))
        for k in range(3):
            assert np.array_equal(batched[k], partial_transpose(stack[k], (2, 6)))

    def test_hermitian_and_trace_preserving(self, rng):
        joint = random_density(rng, 10, dims=(2, 5))
        out = pt(joint)
        assert np.abs(out - out.conj().T).max() < 1e-14
        assert abs(np.trace(out) - 1.0) < 1e-13

    def test_factor_symmetry_of_spectrum(self, field01):
        # transposing the atom factor instead gives the same spectrum
        atom = bloch_qubit(BlochParams(0.9, 0.8, 0.0))
        joint = evolve(product_state(atom, field01), 2.7)
        w_field = np.linalg.eigvalsh(pt(joint))
        d_a, d_f = joint.dims
        blocks = joint.mat.reshape(d_a, d_f, d_a, d_f)
        atom_t = blocks.transpose(2, 1, 0, 3).reshape(joint.dim, joint.dim)
        w_atom = np.linalg.eigvalsh(atom_t)
        assert np.abs(w_field - w_atom).max() < 1e-12


class TestNegativeEigenvalues:
    def test_psd_input_empty(self):
        report = crafted_report(np.full(4, 0.25))
        assert report.n_significant == 0
        assert report.lambda_m == 0.0 and report.artifact_magnitude == 0.0

    def test_diagonal_case(self):
        report = crafted_report([0.75, 0.75, -0.5, 0.0])
        assert report.n_significant == 1
        assert report.lambda_m == -0.5
        assert report.min_transpose_eigenvalue == -0.5

    def test_stable_under_basis_growth(self):
        # genuine negatives move by at most the truncated tail when the basis grows
        atom = bloch_qubit(BlochParams(0.9, 0.9, 0.0))
        t = 2.3
        spectra = {}
        for n_f in (13, 15):
            joint = evolve(product_state(atom, thermal_field(0.1, n_f)), t)
            w = np.linalg.eigvalsh(pt(joint))
            spectra[n_f] = w[w <= -1e-12]
            assert ppt_report(joint.mat, joint.dims).n_significant == spectra[n_f].size
        assert spectra[13].size == spectra[15].size
        assert np.abs(spectra[13] - spectra[15]).max() < 1e-9


class TestFilterArtifact:
    def test_truncation_scale_is_artifact(self):
        report = crafted_report([-1e-17, 0.5, 0.5, 1e-17])
        assert report.n_significant == 0
        assert report.lambda_m == 0.0
        assert report.artifact_magnitude == 1e-17

    def test_mixed_input(self):
        report = crafted_report([-0.2, -1e-17, 0.6, 0.6])
        assert report.n_significant == 1
        assert report.lambda_m == -0.2
        assert report.artifact_magnitude == 1e-17

    def test_empty(self):
        report = crafted_report([0.1, 0.2, 0.3, 0.4])
        assert report.n_significant == 0
        assert report.lambda_m == 0.0 and report.artifact_magnitude == 0.0

    def test_threshold_boundary_is_significant(self):
        # |v| == threshold counts as significant, just below it as an artifact
        report = crafted_report([-1e-12, -9.9e-13, 0.5, 0.5 + 1.99e-12])
        assert report.n_significant == 1
        assert report.lambda_m == -1e-12
        assert report.artifact_magnitude == 9.9e-13

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(InvalidParameter):
            crafted_report([0.5, 0.5, 0.0, 0.0], threshold=0.0)

    def test_batched_rows_independent(self):
        rows = [[-0.2, -1e-17, 0.6, 0.6], [0.1, 0.2, 0.3, 0.4]]
        stack = np.stack([np.diag(r).astype(complex) for r in rows])
        report = ppt_report(stack, (2, 2))
        assert list(report.n_significant) == [1, 0]
        assert list(report.lambda_m) == [-0.2, 0.0]
        assert list(report.artifact_magnitude) == [1e-17, 0.0]


class TestReportAndMeasure:
    def test_report_fields_consistent(self):
        joint = bell_joint()
        report = ppt_report(joint.mat, joint.dims)
        assert report.lambda_m == pytest.approx(-0.5, abs=1e-12)
        assert report.n_significant == 1
        assert report.min_transpose_eigenvalue == report.lambda_m

    def test_trace_check(self):
        with pytest.raises(TraceNotOne):
            crafted_report([0.5, 0.5, 0.5, 0.0])

    def test_e_measure_clean_trajectory(self, rng):
        atom = random_density(rng, 2)
        joint = product_state(atom, thermal_field(0.2, 6))
        lambda_m = ppt_report(np.stack([joint.mat] * 5), joint.dims).lambda_m
        assert negativity_exponent(lambda_m.mean()) == SEPARABLE_GRADE

    def test_e_measure_log_identity(self):
        assert negativity_exponent(np.mean([-0.01, -0.01])) == pytest.approx(-2.0)

    def test_verdicts(self, rng):
        joint = bell_joint()
        assert ppt_report(joint.mat, joint.dims).n_significant > 0
        atom = random_density(rng, 2)
        product = product_state(atom, thermal_field(0.4, 6))
        assert ppt_report(product.mat, product.dims).n_significant == 0

    def test_separable_mixtures_stay_indeterminate(self, rng):
        # convex mixtures of up to three product states are separable by construction
        f_dim = 6
        for _ in range(5):
            k = int(rng.integers(1, 4))
            weights = rng.dirichlet(np.ones(k))
            mat = np.zeros((2 * f_dim, 2 * f_dim), dtype=complex)
            for w in weights:
                atom = random_density(rng, 2)
                field = random_density(rng, f_dim)
                mat += w * np.kron(atom.mat, field.mat)
            joint = validate_density(mat, (2, f_dim))
            assert ppt_report(joint.mat, joint.dims).n_significant == 0


class TestExchangeRegionTrajectory:
    def test_near_ground_state_stays_clean(self, field01):
        # inside the strong-exchange region the transposed spectrum never
        # develops a significant negative eigenvalue
        atom = bloch_qubit(BlochParams(0.9, -np.pi / 2, 0.0))
        joint = product_state(atom, field01)
        data = trajectory_data(joint, np.arange(0.0, 25.0, 0.1), ppt=True)
        assert data.n_significant.max() == 0
        assert negativity_exponent(data.lambda_m.mean()) <= -15.0

    def test_excited_region_shows_negativity(self, excited_joint):
        data = trajectory_data(excited_joint, np.arange(0.0, 10.0, 0.1), ppt=True)
        assert data.n_significant.max() > 0
        assert negativity_exponent(data.lambda_m.mean()) > -15.0
