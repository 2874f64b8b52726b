import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jcentropy import (
    BlochParams,
    DimensionMismatch,
    InvalidParameter,
    MissingFactorization,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    auto_truncate,
    bloch_qubit,
    entropy_from_spectrum,
    partial_trace,
    product_state,
    thermal_field,
    validate_density,
)


class TestThermalField:
    def test_weakly_excited_ground_weight(self):
        f = thermal_field(0.1, 13)
        assert_allclose(f.probs[0], 10.0 / 11.0, rtol=1e-15)
        # values quoted to four decimals in the weak-field analysis
        assert abs(f.probs[0] ** 2 - 0.8264) < 1e-4
        assert abs(f.probs[0] * f.probs[1] - 0.0751) < 1e-4

    def test_vacuum(self):
        f = thermal_field(0.0, 5)
        assert_allclose(f.probs, [1, 0, 0, 0, 0, 0, 0])

    def test_normalized(self):
        for n_bar in (0.1, 1.0, 10.0):
            f = thermal_field(n_bar, 20)
            assert abs(f.probs.sum() - 1.0) < 1e-15

    def test_geometric_ratio_exact(self):
        f = thermal_field(0.7, 12)
        q = 0.7 / 1.7
        for n in range(12):
            assert f.probs[n + 1] == f.probs[n] * q

    def test_monotone_below_one(self):
        f = thermal_field(0.9, 15)
        assert np.all(np.diff(f.probs[:16]) < 0)

    def test_tail_lump_analytic(self):
        for n_bar, n_f in ((0.1, 13), (1.0, 10), (10.0, 30)):
            f = thermal_field(n_bar, n_f)
            expected = (n_bar / (n_bar + 1.0)) ** (n_f + 1)
            assert abs(f.tail_mass - expected) < 1e-13

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameter):
            thermal_field(-0.1, 5)
        with pytest.raises(InvalidParameter):
            thermal_field(0.1, -1)


class TestAutoTruncate:
    def test_vacuum_is_minimal(self):
        assert auto_truncate(0.0, 1e-14) == 1
        assert auto_truncate(0.0, 1e-3) == 1

    def test_weak_field_frozen_value(self):
        # independently re-derived by the scan oracle below
        assert auto_truncate(0.1, 1e-14) == 13

    def test_scan_oracle_agreement(self):
        def oracle(n_bar, tol):
            def s(n_f):
                p = [n_bar**n / (n_bar + 1) ** (n + 1) for n in range(n_f + 1)]
                p.append(max(0.0, 1.0 - sum(p)))
                return -sum(x * np.log(x) for x in p if x > 1e-14)

            n_f = 1
            while abs(s(n_f + 1) - s(n_f)) >= tol:
                n_f += 1
            return n_f

        assert auto_truncate(0.1, 1e-14) == oracle(0.1, 1e-14)
        assert auto_truncate(0.5, 1e-12) == oracle(0.5, 1e-12)

    def test_monotone_in_mean_photon_number(self):
        assert auto_truncate(10.0, 1e-14) > auto_truncate(0.1, 1e-14)

    def test_converged_tail_is_negligible(self):
        n_f = auto_truncate(0.1, 1e-14)
        assert thermal_field(0.1, n_f).tail_mass < 1e-14

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidParameter):
            auto_truncate(0.1, 0.0)


class TestBlochQubit:
    def test_excited_pole(self):
        rho = bloch_qubit(BlochParams(1.0, np.pi / 2, 0.0))
        assert_allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_matched_population_state(self):
        rho = bloch_qubit(BlochParams(5.0 / 6.0, -np.pi / 2, 0.0))
        assert_allclose(rho.mat, np.diag([1.0 / 12.0, 11.0 / 12.0]), atol=1e-15)

    def test_equator_eigenvalues(self):
        # (I + 0.5 sigma_x)/2 diagonalizes by hand to (0.25, 0.75)
        rho = bloch_qubit(BlochParams(0.5, 0.0, 0.0))
        assert_allclose(rho.eigenvalues, [0.25, 0.75], atol=1e-14)

    def test_rejects_outside_ball(self):
        with pytest.raises(InvalidParameter):
            BlochParams(1.2, 0.0, 0.0)
        with pytest.raises(InvalidParameter):
            BlochParams(0.0, 0.0, 0.0)
        with pytest.raises(InvalidParameter):
            BlochParams(0.5, 2.0, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=-np.pi / 2, max_value=np.pi / 2),
        st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    )
    def test_eigenvalues_depend_only_on_r(self, r, theta, phi):
        rho = bloch_qubit(BlochParams(r, theta, phi))
        assert_allclose(rho.eigenvalues, [(1 - r) / 2, (1 + r) / 2], atol=1e-14)

    def test_excited_population(self):
        p = BlochParams(0.6, 0.3, 1.0)
        rho = bloch_qubit(p)
        assert_allclose(rho.mat[0, 0].real, (1 + 0.6 * np.sin(0.3)) / 2, atol=1e-15)


class TestProductAndPartialTrace:
    def test_pure_product_single_entry(self):
        atom = bloch_qubit(BlochParams(1.0, np.pi / 2, 0.0))
        joint = product_state(atom, thermal_field(0.0, 3))
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.0
        assert_allclose(joint.mat, expected, atol=1e-15)

    def test_trace_one(self, rng):
        from conftest import random_density

        atom = random_density(rng, 2)
        field = thermal_field(0.8, 7)
        joint = product_state(atom, field)
        assert abs(np.trace(joint.mat) - 1.0) < 1e-14

    def test_roundtrip_recovers_factors(self, rng):
        from conftest import random_density

        atom = random_density(rng, 2)
        field = thermal_field(0.5, 6)
        joint = product_state(atom, field)
        back_atom = partial_trace(joint, "atom")
        back_field = partial_trace(joint, "field")
        assert np.abs(back_atom.mat - atom.mat).max() < 1e-14
        assert np.abs(back_field.mat - field.density_matrix().mat).max() < 1e-14

    def test_bell_partials_maximally_mixed(self):
        f_dim = 5
        psi = np.zeros(2 * f_dim, dtype=complex)
        psi[0] = 1 / np.sqrt(2)          # |e,0>
        psi[f_dim + 1] = 1 / np.sqrt(2)  # |g,1>
        joint = validate_density(np.outer(psi, psi.conj()), (2, f_dim))
        atom = partial_trace(joint, "atom")
        assert_allclose(atom.mat, np.eye(2) / 2, atol=1e-14)
        field = partial_trace(joint, "field")
        assert_allclose(field.mat[:2, :2], np.eye(2) / 2, atol=1e-14)
        assert np.abs(field.mat[2:, 2:]).max() < 1e-14

    def test_partial_trace_preserves_trace(self, rng):
        from conftest import random_density

        joint = random_density(rng, 12, dims=(2, 6))
        for keep in ("atom", "field"):
            assert abs(np.trace(partial_trace(joint, keep).mat) - 1.0) < 1e-13

    def test_requires_factorization(self, rng):
        from conftest import random_density

        rho = random_density(rng, 4)
        with pytest.raises(MissingFactorization):
            partial_trace(rho, "atom")


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2, (2,))
        assert_allclose(rho.eigenvalues, [0.5, 0.5])

    def test_not_positive(self):
        with pytest.raises(NotPositive) as info:
            validate_density(np.diag([1.5, -0.5]).astype(complex), (2,))
        assert info.value.min_eigenvalue == pytest.approx(-0.5)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.diag([0.6, 0.6]).astype(complex), (2,))

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_density(m, (2,))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.zeros((2, 3), dtype=complex), (2,))

    def test_rejects_non_finite(self):
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            validate_density(bad, (2,))

    def test_dims_must_factor(self):
        with pytest.raises(MissingFactorization):
            validate_density(np.eye(4) / 4, (2, 3))


def test_field_distribution_entropy_matches_closed_form():
    for n_bar in (0.1, 1.0):
        f = thermal_field(n_bar, auto_truncate(n_bar, 1e-14))
        closed = (n_bar + 1) * np.log(n_bar + 1) - n_bar * np.log(n_bar)
        assert abs(entropy_from_spectrum(f.probs) - closed) < 1e-10
