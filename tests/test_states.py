import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from dense_oracle import partial_trace
from jcentropy import (
    BlochParams,
    DimensionMismatch,
    EntropySeries,
    InvalidParameter,
    MissingFactorization,
    NoConvergence,
    NotHermitian,
    NotPositive,
    RangeViolation,
    SweepGrid,
    TraceNotOne,
    auto_truncate,
    bloch_qubit,
    eigvalsh,
    entropy_from_spectrum,
    fixed_point,
    product_state,
    purity_rate_approx,
    thermal_field,
    validate_density,
)
from jcentropy import states
from jcentropy.states import banded_eigvalsh, lapack_solver, truncation_floor

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


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
        assert auto_truncate(0.0) == 1

    def test_weak_field_frozen_value(self):
        # independently re-derived by the scan oracle below
        assert auto_truncate(0.1) == 13

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

        assert auto_truncate(0.1) == oracle(0.1, 1e-14)
        assert auto_truncate(0.5) == oracle(0.5, 1e-14)

    @pytest.mark.parametrize(
        "n_bar,n_f", [(0.0, 1), (0.1, 13), (1.0, 46), (3.0, 112), (10.0, 338), (100.0, 3070)]
    )
    def test_bit_identical_to_sequential_loop(self, n_bar, n_f):
        # the one-pass prefix scan keeps the cutoffs and bytes of the per-level loop
        def loop_probs(k):
            probs = np.zeros(k + 2)
            probs[0] = 1.0 / (n_bar + 1.0)
            for n in range(k):
                probs[n + 1] = probs[n] * (n_bar / (n_bar + 1.0))
            probs[k + 1] = max(0.0, 1.0 - probs[: k + 1].sum())
            return probs

        assert auto_truncate(n_bar) == n_f
        for k in (0, 1, 13, 63, 64, 65, n_f):
            assert thermal_field(n_bar, k).probs.tobytes() == loop_probs(k).tobytes()

    def test_monotone_in_mean_photon_number(self):
        assert auto_truncate(10.0) > auto_truncate(0.1)

    # random draws stay where the quadratic scan is cheap; n_bar = 1000 is an example
    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0**e))
    @example(0.0)
    @example(1000.0)
    @example(1.0535688686918734)  # the floor without its margin exceeds the pick here
    def test_floor_never_exceeds_pick(self, n_bar):
        assert 1 <= truncation_floor(n_bar) <= auto_truncate(n_bar)

    def test_floor_values(self):
        assert [truncation_floor(n) for n in (0.0, 0.1, 1.0, 1000.0)] == [1, 12, 43, 26022]
        with pytest.raises(InvalidParameter):
            truncation_floor(-0.1)

    def test_converged_tail_is_negligible(self):
        n_f = auto_truncate(0.1)
        assert thermal_field(0.1, n_f).tail_mass < 1e-14


@pytest.mark.parametrize("n_bar", [np.nan, np.inf, -0.1], ids=str)
@pytest.mark.parametrize("call", [
    lambda n_bar: thermal_field(n_bar, 5),
    auto_truncate,
    truncation_floor,
    lambda n_bar: purity_rate_approx("ground", n_bar, 1.0),
    lambda n_bar: SweepGrid(np.zeros(1), np.ones(1), n_bar, 4, np.zeros(1)),
    fixed_point,
], ids=["thermal_field", "auto_truncate", "truncation_floor", "purity_rate_approx",
        "SweepGrid", "fixed_point"])
def test_n_bar_domain_has_one_check(call, n_bar):
    # `n_bar < 0` is false for NaN: past it come NaN probabilities, n_f = 1, NaN rates
    with pytest.raises(InvalidParameter, match=re.escape(f"n_bar={n_bar} must be finite and")):
        call(n_bar)


# Refusals that no other test reaches, each with its error and how its message starts.
REFUSALS = {
    "BlochParams.phi": (lambda: BlochParams(0.5, 0.0, 2 * np.pi), InvalidParameter,
                        f"phi={2 * np.pi} outside [0, 2*pi)"),
    "SweepGrid.empty_axis": (lambda: SweepGrid(np.zeros(0), np.ones(1), 0.1, 4, np.zeros(1)),
                             InvalidParameter, "theta_values must be non-empty"),
    "SweepGrid.theta_values": (
        lambda: SweepGrid(np.array([0.0, 2.0]), np.ones(1), 0.1, 4, np.zeros(1)),
        InvalidParameter, "theta_values must lie in [-pi/2, pi/2]"),
    "banded_eigvalsh.ndim": (lambda: banded_eigvalsh(np.ones((3, 2))), DimensionMismatch,
                             "expected an (n, D, kd + 1) band stack, got shape (3, 2)"),
    "purity_rate_approx.initial": (lambda: purity_rate_approx("bogus", 0.1, 1.0),
                                   InvalidParameter, "initial must be 'ground' or 'excited'"),
    "EntropySeries.purity": (
        lambda: EntropySeries(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2),
                              np.array([1.0, 1.0 + 1e-9])),
        RangeViolation, "purity_field reaches 1.000e+00, outside (0, 1 + 1.0e-12]"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_its_input(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


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
        for value in (np.nan, np.inf, complex(0.5, np.inf)):
            bad = np.eye(2, dtype=complex) / 2
            bad[0, 0] = value
            with pytest.raises(InvalidParameter):
                validate_density(bad, (2,))

    def test_dims_must_factor(self):
        with pytest.raises(MissingFactorization):
            validate_density(np.eye(4) / 4, (2, 3))


def test_field_distribution_entropy_matches_closed_form():
    for n_bar in (0.1, 1.0):
        f = thermal_field(n_bar, auto_truncate(n_bar))
        closed = (n_bar + 1) * np.log(n_bar + 1) - n_bar * np.log(n_bar)
        assert abs(entropy_from_spectrum(f.probs) - closed) < 1e-10


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestHermitianEig:
    def test_pauli_z(self):
        assert_allclose(eigvalsh(SIGMA_Z), [-1.0, 1.0])

    def test_sorts_diagonal(self):
        w = eigvalsh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)

    def test_eigenvalue_sum_is_trace(self, rng):
        for n in (2, 5, 16):
            h = random_complex(rng, n)
            h = h + h.conj().T
            w = eigvalsh(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-10 * n

    def test_stack_matches_single(self, rng):
        stack = np.stack([random_complex(rng, 5) for _ in range(3)])
        stack = stack + stack.conj().transpose(0, 2, 1)
        batched = eigvalsh(stack)
        for k in range(3):
            assert np.array_equal(batched[k], eigvalsh(stack[k]))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            eigvalsh(SIGMA_Z)


@st.composite
def hermitian_matrices(draw, max_dim=8):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    vals = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
    flat = np.array(vals[: n * n]) + 1j * np.array(vals[n * n :])
    m = flat.reshape(n, n)
    return m + m.conj().T


@settings(max_examples=50, deadline=None)
@given(hermitian_matrices())
def test_eigenvalues_real_ascending_and_sum_to_trace(h):
    w = eigvalsh(h)
    assert np.all(np.diff(w) >= -1e-12)
    assert abs(w.sum() - np.trace(h).real) < 1e-10 * h.shape[0]


# 0, a few repeated values, or magnitudes of at least 1e-100, far above the largest
# entries, below about 1e-146, at which LAPACK's drivers rescale a matrix
solver_entries = (st.sampled_from([0.0, 1.0, -0.5])
                  | st.floats(-1e3, 1e3).map(lambda v: v if abs(v) >= 1e-100 else 0.0))


# LAPACK's dsbev as found in numpy's LAPACK; without it banded_eigvalsh solves dense
dsbev_found = pytest.param("found", marks=pytest.mark.skipif(
    states._dsbev() is None, reason="numpy's LAPACK has no dsbev"))


@st.composite
def band_stacks(draw, kd=st.integers(0, 3), max_dim=100):
    """Real symmetric band matrices of half-bandwidth ``kd`` in lower band storage,
    (n, D, kd + 1); the entries past the last row are drawn too, and must not be read."""
    dim, kd, n = draw(st.integers(1, max_dim)), draw(kd), draw(st.integers(1, 3))
    return draw(hnp.arrays(np.float64, (n, dim, kd + 1), elements=solver_entries))


def dense_of(band):
    """The (n, D, D) symmetric matrices whose lower band storage is ``band``."""
    dim = band.shape[1]
    dense = np.zeros((band.shape[0], dim, dim))
    for offset in range(min(band.shape[2], dim)):
        i = np.arange(dim - offset)
        dense[:, i + offset, i] = dense[:, i, i + offset] = band[:, : dim - offset, offset]
    return dense


@pytest.mark.parametrize("handle", [dsbev_found])
@settings(max_examples=50, deadline=None)
@given(band_stacks(kd=st.just(1), max_dim=80))
# repeated eigenvalues, past LAPACK's crossover to a blocked dense reduction at 32
@example(np.stack([np.r_[np.ones(24), np.full(24, 0.5)], np.zeros(48)], 1)[None])
def test_tridiagonal_eigvalsh_equals_eigvalsh(handle, band):
    # the reduced field's solve: at kd = 1 dsbev runs the same dsterf as the dense eigvalsh
    w = banded_eigvalsh(band)
    assert np.array_equal(w, np.linalg.eigvalsh(dense_of(band)))


@pytest.mark.parametrize("handle", [dsbev_found])
@settings(max_examples=50, deadline=None)
@given(band_stacks())
# 48 copies of [[1, 0.5], [0.5, 1]]: eigenvalues 0.5 and 1.5, each 48 times
@example(np.stack([np.ones(96), np.tile([0.5, 0.0], 48), np.zeros(96), np.zeros(96)], 1)[None])
def test_banded_eigvalsh_matches_eigvalsh(handle, band):
    w = banded_eigvalsh(band)
    dense = dense_of(band)
    norm = np.linalg.norm(dense, 2, axis=(1, 2))
    assert np.all(np.abs(w - np.linalg.eigvalsh(dense)).max(axis=1) <= 1e-13 * norm)


def test_banded_eigvalsh_without_dsbev_is_dense_eigvalsh(rng):
    # a missing routine is no computed fault: each band is solved as the dense matrix it
    # stores, bit for bit, and the entries past the last row are still not read
    with mock.patch.object(states, "_dsbev", lambda: None):
        assert lapack_solver() == "eigvalsh"
        for dim, kd in [(1, 0), (5, 1), (7, 3), (2, 3), (40, 2)]:
            band = rng.normal(size=(3, dim, kd + 1))
            assert np.array_equal(banded_eigvalsh(band), np.linalg.eigvalsh(dense_of(band)))


def test_dsbev_found_in_bundled_openblas():
    # a symbol renamed in a future numpy fails here rather than falling back unseen
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack}, not its bundled OpenBLAS")
    assert states._dsbev() is not None
    assert lapack_solver() == "dsbev"
