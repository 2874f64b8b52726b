import numpy as np
import pytest

from conftest import random_density
from dense_oracle import partial_trace, purity
from jcentropy import (
    AllStepsSkipped,
    BlochParams,
    EntropySeries,
    InvalidParameter,
    RangeViolation,
    bloch_qubit,
    entropy_from_spectrum,
    evolve,
    exchange_parameter,
    mutual_entropy_ratio,
    product_state,
    purity_rate_approx,
    purity_rate_exact,
    thermal_field,
    trajectory_data,
    validate_density,
)


def bell_joint(f_dim=5):
    psi = np.zeros(2 * f_dim, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[f_dim + 1] = 1 / np.sqrt(2)
    return validate_density(np.outer(psi, psi.conj()), (2, f_dim))


def series_from(s_atom, s_field):
    n = len(s_atom)
    ones = np.ones(n)
    return EntropySeries(
        t=np.arange(n, dtype=float),
        s_atom=np.asarray(s_atom, dtype=float),
        s_field=np.asarray(s_field, dtype=float),
        s_joint=np.zeros(n),
        purity_atom=ones,
        purity_field=ones,
    )


def at_start(atom, field=None):
    """The trajectory columns of atom (x) field (vacuum by default) at t = 0."""
    joint = product_state(atom, field if field is not None else thermal_field(0.0, 1))
    return trajectory_data(joint, [0.0])


def conditional_and_mutual(joint, t_grid=(0.0,)):
    """S(atom|field) = S_af - S_f and S(atom:field) = S_a + S_f - S_af per sample."""
    data = trajectory_data(joint, np.asarray(t_grid))
    return data.s_joint - data.s_field, data.s_atom + data.s_field - data.s_joint


class TestVonNeumann:
    def test_pure_state_zero(self, rng):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        rho = validate_density(np.outer(psi, psi.conj()), (6,))
        assert abs(entropy_from_spectrum(rho.eigenvalues)) < 1e-12

    def test_maximally_mixed_qubit(self):
        rho = validate_density(np.eye(2) / 2, (2,))
        assert abs(entropy_from_spectrum(rho.eigenvalues) - np.log(2)) < 1e-12

    def test_thermal_field_direct_sum_oracle(self):
        field = thermal_field(0.1, 13)
        oracle = -sum(p * np.log(p) for p in field.probs if p > 1e-14)
        assert abs(entropy_from_spectrum(field.density_matrix().eigenvalues) - oracle) < 1e-12
        closed = 1.1 * np.log(1.1) - 0.1 * np.log(0.1)
        assert abs(entropy_from_spectrum(field.density_matrix().eigenvalues) - closed) < 1e-10


class TestPurity:
    """The partial purities ``trajectory_data`` reads off the pair blocks."""

    def test_pure(self, rng):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        data = at_start(validate_density(np.outer(a, a.conj()), (2,)))
        assert abs(data.purity_atom[0] - 1.0) < 1e-13
        assert abs(data.purity_field[0] - 1.0) < 1e-13

    def test_maximally_mixed(self):
        data = at_start(validate_density(np.eye(2) / 2, (2,)))
        assert data.purity_atom[0] == pytest.approx(0.5)

    def test_two_level_hand_value(self):
        data = at_start(validate_density(np.diag([1 / 12, 11 / 12]).astype(complex), (2,)))
        assert data.purity_atom[0] == pytest.approx(122.0 / 144.0, abs=1e-15)

    def test_tracks_entropy_inversely(self, rng):
        data = at_start(random_density(rng, 2))
        assert (data.purity_atom[0] == pytest.approx(1.0, abs=1e-10)) == (
            data.s_atom[0] == pytest.approx(0.0, abs=1e-10)
        )


class TestConditionalAndMutual:
    """Conditional and mutual entropy from the entropy columns of a trajectory."""

    def test_product_state(self, rng):
        atom = random_density(rng, 2)
        cond, mutual = conditional_and_mutual(product_state(atom, thermal_field(0.3, 6)))
        assert abs(cond[0] - entropy_from_spectrum(atom.eigenvalues)) < 1e-10
        assert abs(mutual[0]) < 1e-10

    def test_bell_values(self):
        cond, mutual = conditional_and_mutual(bell_joint())
        assert abs(cond[0] + np.log(2)) < 1e-12
        assert abs(mutual[0] - 2 * np.log(2)) < 1e-12

    def test_stationary_in_time_at_matched_populations(self, field01):
        atom = validate_density(np.diag([1 / 12, 11 / 12]).astype(complex), (2,))
        cond, _ = conditional_and_mutual(product_state(atom, field01), (0.0, 2.0, 8.0))
        assert cond.max() - cond.min() < 1e-10

    def test_mutual_nonnegative(self, rng):
        for _ in range(5):
            joint = random_density(rng, 12, dims=(2, 6))
            assert conditional_and_mutual(joint)[1][0] > -1e-10

    def test_mutual_bounded(self, rng):
        for _ in range(5):
            joint = random_density(rng, 8, dims=(2, 4))
            upper = 2 * min(
                entropy_from_spectrum(partial_trace(joint, "atom").eigenvalues),
                entropy_from_spectrum(partial_trace(joint, "field").eigenvalues),
            )
            assert conditional_and_mutual(joint)[1][0] <= upper + 1e-10


class TestExchangeParameter:
    def test_perfect_exchange(self):
        s = 1.5 + 0.5 * np.sin(np.linspace(0.1, 6, 40))
        result = exchange_parameter(series_from(s, 3.0 - s))
        assert result.p == -1.0
        assert result.used_steps == 39

    def test_perfect_cofluctuation(self):
        s = np.abs(np.sin(np.linspace(0, 6, 40))) + 0.5
        result = exchange_parameter(series_from(s, s))
        assert result.p == 1.0

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(7)
        a = 10 + np.cumsum(0.1 * rng.normal(size=60))
        b = 10 + np.cumsum(0.1 * rng.normal(size=60))
        forward = exchange_parameter(series_from(a, b))
        backward = exchange_parameter(series_from(b, a))
        assert forward.p == backward.p

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = 10 + np.cumsum(0.1 * rng.normal(size=30))
            b = 10 + np.cumsum(0.1 * rng.normal(size=30))
            result = exchange_parameter(series_from(a, b))
            assert -1.0 <= result.p <= 1.0
            assert result.used_steps + result.skipped_steps == 29

    def test_all_steps_skipped(self):
        flat = np.full(10, 0.7)
        with pytest.raises(AllStepsSkipped):
            exchange_parameter(series_from(flat, flat))

    def test_eps_skips_quiet_steps(self):
        a = np.array([0.0, 1e-12, 1.0, 2.0])
        b = np.array([0.0, -1e-12, -1.0, -2.0])
        result = exchange_parameter(series_from(a + 5, b + 5), eps=1e-9)
        assert result.skipped_steps == 1
        assert result.p == -1.0

    def test_needs_two_samples(self):
        with pytest.raises(InvalidParameter):
            exchange_parameter(series_from([1.0], [1.0]))


class TestMutualEntropyRatio:
    def test_stationary_product_is_zero(self, field01):
        atom = validate_density(np.diag([1 / 12, 11 / 12]).astype(complex), (2,))
        joint = product_state(atom, field01)
        data = trajectory_data(joint, np.arange(0.0, 3.0, 0.1))
        result = mutual_entropy_ratio(data)
        assert abs(result.r_bar) < 1e-9
        assert result.skipped_samples == 0

    def test_pure_entangled_sample_saturates(self):
        ln2 = np.log(2)
        series = series_from([ln2, ln2], [ln2, ln2])  # s_joint is zero
        result = mutual_entropy_ratio(series)
        assert result.r_bar == pytest.approx(2.0)

    def test_skips_vanishing_denominator(self):
        series = series_from([0.0, 0.5], [0.0, 0.5])
        result = mutual_entropy_ratio(series, eps=1e-9)
        assert result.used_samples == 1
        with pytest.raises(AllStepsSkipped):
            mutual_entropy_ratio(series_from([0.0], [0.0]))

    def test_ground_state_trajectory_stays_separable_grade(self, ground_joint):
        data = trajectory_data(ground_joint, np.arange(0.0, 25.0, 0.05))
        assert mutual_entropy_ratio(data).r_bar <= 1.0


class TestPurityRateExact:
    def test_zero_at_start(self, field01):
        assert purity_rate_exact("ground", field01, 0.0) == (0.0, 0.0)
        assert purity_rate_exact("excited", field01, 0.0) == (0.0, 0.0)

    def test_dark_state_flat(self):
        vac = thermal_field(0.0, 5)
        for t in (0.4, 2.2, 9.0):
            assert purity_rate_exact("ground", vac, t) == (0.0, 0.0)

    @pytest.mark.parametrize("initial", ["ground", "excited"])
    def test_finite_difference_oracle(self, initial, field01):
        # centered finite differences of the evolved partial purities
        theta = -np.pi / 2 if initial == "ground" else np.pi / 2
        joint = product_state(bloch_qubit(BlochParams(1.0, theta)), field01)
        h = 1e-4
        for t in (0.3, 1.1, 2.4, 6.7):
            rates = purity_rate_exact(initial, field01, t)
            fd = []
            for sign in (+1, -1):
                out = evolve(joint, t + sign * h)
                fd.append(
                    (
                        purity(partial_trace(out, "atom")),
                        purity(partial_trace(out, "field")),
                    )
                )
            for k in range(2):
                numeric = (fd[0][k] - fd[1][k]) / (2 * h)
                assert abs(numeric - rates[k]) < 1e-6 * max(1.0, abs(rates[k]))

    def test_rejects_unknown_initial(self, field01):
        with pytest.raises(InvalidParameter):
            purity_rate_exact("sideways", field01, 1.0)


class TestPurityRateApprox:
    def test_amplitudes_at_weak_excitation(self):
        # P0*P1 = 0.0751 and P0^2 = 0.8264 to the quoted four decimals
        atom_rate, field_rate = purity_rate_approx("ground", 0.1, np.pi / 4)
        assert abs(abs(atom_rate) - 0.1502) < 1e-4
        atom_rate, _ = purity_rate_approx("excited", 0.1, np.pi / 8)
        assert abs(abs(atom_rate) - 0.8264) < 1e-4

    def test_ground_antisymmetry_exact(self):
        for t in np.linspace(0.0, 3.0, 17):
            atom_rate, field_rate = purity_rate_approx("ground", 0.1, t)
            assert atom_rate == -field_rate

    def test_excited_rates_identical(self):
        for t in np.linspace(0.0, 3.0, 17):
            atom_rate, field_rate = purity_rate_approx("excited", 0.1, t)
            assert atom_rate == field_rate

    # the ground case carries the quantitative claim; for the excited case the
    # dropped terms are ~P1/P0 relative, so only a loose sanity bound applies
    @pytest.mark.parametrize("initial,rms_bound", [("ground", 0.15), ("excited", 0.30)])
    def test_leading_term_accuracy(self, initial, rms_bound, field01):
        ts = np.arange(0.0, 3.0001, 0.01)
        exact = np.array([purity_rate_exact(initial, field01, t) for t in ts])
        approx = np.array([purity_rate_approx(initial, 0.1, t) for t in ts])
        err = np.sqrt(((exact[:, 0] - approx[:, 0]) ** 2).mean())
        scale = np.sqrt((exact[:, 0] ** 2).mean())
        assert err / scale < rms_bound


class TestEntropySeriesValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            EntropySeries(
                t=np.array([0.0, 1.0]),
                s_atom=np.array([0.0]),
                s_field=np.zeros(2),
                s_joint=np.zeros(2),
                purity_atom=np.ones(2),
                purity_field=np.ones(2),
            )

    def test_negative_entropy_rejected(self):
        # a computed fault, even in a series built from the caller's own arrays
        with pytest.raises(RangeViolation, match=r"s_atom reaches -1\.000e-06"):
            EntropySeries(
                t=np.array([0.0, 1.0]),
                s_atom=np.array([0.0, -1e-6]),
                s_field=np.zeros(2),
                s_joint=np.zeros(2),
                purity_atom=np.ones(2),
                purity_field=np.ones(2),
            )
