import dataclasses

import numpy as np
import pytest

from jcentropy import (
    InvalidParameter,
    dynamics,
    SweepGrid,
    default_grid,
    exchange_region,
    fixed_point,
    run_sweep,
)


def small_grid(**overrides):
    base = dict(
        theta_values=np.linspace(-np.pi / 2, np.pi / 2, 3),
        r_values=np.array([0.3, 0.9]),
        n_bar=0.1,
        n_f=9,
        t_grid=np.arange(0.0, 5.0, 0.05),
    )
    base.update(overrides)
    return SweepGrid(**base)


class TestFixedPoint:
    def test_weak_field_location(self):
        params = fixed_point(0.1)
        assert params.r == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert params.theta == -np.pi / 2
        assert params.phi == 0.0

    def test_half_excited(self):
        # P_e/P_g = 1/3 solves the ratio condition at n_bar = 0.5
        assert fixed_point(0.5).r == pytest.approx(0.5, abs=1e-12)

    def test_zero_temperature_limit(self):
        assert fixed_point(1e-9).r == pytest.approx(1.0, abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameter):
            fixed_point(0.0)
        with pytest.raises(InvalidParameter):
            fixed_point(-1.0)


class TestRunSweep:
    def test_theta_major_ordering(self):
        grid = small_grid()
        cells = run_sweep(grid, ("exchange",), workers=1)
        assert len(cells) == 6
        expected = [
            (th, r) for th in grid.theta_values for r in grid.r_values
        ]
        assert [(c.theta, c.r) for c in cells] == expected

    def test_deterministic_across_workers(self):
        grid = small_grid()
        one = run_sweep(grid, ("exchange", "mutual", "ppt"), workers=1)
        two = run_sweep(grid, ("exchange", "mutual", "ppt"), workers=2)
        assert one == two

    def test_fixed_point_cell_skipped(self):
        params = fixed_point(0.1)
        grid = SweepGrid(
            theta_values=np.array([params.theta]),
            r_values=np.array([params.r]),
            n_bar=0.1,
            n_f=13,
            t_grid=np.arange(0.0, 3.0, 0.05),
        )
        (cell,) = run_sweep(grid, ("exchange", "mutual"), workers=1)
        assert cell.p is None
        assert "exchange_skipped" in cell.status
        # the partial entropies stay finite, so the mutual ratio is defined
        assert cell.r_bar == pytest.approx(0.0, abs=1e-9)

    def test_diagnostics_subset(self):
        grid = small_grid()
        cells = run_sweep(grid, ("exchange",), workers=1)
        for c in cells:
            assert c.p is not None
            assert c.r_bar is None and c.e is None
            assert c.n_significant_negatives == 0

    def test_exchange_and_negativity_structure(self):
        # near-ground cell exchanges entropy and stays PPT-clean; the
        # excited-side cell at the same radius shows genuine negativity
        grid = SweepGrid(
            theta_values=np.array([-np.pi / 2, np.pi / 2]),
            r_values=np.array([0.9]),
            n_bar=0.1,
            n_f=13,
            t_grid=np.arange(0.0, 25.0, 0.05),
        )
        low, high = run_sweep(grid, ("exchange", "mutual", "ppt"), workers=1)
        assert low.p < -0.8
        assert low.n_significant_negatives == 0
        assert low.e == float("-inf")
        assert low.r_bar <= 1.0
        assert high.p > 0.0
        assert high.n_significant_negatives >= 1
        assert high.e > -15.0

    def test_rejects_unknown_diagnostic(self):
        with pytest.raises(InvalidParameter):
            run_sweep(small_grid(), ("exchange", "sideways"), workers=1)

    def test_excitation_drift_is_cell_error(self, monkeypatch):
        # cell 0 is spot-checked; a drifting excitation number marks it only
        real = dynamics.trajectory_data

        def drifting(*args, **kwargs):
            data = real(*args, **kwargs)
            if not kwargs["full_verification"]:
                return data
            drift = data.n_expectation + np.linspace(0.0, 1e-9, len(data))
            return dataclasses.replace(data, n_expectation=drift)

        monkeypatch.setattr(dynamics, "trajectory_data", drifting)
        cells = run_sweep(small_grid(), ("exchange",), workers=1)
        assert cells[0].status == "error:ConservationViolation"
        assert cells[0].p is None
        assert all(c.status == "ok" for c in cells[1:])

    def test_solver_failure_is_cell_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        cells = run_sweep(small_grid(), ("exchange",), workers=1)
        assert {c.status for c in cells} == {"error:NoConvergence"}

    def test_rejects_bad_workers(self):
        with pytest.raises(InvalidParameter):
            run_sweep(small_grid(), ("exchange",), workers=0)


class TestExchangeRegion:
    def test_selects_by_cutoff(self):
        grid = SweepGrid(
            theta_values=np.array([-np.pi / 2, np.pi / 2]),
            r_values=np.array([0.9]),
            n_bar=0.1,
            n_f=9,
            t_grid=np.arange(0.0, 10.0, 0.05),
        )
        cells = run_sweep(grid, ("exchange",), workers=1)
        assert exchange_region(cells, -1.01) == []
        selected = exchange_region(cells, -0.8)
        assert len(selected) == 1 and selected[0].theta == -np.pi / 2
        everything = exchange_region(cells, 1.0)
        assert len(everything) == len([c for c in cells if c.p is not None])


class TestGridValidation:
    def test_axes_must_increase(self):
        with pytest.raises(InvalidParameter):
            small_grid(r_values=np.array([0.9, 0.3]))

    def test_radius_bounds(self):
        with pytest.raises(InvalidParameter):
            small_grid(r_values=np.array([0.0, 0.5]))
        with pytest.raises(InvalidParameter):
            small_grid(r_values=np.array([0.5, 1.1]))

    def test_default_grid_shape(self):
        grid = default_grid(0.1, 13, resolution=(11, 7), t_max=2.0, dt=0.1)
        assert grid.n_cells == 77
        assert grid.t_grid[0] == 0.0
        assert grid.r_values[0] == pytest.approx(0.02)
        assert grid.r_values[-1] == 1.0
