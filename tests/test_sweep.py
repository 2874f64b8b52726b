import re

import numpy as np
import pytest

from conftest import dsbev_failing
from jcentropy import (
    InsufficientMemory,
    InvalidParameter,
    dynamics,
    SweepGrid,
    default_grid,
    fixed_point,
    run_sweep,
)
from jcentropy import states, sweep


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

    @pytest.mark.parametrize("n_bar", [1e12, 4.5e15, 1e17, 1e300])
    def test_length_does_not_cancel(self, n_bar):
        # 2 P_ground - 1 lost digits from 1e12 on and rounded to 0 from about 4.5e15
        assert fixed_point(n_bar).r == 1.0 / (2.0 * n_bar + 1.0) > 0.0

    def test_refuses_n_bar_whose_length_rounds_to_zero(self):
        with pytest.raises(InvalidParameter, match=re.escape("n_bar=1e+308 is too large")):
            fixed_point(1e308)


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

    def test_memory_preflight_counts_workers(self, monkeypatch):
        # room for one trajectory but not two: the pool is refused, one worker runs
        grid = small_grid(r_values=np.array([0.9]), t_grid=np.arange(0.0, 1.0, 0.1))
        one = dynamics.peak_bytes(grid.n_f + 2)
        monkeypatch.setattr(dynamics, "machine_bytes", lambda: one + one // 2)
        with pytest.raises(InsufficientMemory):
            run_sweep(grid, ("exchange",), workers=2)
        assert len(run_sweep(grid, ("exchange",), workers=1)) == 3

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

    def test_rejects_empty_diagnostics(self):
        # no diagnostic would give a map of zeros with every cell ok
        with pytest.raises(InvalidParameter, match="diagnostics"):
            run_sweep(small_grid(), (), workers=1)

    @pytest.mark.parametrize("value", [np.nan, 0.0], ids=str)
    @pytest.mark.parametrize("diagnostic,knob", [("exchange", "eps"), ("mutual", "eps"),
                                                 ("ppt", "artifact_threshold")])
    def test_bad_threshold_is_refused_before_any_cell(self, diagnostic, knob, value,
                                                      monkeypatch):
        # NaN passes a `<= 0` check, then skips every step or hides every negative
        # eigenvalue; a map of error cells is no refusal either
        def no_cell(*_, **__):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(dynamics, "trajectory_data", no_cell)
        with pytest.raises(InvalidParameter, match=f"{knob}={value} must be positive"):
            run_sweep(small_grid(), (diagnostic,), workers=1, **{knob: value})

    def test_one_sample_grid_refuses_exchange_only(self):
        # each cell read error:InvalidParameter; mutual and ppt have a value at one sample
        grid = small_grid(t_grid=np.zeros(1))
        with pytest.raises(InvalidParameter, match="exchange: t_grid needs at least two"):
            run_sweep(grid, ("exchange", "mutual"), workers=1)
        cells = run_sweep(grid, ("mutual", "ppt"), workers=1)
        assert {c.status for c in cells} == {"ok"}

    def test_sterf_failure_is_cell_error(self, monkeypatch):
        # every cell solves its field spectra with dsbev at half-bandwidth 1
        monkeypatch.setattr(states, "_dsbev", dsbev_failing(kd=1))
        cells = run_sweep(small_grid(), ("exchange",), workers=1)
        assert {c.status for c in cells} == {"error:NoConvergence"}

    def test_sbev_failure_is_spot_cell_error(self, monkeypatch):
        # only the spot-checked cell 0 solves the joint band, at half-bandwidth 3
        monkeypatch.setattr(states, "_dsbev", dsbev_failing(kd=3))
        cells = run_sweep(small_grid(), ("exchange",), workers=1)
        assert cells[0].status == "error:NoConvergence"
        assert all(c.status == "ok" for c in cells[1:])

    def test_rejects_bad_workers(self):
        with pytest.raises(InvalidParameter):
            run_sweep(small_grid(), ("exchange",), workers=0)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """A stand-in ``multiprocessing.Pool`` that records its size and maps in this process."""
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *_):
                return False

            def map(self, func, iterable, chunksize=1):
                return list(map(func, iterable))

        monkeypatch.setattr(sweep.multiprocessing, "Pool", RecordingPool)
        return sizes

    def test_pool_never_outnumbers_the_cells(self, pool_sizes, monkeypatch):
        # workers=1000 asked for 1000 processes for 9 cells
        grid = default_grid(0.1, 4, (3, 3), 1.0, 0.1)
        counted = []
        require_memory = dynamics.require_memory

        def counting(f_dim, workers=1, samples=0, extra=0):
            counted.append(workers)
            return require_memory(f_dim, workers, samples, extra)

        monkeypatch.setattr(dynamics, "require_memory", counting)
        assert len(run_sweep(grid, workers=1000)) == 9
        assert pool_sizes == [9] and counted == [9]

    def test_one_cell_builds_no_pool(self, pool_sizes):
        assert len(run_sweep(small_grid(r_values=np.array([0.9]), theta_values=np.zeros(1)),
                             ("exchange",), workers=4)) == 1
        assert pool_sizes == []

    def test_every_cell_starts_in_the_grid_field(self, monkeypatch):
        # the field is built once, by the grid, not once per cell
        grid = small_grid()
        received = []
        build = sweep.product_state

        def recording(atom, field_state):
            received.append(field_state)
            return build(atom, field_state)

        def no_field(*_):
            raise AssertionError("a cell built its own field")

        monkeypatch.setattr(sweep, "product_state", recording)
        monkeypatch.setattr(sweep, "thermal_field", no_field)
        run_sweep(grid, ("exchange",), workers=1)
        assert len(received) == grid.n_cells
        assert all(field is grid.field for field in received)


class TestGridValidation:
    def test_axes_must_increase(self):
        with pytest.raises(InvalidParameter):
            small_grid(r_values=np.array([0.9, 0.3]))

    @pytest.mark.parametrize("axis", ["theta_values", "r_values"])
    def test_axes_must_be_finite(self, axis):
        # a NaN passed every range check, and then its cells refused the Bloch vector
        with pytest.raises(InvalidParameter, match=f"{axis} must be finite"):
            small_grid(**{axis: np.array([np.nan])})

    @pytest.mark.parametrize("t_grid", [[0.5, 1.0, 1.5], [0.0, 1.0, 0.5], [], [[0.0, 1.0]],
                                        [0.0, np.nan], [0.0, 1.0, np.inf]])
    def test_time_grid_refused_as_the_engine_refuses_it(self, t_grid):
        # not accepted here and then refused in every cell
        with pytest.raises(InvalidParameter, match="t_grid"):
            small_grid(t_grid=np.array(t_grid))

    @pytest.mark.parametrize("field", [{"n_f": 0}, {"n_bar": -0.5}, {"n_bar": np.nan},
                                       {"n_bar": np.inf}], ids=str)
    def test_field_refused_at_construction(self, field):
        # not accepted here and then refused in every cell
        with pytest.raises(InvalidParameter, match="n_f|n_bar"):
            small_grid(**field)

    @pytest.mark.parametrize("build", [lambda: states.thermal_field(0.1, 2.5),
                                       lambda: small_grid(n_f=2.5)],
                             ids=["thermal_field", "SweepGrid"])
    def test_fractional_n_f_is_refused(self, build):
        # int() truncated it to 2: the grid recorded a cutoff that no cell ran
        with pytest.raises(InvalidParameter, match=re.escape("n_f=2.5 must be an integer")):
            build()

    def test_radius_bounds(self):
        with pytest.raises(InvalidParameter):
            small_grid(r_values=np.array([0.0, 0.5]))
        with pytest.raises(InvalidParameter):
            small_grid(r_values=np.array([0.5, 1.1]))

    def test_default_grid_refuses_empty_resolution(self):
        with pytest.raises(InvalidParameter, match=re.escape("grid resolution (-1, 3)")):
            default_grid(0.1, 4, (-1, 3), 1.0, 0.1)

    def test_default_grid_shape(self):
        grid = default_grid(0.1, 13, resolution=(11, 7), t_max=2.0, dt=0.1)
        assert grid.n_cells == 77
        assert grid.t_grid[0] == 0.0
        assert grid.r_values[0] == pytest.approx(0.02)
        assert grid.r_values[-1] == 1.0
