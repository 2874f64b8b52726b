import json
import time

import numpy as np
import pytest

from jcentropy import cli, dynamics
from jcentropy.states import lapack_solver


SIDECAR_KEYS = {"config", "chosen_n_f", "tail_mass", "wall_time_s", "workers", "rows",
                "band_solver", "numpy"}


def run(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestFixedPointCommand:
    def test_weak_field(self, capsys):
        assert run(["fixed-point", "--n-bar", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == pytest.approx(5 / 6, abs=1e-12)
        assert payload["theta"] == pytest.approx(-np.pi / 2)
        assert payload["P_e"] == pytest.approx(1 / 12, abs=1e-12)
        assert payload["P_g"] == pytest.approx(11 / 12, abs=1e-12)

    def test_half_excited(self, capsys):
        assert run(["fixed-point", "--n-bar", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["r"] == pytest.approx(0.5)

    def test_rejects_zero(self, capsys):
        assert run(["fixed-point", "--n-bar", "0"]) == 2


class TestEvolveCommand:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(
            ["evolve", "--n-bar", "0.1", "--n-f", "8", "--atom", "ground",
             "--t-max", "2.0", "--dt", "0.01", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.EVOLVE_HEADER
        assert len(rows) == 201
        for row in rows:
            assert len(row) == 12
            values = [float(x) for x in row]
            assert all(np.isfinite(values))
        # the change columns are consistent with the absolute columns
        first, last = rows[0], rows[-1]
        assert float(first[4]) == 0.0
        assert float(last[6]) == pytest.approx(float(last[4]) + float(last[5]), abs=1e-16)

    def test_ground_state_exchanges_entropy(self, tmp_path):
        out = tmp_path / "fig.csv"
        run(["evolve", "--n-bar", "0.1", "--n-f", "13", "--atom", "ground",
             "--t-max", "5.0", "--dt", "0.01", "--out", str(out)])
        _, rows = read_csv(out)
        ds_a = np.array([float(r[4]) for r in rows])
        ds_f = np.array([float(r[5]) for r in rows])
        # anti-correlated increments over the window
        assert np.corrcoef(np.diff(ds_a), np.diff(ds_f))[0, 1] < -0.5

    def test_stationary_input_flat_columns(self, tmp_path):
        out = tmp_path / "flat.csv"
        r = 1.0 / 1.2  # population ratio matched to n_bar = 0.1
        code = run(
            ["evolve", "--n-bar", "0.1", "--n-f", "13",
             "--atom", f"r={r!r},theta=-1.5707963267948966",
             "--t-max", "3.0", "--dt", "0.05", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        for row in rows:
            assert abs(float(row[4])) < 1e-10
            assert abs(float(row[5])) < 1e-10

    def test_sidecar_metadata(self, tmp_path):
        out = tmp_path / "meta.csv"
        run(["evolve", "--n-bar", "0.1", "--atom", "excited",
             "--t-max", "1.0", "--dt", "0.1", "--out", str(out)])
        meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
        assert meta["chosen_n_f"] == 13  # auto truncation at n_bar = 0.1
        assert meta["tail_mass"] < 1e-14
        assert meta["rows"] == 11
        assert "wall_time_s" in meta
        # the echo holds exactly the settings evolve takes
        assert set(meta["config"]) == {
            "n_bar", "n_f", "atom", "t_max", "dt", "artifact_threshold", "out",
        }
        assert meta["config"]["atom"] == "excited"
        assert meta["workers"] == 1
        assert set(meta) == SIDECAR_KEYS
        assert meta["band_solver"] == lapack_solver()
        assert meta["numpy"] == np.__version__

    @pytest.mark.parametrize("key,value", [("eps", "1e-9"), ("workers", "2")])
    def test_rejects_sweep_only_options(self, key, value, tmp_path, capsys):
        # evolve has no entropy-change threshold and runs in one process
        out = str(tmp_path / "x.csv")
        with pytest.raises(SystemExit) as exc:
            run(["evolve", f"--{key}", value, "--out", out])
        assert exc.value.code == 2
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        assert run(["evolve", "--config", str(config), "--out", out]) == 2
        assert f"unknown key {key!r} for evolve" in capsys.readouterr().err

    def test_missing_out_is_config_error(self):
        assert run(["evolve", "--n-bar", "0.1"]) == 2

    def test_bad_atom_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["evolve", "--atom", "r=2.0,theta=0", "--out", str(out)]) == 2
        assert run(["evolve", "--atom", "r=0.5,tilt=1", "--out", str(out)]) == 2


def test_memory_preflight_exits_config(tmp_path, monkeypatch, capsys):
    # refused before any state is built; no output is written
    monkeypatch.setattr(dynamics, "machine_bytes", lambda: 2**20)
    for command in ("evolve", "sweep"):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--n-f", "4", "--t-max", "0.2", "--dt", "0.1",
                    "--out", str(out)]) == 2
        assert "estimated peak memory" in capsys.readouterr().err
        assert not out.exists()


def test_memory_preflight_refuses_before_the_field_is_built(tmp_path, monkeypatch, capsys):
    # an explicit n_f of a million built its 8 MB field, and only then was refused
    def build(*_):
        raise AssertionError("thermal_field called")

    monkeypatch.setattr(cli, "thermal_field", build)
    monkeypatch.setattr(dynamics, "machine_bytes", lambda: 1 << 30)
    out = tmp_path / "x.csv"
    assert run(["evolve", "--n-f", "1000000", "--t-max", "0.01", "--dt", "0.01",
                "--out", str(out)]) == 2
    assert "estimated peak memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_memory_preflight_refuses_before_truncation_scan(command, tmp_path, monkeypatch, capsys):
    # at n_bar 1000 the closed-form floor alone needs hundreds of GiB; the scan never runs
    def scan(*_):
        raise AssertionError("auto_truncate called")

    monkeypatch.setattr(cli, "auto_truncate", scan)
    monkeypatch.setattr(dynamics, "machine_bytes", lambda: 64 << 30)
    out = tmp_path / f"{command}.csv"
    assert run([command, "--n-bar", "1000", "--out", str(out)]) == 2
    assert "estimated peak memory" in capsys.readouterr().err
    assert not out.exists()


def test_memory_preflight_sizes_phi_atom_real(tmp_path, monkeypatch):
    # a phi atom gauges to a real state, and the pre-flight sizes exactly that real run (at
    # D = 362 a complex block would be twice as large): two samples, each with its
    # trajectory columns and its CSV row
    need = dynamics.peak_bytes(182, samples=2) + 2 * cli._EVOLVE_ROW_BYTES
    argv = ["evolve", "--n-f", "180", "--t-max", "0.01", "--dt", "0.01",
            "--atom", "r=0.7,theta=0.4,phi=1.3", "--out", str(tmp_path / "phi.csv")]
    monkeypatch.setattr(dynamics, "machine_bytes", lambda: need - 1)
    assert run(argv) == 2
    monkeypatch.setattr(dynamics, "machine_bytes", lambda: need)
    assert run(argv) == 0


@pytest.mark.parametrize("command", ["evolve", "sweep"])
@pytest.mark.parametrize("t_max,dt", [("1e13", "1"), ("25", "1e-300")])
def test_time_grid_too_long_is_refused_before_allocation(command, t_max, dt, tmp_path, capsys):
    # np.arange would raise a memory or size error; the pre-flight counts the samples first
    out = tmp_path / f"{command}.csv"
    start = time.perf_counter()
    assert run([command, "--t-max", t_max, "--dt", dt, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "estimated peak memory" in err and "Traceback" not in err
    assert not out.exists()


# Each refused input, and the start of its message: the flag's field, named.  The library
# refuses all but the atoms, which the CLI parses itself.
REFUSED = [
    (["--n-bar", "-1"], "n_bar=-1.0 must be finite and >= 0"),
    (["--n-f", "0"], "n-f: cannot parse '0' (must be 'auto' or an integer >= 1)"),
    (["--dt", "0"], "dt=0.0 must be positive"),
    (["--t-max", "0.001"], "t_max=0.001 must be >= dt=0.01"),
    (["--t-max", "1e300", "--dt", "1e-300"], "dt=1e-300 gives more samples to t_max=1e+300"),
    (["--eps", "0"], "eps=0.0 must be positive"),
    (["--artifact-threshold", "-1"], "artifact_threshold=-1.0 must be positive"),
    (["--diagnostics", "bogus"], "diagnostics ['bogus']: not one or more of"),
    (["--grid", "0x3"], "grid resolution (0, 3) must be at least 1x1"),
    (["--workers", "0"], "workers=0 must be >= 1"),
    (["--atom", "r=0.5,theta"], "atom: cannot parse 'theta' in 'r=0.5,theta'"),
    (["--atom", "r=half,theta=0"], "atom: r='half' is not a number"),
    (["--atom", "r=0.5"], "atom: 'r=0.5' needs at least r= and theta="),
]


@pytest.mark.parametrize("command,flags,message", [
    pytest.param(command, flags, message, id=" ".join([command, *flags]))
    for command in ("evolve", "sweep")
    for flags, message in REFUSED
    if {f"--{cli._key(option)}" for option in cli._options(command)}.issuperset(flags[::2])
])
def test_refused_input_exits_config(command, flags, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run([command, *flags, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and "Traceback" not in err
    assert not out.exists()


class TestOutputErrors:
    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"n-bar = 0.1\n# caf\xe9\n")
        assert run(["evolve", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "config: cannot read" in capsys.readouterr().err

    def test_missing_out_directory_is_refused_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        start = time.perf_counter()
        assert run(["evolve", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "out: the directory of" in capsys.readouterr().err

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        # a directory passes the pre-run check, and cannot be opened as a file
        assert run(["evolve", "--n-f", "4", "--t-max", "0.2", "--dt", "0.1",
                    "--out", str(tmp_path)]) == 2
        assert "out: cannot write" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            ["sweep", "--n-bar", "0.1", "--n-f", "6", "--grid", "1x1",
             "--t-max", "1.0", "--dt", "0.05",
             "--diagnostics", "exchange,mutual,ppt", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == cli.SWEEP_HEADER
        assert len(rows) == 1
        assert rows[0][6] == "ok"

    def test_byte_identical_across_workers(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"sweep_w{workers}.csv"
            code = run(
                ["sweep", "--n-bar", "0.1", "--n-f", "6", "--grid", "3x3",
                 "--t-max", "1.0", "--dt", "0.05", "--workers", str(workers),
                 "--diagnostics", "exchange,mutual,ppt", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_separable_grade_sentinel(self, tmp_path, monkeypatch):
        from jcentropy.sweep import SweepCell

        cell = SweepCell(
            theta=-np.pi / 2, r=0.9, p=-0.9, r_bar=0.01, e=float("-inf"),
            n_significant_negatives=0, worst_negative=0.0,
            artifact_magnitude=0.0, status="ok",
        )
        monkeypatch.setattr(cli.sweep_mod, "run_sweep", lambda *a, **k: [cell])
        out = tmp_path / "sentinel.csv"
        assert run(["sweep", "--n-bar", "0.1", "--n-f", "6", "--grid", "1x1",
                    "--t-max", "1.0", "--dt", "0.5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][4] == "-inf"
        assert float(rows[0][4]) == float("-inf")
        meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
        assert meta["config"]["workers"] == meta["workers"] == 1  # the default, not null

    def test_sidecar_metadata(self, tmp_path):
        out = tmp_path / "meta.csv"
        assert run(["sweep", "--n-bar", "0.1", "--n-f", "6", "--grid", "2x1",
                    "--t-max", "1.0", "--dt", "0.5", "--workers", "2",
                    "--out", str(out)]) == 0
        meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
        # the echo holds exactly the settings sweep takes
        assert set(meta["config"]) == {
            "n_bar", "n_f", "t_max", "dt", "eps", "artifact_threshold",
            "diagnostics", "grid", "workers", "out",
        }
        assert meta["config"]["grid"] == [2, 1]
        assert meta["config"]["workers"] == 2
        assert meta["workers"] == 2
        assert meta["rows"] == 2
        assert set(meta) == SIDECAR_KEYS
        assert meta["band_solver"] == lapack_solver()
        assert meta["numpy"] == np.__version__

    def test_map_without_ok_cell_exits_numerical(self, tmp_path, capsys):
        # an eps above every entropy increment skips every step of every cell
        out = tmp_path / "skipped.csv"
        assert run(["sweep", "--n-f", "6", "--grid", "2x2", "--t-max", "1.0", "--dt", "0.05",
                    "--eps", "10", "--diagnostics", "exchange,mutual", "--workers", "1",
                    "--out", str(out)]) == 3
        assert "no cell has status ok: 4 exchange_skipped+mutual_skipped" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_diagnostic_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["sweep", "--diagnostics", "exchange,bogus", "--out", str(out)]) == 2

    def test_empty_diagnostics_is_config_error(self, tmp_path, capsys):
        # no diagnostic would give a map of zeros with every cell ok
        out = tmp_path / "x.csv"
        assert run(["sweep", "--diagnostics", "", "--grid", "2x2", "--t-max", "1", "--dt", "0.1",
                    "--workers", "1", "--out", str(out)]) == 2
        assert "diagnostics" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n-bar = 0.1\nn-f = 7\natom = excited\nt-max = 2.0\ndt = 0.1\n"
            "# comment line\nout = {}\n".format(tmp_path / "from_file.csv")
        )
        out = tmp_path / "flag_wins.csv"
        code = run(["evolve", "--config", str(config), "--dt", "0.2", "--out", str(out)])
        assert code == 0
        meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
        assert meta["config"]["dt"] == 0.2       # flag overrides file
        assert meta["config"]["t_max"] == 2.0    # file overrides default
        assert meta["config"]["atom"] == "excited"
        assert meta["chosen_n_f"] == 7

    def test_unknown_key_is_config_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n-bars = 0.1\n")
        assert run(["evolve", "--config", str(config), "--out", "x.csv"]) == 2

    def test_line_without_equals_names_the_line(self, tmp_path, capsys):
        config = tmp_path / "bad3.cfg"
        config.write_text("n-bar = 0.1\nn-f 4\n")
        assert run(["evolve", "--config", str(config), "--out", "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: config: line 2 is not 'key = value'\n")

    def test_bad_value_names_field(self, tmp_path, capsys):
        config = tmp_path / "bad2.cfg"
        config.write_text("dt = fast\n")
        assert run(["evolve", "--config", str(config), "--out", "x.csv"]) == 2
        assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["n-bar", "t-max", "dt", "eps", "artifact-threshold"])
def test_non_finite_value_names_field(key, tmp_path, capsys):
    # as a flag and as a config-file key, each non-finite value is a config error
    base = {"n-bar": "0.1", "n-f": "4", "t-max": "0.2", "dt": "0.1",
            "eps": "1e-9", "artifact-threshold": "1e-12"}
    out = str(tmp_path / "x.csv")
    # each subcommand gets only the options it takes; a 1x1 grid keeps a sweep small
    for command, extra in (("evolve", []), ("sweep", ["--grid", "1x1"])):
        taken = {cli._key(option) for option in cli._options(command)}
        if key not in taken:
            continue
        for text in ("nan", "inf", "-inf"):
            values = {k: v for k, v in {**base, key: text}.items() if k in taken}
            flags = [f"--{k}={v}" for k, v in values.items()]
            assert run([command, *flags, *extra, "--out", out]) == 2
            assert f"{key}:" in capsys.readouterr().err
            config = tmp_path / "run.cfg"
            config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            assert run([command, "--config", str(config), *extra, "--out", out]) == 2
            assert f"{key}:" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes_and_lists_checks(self, capsys):
        assert run(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 8
        assert "[FAIL]" not in out

    def test_corrupted_fixture_fails_by_name(self, capsys, monkeypatch):
        broken = list(cli.SELFCHECKS)
        broken[0] = ("propagator_unitarity", lambda: 1.0, 1e-12)
        monkeypatch.setattr(cli, "SELFCHECKS", broken)
        assert run(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] propagator_unitarity" in out

    def test_oracle_check_reads_the_closed_form(self, capsys, monkeypatch):
        closed_form = dynamics.diagonal_evolve

        def shifted(p_e, field, t):
            (excited, ground), field_pops = closed_form(p_e, field, t)
            return (excited + 1e-9, ground + 1e-9), field_pops + 1e-9

        monkeypatch.setattr(dynamics, "diagonal_evolve", shifted)
        assert run(["selfcheck"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert any(line.startswith("[FAIL] diagonal_oracle_equivalence: residual=")
                   for line in out)
        assert out[-1] == "selfcheck failed: diagonal_oracle_equivalence"


def test_float_formatting_17_digits():
    assert cli._fmt(1 / 3) == "0.33333333333333331"
    assert cli._fmt(float("-inf")) == "-inf"
    assert float(cli._fmt(np.pi)) == np.pi
