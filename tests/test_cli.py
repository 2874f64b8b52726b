import json

import numpy as np
import pytest

from jcentropy import cli


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
            "n_bar", "n_f", "atom", "t_max", "dt", "eps", "artifact_threshold",
            "workers", "out",
        }
        assert meta["config"]["atom"] == "excited"

    def test_solver_failure_exits_numerical(self, tmp_path, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        out = tmp_path / "x.csv"
        assert run(["evolve", "--n-f", "4", "--t-max", "0.2", "--dt", "0.1",
                    "--out", str(out)]) == 3

    def test_missing_out_is_config_error(self):
        assert run(["evolve", "--n-bar", "0.1"]) == 2

    def test_bad_atom_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["evolve", "--atom", "r=2.0,theta=0", "--out", str(out)]) == 2
        assert run(["evolve", "--atom", "r=0.5,tilt=1", "--out", str(out)]) == 2


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

    def test_unknown_diagnostic_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["sweep", "--diagnostics", "exchange,bogus", "--out", str(out)]) == 2


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
    for text in ("nan", "inf", "-inf"):
        values = {**base, key: text}
        flags = [f"--{k}={v}" for k, v in values.items()]
        assert run(["evolve", *flags, "--out", out]) == 2
        assert f"{key}:" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert run(["sweep", "--config", str(config), "--grid", "1x1",
                    "--out", out]) == 2
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


def test_float_formatting_17_digits():
    assert cli._fmt(1 / 3) == "0.33333333333333331"
    assert cli._fmt(float("-inf")) == "-inf"
    assert float(cli._fmt(np.pi)) == np.pi
