"""Config parsing/validation, artifact schemas, exit codes, determinism."""

import csv

import pytest

from elastodtn.cli import main, run_command
from elastodtn.config import RunConfig, default_config, load_config, resolved_text
from elastodtn.errors import ConfigError


def _write(path, text):
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            load_config(tmp_path / "nope.cfg")

    def test_empty_config_gives_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path / "a.cfg", ""))
        assert cfg == default_config()

    def test_resolved_text_byte_stable(self, tmp_path):
        path = _write(tmp_path / "a.cfg", "[physics]\nomega = 3.5\n")
        t1 = resolved_text(load_config(path))
        t2 = resolved_text(load_config(path))
        assert t1 == t2
        assert "omega = 3.5" in t1

    def test_h_below_surface_bound(self, tmp_path):
        path = _write(tmp_path / "a.cfg", "[geometry]\nh = 0.3\n")
        with pytest.raises(ConfigError, match="geometry.h"):
            load_config(path)

    def test_parse_error_reports_location(self, tmp_path):
        path = _write(tmp_path / "a.cfg", "[physics]\nomega 3.5\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        # quadrature_degree was a key while only degree 5 existed
        for section, key in (("physics", "mass"),
                             ("discretization", "quadrature_degree")):
            path = _write(tmp_path / "a.cfg", f"[{section}]\n{key} = 5\n")
            with pytest.raises(ConfigError, match=f"{section}.{key}"):
                load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = _write(tmp_path / "a.cfg", "[quantum]\nx = 1\n")
        with pytest.raises(ConfigError, match="quantum"):
            load_config(path)

    def test_amplitude_bound_checked(self, tmp_path):
        path = _write(tmp_path / "a.cfg",
                      "[surface_model]\namplitudes = 0.2\nM0 = 0.25\n")
        with pytest.raises(ConfigError, match="surface_model.amplitudes"):
            load_config(path)

    def test_source_support_checked(self, tmp_path):
        path = _write(tmp_path / "a.cfg", "[source]\ncenter = 0.5, 0.45\n")
        with pytest.raises(ConfigError, match="source.center"):
            load_config(path)


class TestSolveCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = default_config()
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert run_command(cfg, str(out1)) == 0
        assert run_command(cfg, str(out2)) == 0
        for name in ("solution.csv", "norms.csv", "mesh.txt", "resolved.cfg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        rows = _read_csv(out1 / "solution.csv")
        assert set(rows[0]) == {"x1", "x2", "re_u1", "im_u1", "re_u2", "im_u2"}
        assert len(rows) == 32 * 49  # nx * (ny+1) nodes
        nrows = _read_csv(out1 / "norms.csv")
        assert set(nrows[0]) == {"omega", "h", "l2", "h1", "d2",
                                 "trace_l2_top"}
        assert float(nrows[0]["h1"]) > 0.0


class TestSweepCommand:
    def test_artifacts(self, tmp_path):
        cfg = RunConfig(command="sweep-omega",
                        omega_list=(2.0, 2.83, 4.0, 5.66, 8.0))
        out = tmp_path / "sweep"
        assert run_command(cfg, str(out)) == 0
        rows = _read_csv(out / "sweep.csv")
        assert set(rows[0]) == {"omega", "ratio", "envelope", "slope_running"}
        assert len(rows) == 5
        svg = (out / "sweep.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        # deterministic bytes
        out2 = tmp_path / "sweep2"
        run_command(cfg, str(out2))
        assert (out / "sweep.svg").read_bytes() == \
            (out2 / "sweep.svg").read_bytes()

    def test_needs_omega_list(self, tmp_path):
        cfg = RunConfig(command="sweep-omega")
        with pytest.raises(ConfigError, match="omega_list"):
            run_command(cfg, str(tmp_path / "x"))


class TestEnsembleCommand:
    def test_artifacts_and_check(self, tmp_path):
        cfg = RunConfig(command="ensemble", N=4, parallelism=2,
                        nx=16, ny=24)
        out = tmp_path / "ens"
        assert run_command(cfg, str(out)) == 0
        rows = _read_csv(out / "ensemble.csv")
        assert set(rows[0]) == {"index", "u_h1_sq", "u_ref_h1_sq", "g_h1_sq",
                                "min_detJ"}
        assert [int(r["index"]) for r in rows] == [0, 1, 2, 3]
        checks = _read_csv(out / "checks.csv")
        assert checks[0]["check_name"] == "meansquare_envelope"
        assert checks[0]["ok"] == "True"

    def test_absurd_constant_fails_with_exit_1(self, tmp_path):
        cfg = RunConfig(command="ensemble", N=2, nx=16, ny=24,
                        calibrated_c=1e-30)
        assert run_command(cfg, str(tmp_path / "e")) == 1


class TestCliMain:
    def test_verify_all_gate_exits_2_before_solving(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[geometry]\nh = 0.55\nm = 0.2\nM = 0.4\nf0_level = 0.39\n"
            "[source]\ncenter = 0.5, 0.47\nradius = 0.05\n")
        out = tmp_path / "out"
        status = main(["verify-all", "--config", str(path),
                       "--out", str(out)])
        assert status == 2
        assert not (out / "checks.csv").exists()

    def test_solve_via_main(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("[run]\ncommand = solve\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()

    def test_seed_override_lands_in_resolved_config(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("")
        out = tmp_path / "out"
        main(["solve", "--config", str(path), "--out", str(out),
              "--seed", "777"])
        assert "seed = 777" in (out / "resolved.cfg").read_text()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_env_out_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.cfg"
        path.write_text("")
        env_out = tmp_path / "envdir"
        monkeypatch.setenv("ELASTODTN_OUT", str(env_out))
        assert main(["solve", "--config", str(path)]) == 0
        assert (env_out / "solution.csv").exists()
