"""Config parsing/validation, artifact schemas, exit codes, determinism."""

import configparser
import csv
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from elastodtn import cli, config
from elastodtn.cli import main, run_command
from elastodtn.config import RunConfig, load_config, resolved_text
from elastodtn.errors import ConfigError, MapSingularError, SolveError
from elastodtn.fem import assemble_B, assemble_load, solve
from elastodtn.mesh import build_mesh, nyquist_index
from elastodtn.model import keyed_generator


def _write(path, text):
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _readme_config_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1]
    return section.split("```ini\n", 1)[1].split("```", 1)[0]


def _keys_in_order(text: str) -> list[tuple[str, list[str]]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    parser.read_string(text)
    return [(s, list(parser[s])) for s in parser.sections()]


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            load_config(tmp_path / "nope.cfg")

    def test_empty_config_gives_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path / "a.cfg", ""))
        assert cfg == RunConfig()

    @pytest.mark.parametrize("omega, period, nx", [
        (0.5, 1.0, 8), (2.0, 1.0, 8), (8.0, 1.0, 8), (24.0, 1.0, 16),
        (8.0, 3.0, 16), (24.0, 3.0, 46)])
    def test_auto_n_max_is_the_ensemble_rule(self, omega, period, nx):
        # one rule for the CLI commands and the ensemble: n_max = 0 keeps
        # every mode the nx top nodes resolve, whatever omega and the
        # period, and nothing warns
        cfg = RunConfig(period=period, nx=nx, ny=4)
        mesh = build_mesh(cfg.make_geometry().surface, cfg.h, nx, cfg.ny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = assemble_B(mesh, cfg.make_params(omega))
        assert system.n_max == nyquist_index(nx) == (nx - 1) // 2

    def test_resolved_text_byte_stable(self, tmp_path):
        path = _write(tmp_path / "a.cfg", "[physics]\nomega = 3.5\n")
        t1 = resolved_text(load_config(path))
        t2 = resolved_text(load_config(path))
        assert t1 == t2
        assert "omega = 3.5" in t1

    def test_readme_block_is_the_schema(self, tmp_path):
        # the README's block loads and names RunConfig's keys in its order
        schema = [(s, list(keys)) for s, keys in config._SCHEMA.items()]
        block = _readme_config_block()
        load_config(_write(tmp_path / "a.cfg", block))
        assert _keys_in_order(block) == schema
        # negative controls: a planted key and a dropped one are seen
        planted = block.replace("mu = 1.0\n", "mu = 1.0\nnu = 0.3\n")
        dropped = block.replace("mu = 1.0\n", "")
        assert _keys_in_order(planted) != schema
        assert _keys_in_order(dropped) != schema
        with pytest.raises(ConfigError, match="physics.nu: unknown key"):
            load_config(_write(tmp_path / "b.cfg", planted))

    @pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(
        omega_list=(2.0, 2.0 * math.sqrt(2.0), 4.0), f0_kind="cosine",
        f0_amplitudes=(0.03, 0.01), f0_modes=(1, 3), f0_phases=(0.0, 0.5),
        mode_count=2, amplitudes=(0.02, 0.005), phases=(0.0, 1.3), M0=0.3)])
    def test_resolved_text_round_trips(self, tmp_path, cfg):
        text = resolved_text(cfg)
        loaded = load_config(_write(tmp_path / "a.cfg", text))
        assert loaded == cfg
        assert resolved_text(loaded) == text   # ints stay ints
        # negative control: the comparison sees a float written short
        x = 2.0 * math.sqrt(2.0)
        long = replace(cfg, omega=x)
        short = resolved_text(long).replace(repr(x), f"{x:.6g}")
        assert load_config(_write(tmp_path / "b.cfg", short)) != long

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

    @pytest.mark.parametrize("key", ["delta", "calibrated_c"])
    def test_negative_run_value_rejected_zero_is_auto(self, tmp_path, key):
        # 0 selects the automatic value; a negative one used to as well,
        # while resolved.cfg recorded it
        path = _write(tmp_path / "a.cfg", f"[run]\n{key} = 0\n")
        assert getattr(load_config(path), key) == 0.0
        path = _write(tmp_path / "b.cfg", f"[run]\n{key} = -0.05\n")
        with pytest.raises(ConfigError, match=f"run.{key}"):
            load_config(path)

    @pytest.mark.parametrize("value", ["0", "-1.0", "nan"])
    def test_anchor_safety_must_be_positive(self, tmp_path, value):
        path = _write(tmp_path / "a.cfg", "[run]\nanchor_safety = 0.5\n")
        assert load_config(path).anchor_safety == 0.5
        path = _write(tmp_path / "b.cfg", f"[run]\nanchor_safety = {value}\n")
        with pytest.raises(ConfigError, match="run.anchor_safety"):
            load_config(path)

    def test_explicit_n_max_past_nyquist_rejected(self, tmp_path):
        # the DtN block keeps every mode the mesh resolves: 0 is the only
        # value the key takes, and any other is refused, not capped
        path = _write(tmp_path / "a.cfg", "[discretization]\nn_max = 0\n")
        assert load_config(path).n_max == 0
        path = _write(tmp_path / "b.cfg", "[discretization]\nn_max = 3\n")
        with pytest.raises(ConfigError,
                           match=r"discretization.n_max: got 3, must be 0"):
            load_config(path)

    def test_auto_n_max_keeps_the_cap(self, tmp_path):
        # at omega 24 the old frequency rule asked for 16 modes, past the
        # Nyquist index 15 of nx = 32; the block keeps the 15 the mesh
        # resolves, silently
        path = _write(tmp_path / "a.cfg", "[physics]\nomega = 24\n")
        cfg = load_config(path)
        mesh = build_mesh(cfg.make_geometry().surface, cfg.h, cfg.nx, cfg.ny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assemble_B(mesh, cfg.make_params()).n_max == 15

    @pytest.mark.parametrize("kind, text, key", [
        ("flat", "f0_amplitudes = 0.05", "f0_amplitudes"),
        ("flat", "f0_modes = 1", "f0_modes"),
        ("flat", "f0_phases = 0.0", "f0_phases"),
        ("sawtooth", "f0_amplitudes = 0.05, 0.09", "f0_amplitudes"),
        ("sawtooth", "f0_amplitudes = 0.05\nf0_modes = 7", "f0_modes"),
        ("sawtooth", "f0_amplitudes = 0.05\nf0_phases = 0.0", "f0_phases"),
    ])
    def test_unread_f0_list_rejected(self, tmp_path, kind, text, key):
        # flat reads no f0 list and sawtooth one amplitude: a list the
        # surface ignores used to load and run while resolved.cfg kept it
        path = _write(tmp_path / "a.cfg",
                      f"[geometry]\nf0_kind = {kind}\n{text}\n")
        with pytest.raises(ConfigError, match=f"geometry.{key}"):
            load_config(path)
        path = _write(tmp_path / "b.cfg", "[geometry]\nf0_kind = sawtooth\n"
                      "f0_amplitudes = 0.05\n")
        assert load_config(path).f0_amplitudes == (0.05,)

    @pytest.mark.parametrize("key", ["jitter_center", "jitter_amplitude"])
    def test_negative_jitter_rejected_zero_is_none(self, tmp_path, key):
        # a negative value used to run unjittered (or loosen the support
        # band check) while resolved.cfg recorded it
        path = _write(tmp_path / "a.cfg", f"[source]\n{key} = 0\n")
        assert load_config(path).make_source_spec().jitter is None
        path = _write(tmp_path / "b.cfg", f"[source]\n{key} = -0.05\n")
        with pytest.raises(ConfigError, match=f"source.{key}"):
            load_config(path)


class TestSolveCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        cfg = RunConfig()
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


    def test_records_requested_and_effective_n_max(self, tmp_path,
                                                   monkeypatch):
        # resolved.cfg keeps the request (0: every resolved mode) and the
        # solve's metadata the modes its block used, 15 at nx = 32
        seen = []
        real_solve = cli.solve

        def spy(system, load, **kwargs):
            sol = real_solve(system, load, **kwargs)
            seen.append(sol.metadata)
            return sol

        monkeypatch.setattr(cli, "solve", spy)
        path = _write(tmp_path / "a.cfg", "[physics]\nomega = 24\n")
        cfg = load_config(path)
        assert (cfg.nx, cfg.ny, cfg.f0_kind) == (32, 48, "flat")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_command(cfg, str(tmp_path / "out")) == 0
        assert "n_max = 0\n" in (tmp_path / "out" / "resolved.cfg").read_text()
        assert seen[0]["n_max"] == 15

    def test_solve_never_builds_the_whole_mesh_rule(self, tmp_path,
                                                    monkeypatch):
        # the solve reads the rule's points and weights only on the
        # triangles its source meets
        meshes = []
        real_build = cli.build_mesh

        def spy(*args):
            meshes.append(real_build(*args))
            return meshes[-1]

        monkeypatch.setattr(cli, "build_mesh", spy)
        cfg = RunConfig()
        assert (cfg.nx, cfg.ny) == (32, 48)
        assert run_command(cfg, str(tmp_path)) == 0
        quad = meshes[0].quadrature
        for name in ("_points", "_weights", "_abscissae"):
            assert name not in vars(quad), name

    def test_mesh_nodes_carry_the_solution_coordinates(self, tmp_path):
        cfg = RunConfig()
        assert run_command(cfg, str(tmp_path)) == 0
        lines = (tmp_path / "mesh.txt").read_text().splitlines()
        nx, ny = cfg.nx, cfg.ny
        assert len(lines) == (nx * (ny + 1) + 2 * nx * ny + 2 * nx
                              + (ny + 1))
        nodes = [ln.split("\t") for ln in lines if ln.startswith("node\t")]
        with open(tmp_path / "solution.csv") as fh:
            coords = [row[:2] for row in list(csv.reader(fh))[1:]]
        assert len(nodes) == len(coords) == nx * (ny + 1)
        for k, (fields, xy) in enumerate(zip(nodes, coords)):
            assert len(fields) == 4 and fields[1] == str(k)
            assert [float(v) for v in fields[2:]] == [float(v) for v in xy]
            assert fields[2:] == xy
        assert "np." not in (tmp_path / "mesh.txt").read_text()


def _reference_write_csv(path, header, rows):
    """The csv.writer writer that _write_csv replaced: the byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


class TestCsvWriter:
    """_write_csv against the csv.writer + repr writer it replaced."""

    def test_solution_csv_equals_reference_writer(self, tmp_path):
        cfg = RunConfig()
        assert run_command(cfg, str(tmp_path / "new")) == 0
        p, geom = cfg.make_params(), cfg.make_geometry()
        mesh = build_mesh(geom.surface, geom.h, cfg.nx, cfg.ny)
        src = cfg.make_source()
        sol = solve(assemble_B(mesh, p),
                    assemble_load(mesh, src))
        rows = [[float(x1), float(x2),
                 float(np.real(u[0])), float(np.imag(u[0])),
                 float(np.real(u[1])), float(np.imag(u[1]))]
                for (x1, x2), u in zip(mesh.nodes, sol.values)]
        _reference_write_csv(tmp_path / "ref.csv",
                             ["x1", "x2", "re_u1", "im_u1", "re_u2", "im_u2"],
                             rows)
        assert (tmp_path / "new" / "solution.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_edge_cells_equal_reference_writer(self, tmp_path):
        floats = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, -1.5e-300, 2.0]
        header = ["a", "b", "c", "d", "e", "f", "g"]
        mixed = [[7, True, np.bool_(False), "name", "a,b", 'say "hi"', -3],
                 floats]
        for name, rows in (("mixed", mixed),
                           ("array", np.array([floats, floats[::-1]]))):
            cli._write_csv(tmp_path / f"{name}.csv", header, rows)
            ref_rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
            _reference_write_csv(tmp_path / f"{name}_ref.csv", header,
                                 ref_rows)
            assert (tmp_path / f"{name}.csv").read_bytes() == \
                (tmp_path / f"{name}_ref.csv").read_bytes()

    def test_numpy_float_cells_print_as_plain_floats(self, tmp_path):
        cli._write_csv(tmp_path / "f.csv", ["x"], [[np.float64(0.1)]])
        assert (tmp_path / "f.csv").read_text() == "x\n0.1\n"

    @pytest.mark.parametrize("cfg, names", [
        (RunConfig(), ("norms.csv",)),
        (RunConfig(command="mms"), ("mms.csv", "checks.csv")),
        (RunConfig(command="sweep-omega", omega_list=(2.0, 2.83, 4.0)),
         ("sweep.csv", "checks.csv")),
        (RunConfig(command="ensemble", N=2, nx=16, ny=24),
         ("ensemble.csv", "checks.csv")),
        (RunConfig(command="verify-all"), ("checks.csv",)),
    ], ids=["solve", "mms", "sweep-omega", "ensemble", "verify-all"])
    def test_command_artifacts_equal_reference_writer(self, tmp_path,
                                                       monkeypatch, cfg,
                                                       names):
        assert run_command(cfg, str(tmp_path / "new")) == 0
        monkeypatch.setattr(cli, "_write_csv", _reference_write_csv)
        assert run_command(cfg, str(tmp_path / "ref")) == 0
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "ref" / name).read_bytes(), name


class TestDtnTruncationWarnings:
    """No DtN truncation warns: every block keeps the modes its mesh
    resolves."""

    @pytest.mark.parametrize("command", ["solve", "mms", "verify-all"])
    def test_default_config_warns_nowhere(self, tmp_path, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_command(RunConfig(command=command), str(tmp_path)) == 0

    def test_sweep_to_omega_24_is_silent(self, tmp_path):
        # the old frequency rule asked for 16 modes at omega 24, past the
        # Nyquist index 15 of nx = 32, and warned
        cfg = RunConfig(command="sweep-omega",
                        omega_list=(2.0, 4.0, 8.0, 24.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_command(cfg, str(tmp_path)) == 0


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

    def test_needs_omega_list(self, tmp_path, capsys):
        # refused with the other config errors: the run used to create the
        # output directory and write resolved.cfg first
        path = tmp_path / "one.cfg"
        path.write_text("[physics]\nomega_list = 2.0\n")
        out = tmp_path / "x"
        assert main(["sweep-omega", "--config", str(path),
                     "--out", str(out)]) == 2
        assert "physics.omega_list" in capsys.readouterr().err
        assert not out.exists()


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

    def test_zero_delta_is_the_automatic_cutoff(self, tmp_path):
        # delta = 0 runs the cutoff of make_cutoff's default, gap / 8
        cfg = RunConfig(command="ensemble", N=2, nx=20, ny=24)
        gap = cfg.make_geometry().gap
        outs = [tmp_path / "auto", tmp_path / "explicit"]
        for c, out in zip((cfg, replace(cfg, delta=gap / 8.0)), outs):
            assert run_command(c, str(out)) == 0
        assert (outs[0] / "ensemble.csv").read_bytes() == \
            (outs[1] / "ensemble.csv").read_bytes()

    def test_absurd_constant_fails_with_exit_1(self, tmp_path):
        cfg = RunConfig(command="ensemble", N=2, nx=16, ny=24,
                        calibrated_c=1e-30)
        assert run_command(cfg, str(tmp_path / "e")) == 1


class TestProjectionAlgebraRow:
    def test_round_off_margin_over_seeds(self):
        # the row bounds an absolute deviation, set by rounding in Mp @ Mp
        # (entries up to about 35), by a fixed 1e-12; on the default config
        # it reaches 8.88e-13 at seed 150
        p = RunConfig().make_params()
        worst = max(cli._projection_deviation(p, keyed_generator(seed, 1),
                                              1000) for seed in range(300))
        assert worst < 1e-12


def test_cli_import_leaves_scipy_fft_unloaded():
    # every command's set-up imports the CLI; scipy.fft is a faster FFT
    # than numpy's, but importing it costs tens of ms, so the package uses
    # numpy's FFT (along a contiguous last axis) and never imports it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, elastodtn.cli; print('scipy.fft' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

    def test_flag_overrides_are_validated(self, tmp_path, capsys):
        # a flag is checked as the same key in the file is: --parallelism 0
        # used to run and record parallelism = 0 in resolved.cfg
        path = tmp_path / "ok.cfg"
        path.write_text("")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(path), "--out", str(out),
                     "--parallelism", "0"]) == 2
        assert "run.parallelism" in capsys.readouterr().err
        assert not out.exists()
        assert main(["solve", "--config", str(path), "--out", str(out),
                     "--seed", "-1"]) == 0
        assert "seed = -1\n" in (out / "resolved.cfg").read_text()

    def test_nonpositive_anchor_safety_exits_2(self, tmp_path, capsys):
        # it used to scale the envelope negative, and the ensemble wrote a
        # failing meansquare_envelope row and exited 1
        path = tmp_path / "bad.cfg"
        path.write_text("[discretization]\nnx = 16\nny = 16\n"
                        "[run]\nN = 2\nanchor_safety = -1.0\n")
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(path),
                     "--out", str(out)]) == 2
        assert "run.anchor_safety" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_all_takes_a_negative_seed(self, tmp_path):
        # every generator key takes the seed modulo 2^64
        path = tmp_path / "ok.cfg"
        path.write_text("")
        out = tmp_path / "out"
        assert main(["verify-all", "--config", str(path), "--out", str(out),
                     "--seed", "-1"]) == 0
        checks = _read_csv(out / "checks.csv")
        assert len(checks) == 11
        assert all(row["ok"] == "True" for row in checks)

    @pytest.mark.parametrize("cfg, key", [
        (RunConfig(command="sweep-omega"), "physics.omega_list"),
        (RunConfig(command="ensemble", parallelism=0), "run.parallelism")])
    def test_run_command_validates_before_writing(self, tmp_path, cfg, key):
        # a library caller's invalid config used to leave resolved.cfg
        # behind, and parallelism = 0 ran
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            run_command(cfg, str(out))
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_env_out_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "ok.cfg"
        path.write_text("")
        env_out = tmp_path / "envdir"
        monkeypatch.setenv("ELASTODTN_OUT", str(env_out))
        assert main(["solve", "--config", str(path)]) == 0
        assert (env_out / "solution.csv").exists()


def _set_cpus(monkeypatch, count):
    # the CPUs verify-all may use: two or more run its second lane on a
    # helper thread, one runs both lanes on the calling thread
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


class TestVerifyAllLanes:
    """verify-all's two lanes: the symbol and pullback rows on the calling
    thread, the solve rows and the MMS on one helper thread."""

    @staticmethod
    def _run(tmp_path, name, *flags):
        path = tmp_path / "default.cfg"
        path.write_text("")
        out = tmp_path / name
        return main(["verify-all", "--config", str(path), "--out", str(out),
                     *flags]), out

    @staticmethod
    def _plant(monkeypatch, name, error=None, seen=None, controls=()):
        """Replace cli.<name> by a wrapper that records in `seen` the BLAS
        thread counts it sees and whether it runs on the main thread, then
        raises `error` or, without one, calls the original."""
        fn = getattr(cli, name)

        def planted(*args, **kwargs):
            if seen is not None:
                seen[name] = ([get() for get, _ in controls],
                              threading.current_thread()
                              is threading.main_thread())
            if error is not None:
                raise error
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, planted)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_errors_surface_in_serial_order(self, tmp_path, monkeypatch,
                                            capsys, cpus):
        # the serial battery reached the solve before the pullback check,
        # so the solve's error wins although lane A fails at once
        _set_cpus(monkeypatch, cpus)
        self._plant(monkeypatch, "pullback_identity_check",
                    MapSingularError("planted pullback failure"))
        threads = threading.active_count()
        with monkeypatch.context() as solve_plant:
            self._plant(solve_plant, "solve",
                        SolveError("planted solve failure"))
            status, out = self._run(tmp_path, "both")
        assert status == 2
        err = capsys.readouterr().err
        assert "planted solve failure" in err and "pullback" not in err
        assert not (out / "checks.csv").exists()
        assert threading.active_count() == threads

        status, out = self._run(tmp_path, "pullback")
        assert status == 2
        assert "planted pullback failure" in capsys.readouterr().err
        assert not (out / "checks.csv").exists()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("seed", ["12345", "7"])
    def test_one_cpu_starts_no_helper_and_writes_the_same_bytes(
            self, tmp_path, monkeypatch, seed):
        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
        _set_cpus(monkeypatch, 2)
        status, two = self._run(tmp_path, "two", "--seed", seed)
        assert status == 0 and pools == [1]
        _set_cpus(monkeypatch, 1)
        threads = threading.active_count()
        status, one = self._run(tmp_path, "one", "--seed", seed)
        assert status == 0 and pools == [1]
        assert threading.active_count() == threads
        assert ((one / "checks.csv").read_bytes()
                == (two / "checks.csv").read_bytes())

    def test_both_lanes_run_pinned_and_counts_restored(
            self, openblas_at_two, tmp_path, monkeypatch):
        controls = openblas_at_two
        ones, twos = [1] * len(controls), [2] * len(controls)
        _set_cpus(monkeypatch, 2)
        seen = {}
        self._plant(monkeypatch, "pullback_identity_check", seen=seen,
                    controls=controls)
        self._plant(monkeypatch, "poincare_check", seen=seen,
                    controls=controls)
        assert self._run(tmp_path, "ok")[0] == 0
        assert seen == {"pullback_identity_check": (ones, True),
                        "poincare_check": (ones, False)}
        assert [get() for get, _ in controls] == twos

        # the error-order plants, recording as they raise
        seen.clear()
        self._plant(monkeypatch, "pullback_identity_check",
                    MapSingularError("planted pullback failure"), seen,
                    controls)
        self._plant(monkeypatch, "solve", SolveError("planted solve failure"),
                    seen, controls)
        assert self._run(tmp_path, "failed")[0] == 2
        assert seen == {"pullback_identity_check": (ones, True),
                        "solve": (ones, False)}
        assert [get() for get, _ in controls] == twos
