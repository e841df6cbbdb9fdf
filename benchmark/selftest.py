"""Tests of the benchmark itself: output checks (with negative controls), the
exact-count and span-coverage guards, the tracer's patching, the host-speed
scaling, ensemble determinism across worker counts, and refusal to run
without the source.

    python3 -m pytest -q benchmark/selftest.py

The file is not named ``test_*.py`` so the repository's own test run does
not collect it; the determinism test takes about half a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from elastodtn import cli, config, fem, montecarlo, verify  # noqa: E402

REFERENCE = workloads.load_reference()
SEED = workloads.DEFAULT_SEED


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _load_cfg(tmp: Path, name: str, **updates):
    workload = workloads.WORKLOADS[name]
    path = workloads.write_config(workload, SEED, tmp / "config.ini")
    return dataclasses.replace(config.load_config(path),
                               command=workload.command, seed=SEED, **updates)


def _ensemble_artifacts(out: Path, rows) -> None:
    _write_csv(out / "ensemble.csv",
               ["index", "u_h1_sq", "u_ref_h1_sq", "g_h1_sq", "min_detJ"],
               [[int(r[0])] + r[1:] for r in rows])
    _write_csv(out / "checks.csv",
               ["check_name", "lhs", "rhs", "ok", "tolerance"],
               [["meansquare_envelope", 1.0, 2.0, True, 0.0]])


def _solve_artifacts(out: Path, norms_row) -> None:
    _write_csv(out / "norms.csv",
               ["omega", "h", "l2", "h1", "d2", "trace_l2_top"], [norms_row])
    nx, ny = 128, 192
    with open(out / "solution.csv", "w") as fh:
        fh.write("x1,x2,re_u1,im_u1,re_u2,im_u2\n")
        fh.write("0.0,0.0,0.0,0.0,0.0,0.0\n" * (nx * (ny + 1)))
    lines = nx * (ny + 1) + 2 * nx * ny + 2 * nx + (ny + 1)
    (out / "mesh.txt").write_text("x\n" * lines)


def _check(name, out, seed=SEED, code=0):
    return workloads.check_artifacts(name, out, seed, code, REFERENCE)


# ---------------------------------------------------------------------------
# Output checks and their negative controls
# ---------------------------------------------------------------------------

def test_reference_artifacts_pass(tmp_path):
    _ensemble_artifacts(tmp_path, REFERENCE["ensemble-12k"]["ensemble.csv"])
    _solve_artifacts(tmp_path, REFERENCE["solve-49k"]["norms.csv"][0])
    assert _check("ensemble-12k", tmp_path) == []
    assert _check("solve-49k", tmp_path) == []


def test_perturbed_norms_fail(tmp_path):
    row = list(REFERENCE["solve-49k"]["norms.csv"][0])
    row[3] *= 1.0 + 1e-7
    _solve_artifacts(tmp_path, row)
    assert _check("solve-49k", tmp_path)
    # at another seed only sanity is checked, so the same file passes ...
    assert _check("solve-49k", tmp_path, seed=SEED + 1) == []
    # ... but a non-finite value does not
    row[3] = float("nan")
    _solve_artifacts(tmp_path, row)
    assert _check("solve-49k", tmp_path, seed=SEED + 1)


def test_perturbed_ensemble_fails(tmp_path):
    rows = [list(r) for r in REFERENCE["ensemble-12k"]["ensemble.csv"]]
    rows[5][2] *= 1.0 + 1e-7
    _ensemble_artifacts(tmp_path, rows)
    assert _check("ensemble-12k", tmp_path)
    _ensemble_artifacts(tmp_path, rows[:-1])
    assert _check("ensemble-12k", tmp_path, seed=SEED + 1)
    rows[5][2] = -rows[5][2]
    _ensemble_artifacts(tmp_path, rows)
    assert _check("ensemble-12k", tmp_path, seed=SEED + 1)


def test_nonzero_exit_fails(tmp_path):
    _ensemble_artifacts(tmp_path, REFERENCE["ensemble-12k"]["ensemble.csv"])
    assert _check("ensemble-12k", tmp_path, code=1)


def test_missing_artifact_fails(tmp_path):
    assert _check("verify-battery", tmp_path)


def test_verify_battery_checks_and_negative_control(tmp_path):
    cfg = _load_cfg(tmp_path, "verify-battery")
    assert cli.run_command(cfg, str(tmp_path)) == 0
    assert _check("verify-battery", tmp_path) == []
    path = tmp_path / "checks.csv"
    text = path.read_text()
    path.write_text(text.replace("True", "False", 1))
    assert _check("verify-battery", tmp_path)
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert _check("verify-battery", tmp_path)


# ---------------------------------------------------------------------------
# Guards and tracer
# ---------------------------------------------------------------------------

def test_count_guard_flags_differences():
    same = {"fem.dofs": 10.0, "fem.factor.nnz_lu": 99.0}
    assert tracing.count_mismatches([same, dict(same)]) == []
    other = dict(same, **{"fem.factor.nnz_lu": 98.0})
    problems = tracing.count_mismatches([same, other])
    assert len(problems) == 1 and "fem.factor.nnz_lu" in problems[0]


def test_coverage_guard_flags_missing_span():
    must = workloads.WORKLOADS["solve-49k"].must_hit
    assert tracing.coverage_gaps(must, set(must)) == []
    gaps = tracing.coverage_gaps(must, set(must) - {"fem.factor"})
    assert gaps == ["span fem.factor never recorded"]


def test_tracer_patches_and_restores_every_binding():
    originals = {
        "fem.assemble_B": fem.assemble_B,
        "montecarlo.assemble_B_transformed":
            montecarlo.assemble_B_transformed,
    }
    t = tracing.Tracer()
    with t:
        for mod in (fem, cli, verify):
            assert mod.assemble_B.__traced__ is originals["fem.assemble_B"]
        for mod in (fem, montecarlo, verify):
            assert (mod.assemble_B_transformed.__traced__
                    is originals["montecarlo.assemble_B_transformed"])
        assert hasattr(fem.spla.splu, "__traced__")
        assert hasattr(montecarlo.DomainMap.jacobian, "__traced__")
    assert cli.assemble_B is originals["fem.assemble_B"]
    assert not hasattr(fem.spla.splu, "__traced__")
    assert not hasattr(montecarlo.DomainMap.jacobian, "__traced__")


def test_traced_command_covers_its_layers(tmp_path):
    workload = workloads.WORKLOADS["verify-battery"]
    t = tracing.Tracer()
    with t:
        cfg = _load_cfg(tmp_path, workload.name)
        assert cli.run_command(cfg, str(tmp_path)) == 0
    assert tracing.coverage_gaps(workload.must_hit, t.hit()) == []
    metrics = t.command_metrics(cfg.parallelism)
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_frac"}
    assert metrics["fem.factor.nnz_lu"] > metrics["fem.nnz_a"] > 0
    assert metrics["fem.solve.failed"] == 0


# ---------------------------------------------------------------------------
# Host-speed scaling
# ---------------------------------------------------------------------------

def test_host_speed_scaling():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref) == pytest.approx(2.0)
    assert hostspeed.scale(2.0, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.scale(2.0, ref, 3 * ref) == pytest.approx(1.0)


def test_host_speed_kernel_leaves_package_alone():
    code = ("import sys, hostspeed; k = hostspeed.kernel_s(); "
            "assert k > 0; assert 'elastodtn' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=60)


# ---------------------------------------------------------------------------
# Determinism and refusal
# ---------------------------------------------------------------------------

def test_ensemble_parallel_matches_serial_bytes(tmp_path):
    nproc = len(os.sched_getaffinity(0))
    outs = []
    for parallelism in (nproc, 1):
        out = tmp_path / f"p{parallelism}"
        cfg = _load_cfg(tmp_path, "ensemble-12k", parallelism=parallelism)
        assert cli.run_command(cfg, str(out)) == 0
        outs.append(out)
    assert _check("ensemble-12k", outs[0]) == []
    assert ((outs[0] / "ensemble.csv").read_bytes()
            == (outs[1] / "ensemble.csv").read_bytes())


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve-49k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
