"""Benchmark workloads: the generated config of each, the command it runs,
the layers it must reach, and the checks on the artifacts it writes.

Standard library only, so run.py (the parent process) can use it without
importing numpy or the package under test.

The seed flows only into the generated config (``surface_model.seed`` and
``source.jitter_seed``) and into the ``--seed`` override of the command.
Why each workload was chosen is stated in ``BENCHMARK.json``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 12345  # RunConfig.seed; reference values are recorded here
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance against the recorded reference values.  Reordering the
# factorization or changing the BLAS thread count moves these norms by about
# 1e-13 relative; a change to the discrete system (a quadrature weight, the
# DtN block, the map factors) moves them by far more than 1e-6.  1e-9 sits
# four decades above round-off and three below any real change.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict      # INI section -> {key: value}; {seed}, {nproc} filled in
    samples: int      # random-problem samples solved per command
    must_hit: tuple   # traced spans that every command must record
    # Scale command times to the host speed (hostspeed.py).  Off for the
    # ensemble: its nproc threads do not track the single-threaded kernel
    # (scaled times spread more over seeds than raw ones).
    host_scaled: bool = True


_COMMON_HITS = ("config.load_config", "cli.run_command", "mesh.build_mesh",
                "dtn.symbol_matrices", "fem.solve", "fem.factor",
                "fem.trisolve", "fem.norms")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="solve-49k",
            command="solve",
            config={
                "physics": {"omega": "8.0"},
                "geometry": {"f0_kind": "cosine", "f0_level": "0.3",
                             "f0_amplitudes": "0.04, 0.02",
                             "f0_modes": "1, 3",
                             "f0_phases": "0.0, 0.7"},
                "surface_model": {"seed": "{seed}"},
                "discretization": {"nx": "128", "ny": "192", "n_max": "0"},
            },
            samples=1,
            must_hit=_COMMON_HITS + ("fem.assemble_B", "fem.assemble_load"),
        ),
        Workload(
            name="ensemble-12k",
            command="ensemble",
            config={
                "physics": {"omega": "8.0"},
                "surface_model": {"mode_count": "2",
                                  "amplitudes": "0.02, 0.01",
                                  "phases": "0.0, 1.3", "M0": "0.3",
                                  "seed": "{seed}"},
                "source": {"jitter_center": "0.05",
                           "jitter_amplitude": "0.1",
                           "jitter_seed": "{seed}"},
                "discretization": {"nx": "64", "ny": "96", "n_max": "0"},
                "run": {"N": "16", "parallelism": "{nproc}"},
            },
            samples=16,
            host_scaled=False,
            must_hit=_COMMON_HITS + (
                "fem.assemble_B", "fem.assemble_load",
                "fem.assemble_B_transformed", "fem.assemble_load_transformed",
                "model.check_invertibility", "model.jacobian",
                "montecarlo.run_ensemble", "montecarlo.run_sample",
                "montecarlo.pushforward_h1_sq",
                "montecarlo.pullback_source_h1_sq"),
        ),
        Workload(
            name="verify-battery",
            command="verify-all",
            config={"surface_model": {"seed": "{seed}"}},
            samples=1,
            must_hit=_COMMON_HITS + (
                "fem.assemble_B", "fem.assemble_load",
                "dtn.symbol_bound_check", "model.jacobian",
                "verify.pullback_identity_check", "verify.mms_convergence",
                "verify.rellich_residual", "verify.poincare_check"),
        ),
    )
}

VERIFY_CHECKS = (
    "symbol_neg_def", "symbol_interior_uniform", "symbol_growth_stable",
    "projection_algebra", "keystone_traction", "galerkin_residual",
    "rellich_inequality", "poincare_random", "pullback_identity",
    "mms_h1_slope", "mms_l2_slope",
)


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    """Write the workload's INI config for this seed; ensemble worker
    threads are capped at the number of CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    lines = []
    for section, keys in workload.config.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = "
                         + value.format(seed=seed, nproc=nproc))
        lines.append("")
    Path(path).write_text("\n".join(lines))
    return Path(path)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


# ---------------------------------------------------------------------------
# Artifact checks: each returns a list of problems, empty when all is well.
# ---------------------------------------------------------------------------

def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(row, problems, where) -> list:
    out = []
    for cell in row:
        try:
            out.append(float(cell))
        except ValueError:
            problems.append(f"{where}: {cell!r} is not a number")
            out.append(math.nan)
    return out


def _check_positive(values, problems, where) -> None:
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            problems.append(f"{where}: value {v!r} is not finite and positive")


def _check_reference(rows, ref_rows, problems, where) -> None:
    if len(rows) != len(ref_rows):
        problems.append(f"{where}: {len(rows)} rows, reference has "
                        f"{len(ref_rows)}")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for v, r in zip(row, ref):
            if not abs(v - r) <= REL_TOL * abs(r):
                problems.append(f"{where} row {i}: {v!r} differs from "
                                f"reference {r!r} by more than {REL_TOL:g} "
                                "relative")


def _check_checks_csv(out: Path, names, problems) -> None:
    header, rows = _read_csv(out / "checks.csv")
    if header != ["check_name", "lhs", "rhs", "ok", "tolerance"]:
        problems.append(f"checks.csv: unexpected header {header}")
        return
    got = tuple(r[0] for r in rows)
    if got != tuple(names):
        problems.append(f"checks.csv: rows {got}, expected {tuple(names)}")
    for r in rows:
        if r[3] != "True":
            problems.append(f"checks.csv: {r[0]} is {r[3]}")


def _check_solve(out: Path, seed: int, reference: dict, problems) -> None:
    header, rows = _read_csv(out / "norms.csv")
    if header != ["omega", "h", "l2", "h1", "d2", "trace_l2_top"]:
        problems.append(f"norms.csv: unexpected header {header}")
        return
    values = [_floats(r, problems, "norms.csv") for r in rows]
    if len(values) != 1:
        problems.append(f"norms.csv: {len(values)} rows, expected 1")
    for v in values:
        _check_positive(v, problems, "norms.csv")
    if seed == DEFAULT_SEED:
        _check_reference(values, reference["solve-49k"]["norms.csv"],
                         problems, "norms.csv")
    nx, ny = 128, 192
    with open(out / "solution.csv") as fh:
        n_rows = sum(1 for _ in fh) - 1
    if n_rows != nx * (ny + 1):
        problems.append(f"solution.csv: {n_rows} rows, expected "
                        f"{nx * (ny + 1)}")
    with open(out / "mesh.txt") as fh:
        n_lines = sum(1 for _ in fh)
    expected = nx * (ny + 1) + 2 * nx * ny + 2 * nx + (ny + 1)
    if n_lines != expected:
        problems.append(f"mesh.txt: {n_lines} lines, expected {expected}")


def _check_ensemble(out: Path, seed: int, reference: dict, problems) -> None:
    _check_checks_csv(out, ("meansquare_envelope",), problems)
    header, rows = _read_csv(out / "ensemble.csv")
    if header != ["index", "u_h1_sq", "u_ref_h1_sq", "g_h1_sq", "min_detJ"]:
        problems.append(f"ensemble.csv: unexpected header {header}")
        return
    values = [_floats(r, problems, "ensemble.csv") for r in rows]
    n = WORKLOADS["ensemble-12k"].samples
    if [v[0] for v in values] != [float(i) for i in range(n)]:
        problems.append(f"ensemble.csv: indices are not 0..{n - 1}")
    for v in values:
        _check_positive(v[1:], problems, "ensemble.csv")
    if seed == DEFAULT_SEED:
        _check_reference(values, reference["ensemble-12k"]["ensemble.csv"],
                         problems, "ensemble.csv")


def _check_verify(out: Path, seed: int, reference: dict, problems) -> None:
    _check_checks_csv(out, VERIFY_CHECKS, problems)


_CHECKERS = {
    "solve-49k": _check_solve,
    "ensemble-12k": _check_ensemble,
    "verify-battery": _check_verify,
}


def check_artifacts(name: str, out: Path, seed: int, exit_code: int,
                    reference: dict) -> list:
    """Problems with one command's result; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems: list = []
    try:
        _CHECKERS[name](Path(out), seed, reference, problems)
    except (OSError, IndexError, KeyError) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
    return problems
