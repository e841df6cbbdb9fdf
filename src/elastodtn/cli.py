"""Command-line orchestration: solve / mms / sweep-omega / ensemble /
verify-all, with CSV artifacts and a deterministic SVG log-log plot.

Exit codes: 0 success, 1 a theory check failed (an inequality in checks.csv
came out false), 2 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dtn, montecarlo, verify
from .config import RunConfig, load_config, resolved_text, validate
from .errors import ElastoDtnError, GeometryError
from .fem import (_single_thread_blas, assemble_B, assemble_load, free_vector,
                  solve)
from .mesh import build_mesh
from .model import (DomainMap, height_condition, keyed_generator, make_cutoff,
                    sample_surface)
from .verify import (
    bound_profile,
    convergence_slopes,
    mms_convergence,
    omega_sweep,
    poincare_check,
    pullback_identity_check,
    rellich_residual,
    SweepConfig,
)

__all__ = ["main", "run_command"]


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _csv_cell(v) -> str:
    """CSV text of one cell: floats (np.float64 too) as the shortest repr of
    the Python float, anything else as str(), quoted when it holds a comma, a
    quote or a line break."""
    if isinstance(v, float):
        return repr(float(v))
    text = str(v)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a header line and the rows, each line ending in "\\n".

    `rows` is a list of rows, or a 2-D array of floats and cell text, which
    is formatted in one `%s` pass over its Python scalars (the str of a
    Python float is its repr, its CSV text).
    """
    text = ",".join(map(_csv_cell, header)) + "\n"
    if isinstance(rows, np.ndarray):
        n, m = rows.shape
        text += ((",".join(["%s"] * m) + "\n") * n) % tuple(
            rows.ravel().tolist())
    else:
        text += "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    path.write_text(text, newline="")


def _write_checks(out: Path, rows) -> int:
    """Write checks.csv, one [check_name, lhs, rhs, ok, tolerance] row per
    check; the exit status is 0 when every ok holds, 1 otherwise."""
    _write_csv(out / "checks.csv",
               ["check_name", "lhs", "rhs", "ok", "tolerance"], rows)
    return 0 if all(row[3] for row in rows) else 1


def _svg_loglog(path: Path, xs, series: dict[str, list[float]]) -> None:
    """Minimal deterministic log-log SVG: one polyline per series."""
    width, height, margin = 640, 480, 60
    lx = [math.log10(v) for v in xs]
    ly_all = [math.log10(v) for ys in series.values() for v in ys]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly_all), max(ly_all)
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def py(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
    ]
    styles = ["stroke:#1f77b4;fill:none;stroke-width:2",
              "stroke:#d62728;fill:none;stroke-width:1.5;stroke-dasharray:6 4",
              "stroke:#2ca02c;fill:none;stroke-width:1.5"]
    for k, (name, ys) in enumerate(series.items()):
        pts = " ".join(f"{px(math.log10(x)):.2f},{py(math.log10(y)):.2f}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" style="{styles[k % 3]}"/>')
        parts.append(f'<text x="{margin + 10}" y="{margin + 20 + 16 * k}" '
                     f'style="font-size:12px;fill:black">{name}</text>')
    for v in lx:
        parts.append(f'<text x="{px(v):.2f}" y="{height - margin + 16}" '
                     f'style="font-size:10px;fill:black" '
                     f'text-anchor="middle">{10 ** v:.3g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 14}" '
                 'style="font-size:12px;fill:black" text-anchor="middle">'
                 'omega (log)</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = override or os.environ.get("ELASTODTN_OUT") or cfg.output_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(cfg: RunConfig, out: Path) -> int:
    p = cfg.make_params()
    geom = cfg.make_geometry()
    mesh = build_mesh(geom.surface, geom.h, cfg.nx, cfg.ny)
    src = cfg.make_source()
    system = assemble_B(mesh, p)
    load = assemble_load(mesh, src, src.support_elements(mesh.quadrature))
    sol = solve(system, load)
    # the node coordinates' text, shared with mesh.txt, then the (re, im)
    # view of the complex (n_nodes, 2) values: re_u1 im_u1 re_u2 im_u2
    xy = mesh.node_text()
    table = np.column_stack([xy, sol.values.view(float)])
    _write_csv(out / "solution.csv",
               ["x1", "x2", "re_u1", "im_u1", "re_u2", "im_u2"], table)
    n = sol.norms
    _write_csv(out / "norms.csv",
               ["omega", "h", "l2", "h1", "d2", "trace_l2_top"],
               [[p.omega, cfg.h, n["l2"], n["h1"], n["d2"], n["trace_l2_top"]]])
    (out / "mesh.txt").write_text(mesh.dump(xy))
    return 0


def _cmd_mms(cfg: RunConfig, out: Path) -> int:
    p = cfg.make_params()
    geom = cfg.make_geometry()
    table = mms_convergence(p, geom, cfg.levels)
    rows = [[lev, row["mesh_size"], row["h1_error"], row["l2_error"]]
            for lev, row in enumerate(table)]
    _write_csv(out / "mms.csv", ["level", "mesh_size", "h1_error", "l2_error"],
               rows)
    return _write_checks(out, _mms_slope_checks(table))


def _mms_slope_checks(table) -> list:
    """checks.csv rows of the finest observed H1 and L2 orders."""
    h1 = convergence_slopes(table, "h1_error")[-1]
    l2 = convergence_slopes(table, "l2_error")[-1]
    return [["mms_h1_slope", h1, 1.3, 0.8 <= h1 <= 1.3, 0.8],
            ["mms_l2_slope", l2, 2.4, 1.6 <= l2 <= 2.4, 1.6]]


def _cmd_sweep(cfg: RunConfig, out: Path) -> int:
    geom = cfg.make_geometry()
    src = cfg.make_source()
    sweep = omega_sweep(SweepConfig(
        lam=cfg.lam, mu=cfg.mu, omegas=tuple(cfg.omega_list), geom=geom,
        source=src, nx=cfg.nx, ny=cfg.ny))
    rows = []
    for i, (om, r, env) in enumerate(zip(sweep.omegas, sweep.ratios,
                                         sweep.profile_envelope)):
        slope = 0.0 if i == 0 else (
            math.log(sweep.ratios[i] / sweep.ratios[i - 1])
            / math.log(sweep.omegas[i] / sweep.omegas[i - 1]))
        rows.append([om, r, env, slope])
    _write_csv(out / "sweep.csv",
               ["omega", "ratio", "envelope", "slope_running"], rows)
    _svg_loglog(out / "sweep.svg", sweep.omegas,
                {"ratio": sweep.ratios, "envelope": sweep.profile_envelope})
    ok = (sweep.fitted_slope <= 3.3
          and all(r <= e * (1.0 + 1e-9) for r, e in
                  zip(sweep.ratios, sweep.profile_envelope)))
    return _write_checks(
        out, [["omega_sweep_slope", sweep.fitted_slope, 3.3, ok, 0.0]])


def _gate_random(cfg: RunConfig):
    geom = cfg.make_geometry()
    gap, ok = height_condition(geom)
    if not ok:
        raise GeometryError(
            f"height condition violated: (M-m)/gap = "
            f"{(cfg.M - cfg.m) / gap:.6g} >= 1; increase geometry.h")
    return geom, gap


def _cmd_ensemble(cfg: RunConfig, out: Path) -> int:
    geom, _ = _gate_random(cfg)
    p = cfg.make_params()
    model = cfg.make_model()
    spec = cfg.make_source_spec()
    mesh = build_mesh(geom.surface, geom.h, cfg.nx, cfg.ny)
    l0 = model.f0.lipschitz + model.norm_bound
    profile = bound_profile(p.omega, cfg.h, cfg.m, l0)
    # the anchor solve (when the constant is not given) runs in the
    # ensemble's pool on its reference system, overlapping the samples
    anchor = None if cfg.calibrated_c > 0.0 else functools.partial(
        _deterministic_anchor, cfg, profile)
    res = montecarlo.run_ensemble(
        model, spec, p, mesh, cfg.N, parallelism=cfg.parallelism,
        anchor=anchor, delta=cfg.delta or None,
        epsilon_margin=cfg.epsilon_margin)
    _write_csv(out / "ensemble.csv",
               ["index", "u_h1_sq", "u_ref_h1_sq", "g_h1_sq", "min_detJ"],
               [[r["index"], r["u_h1_sq"], r["u_ref_h1_sq"], r["g_h1_sq"],
                 r["min_detJ"]] for r in res.per_sample])

    c = cfg.calibrated_c if anchor is None \
        else cfg.anchor_safety * res.anchor
    check = montecarlo.meansquare_envelope_check(res, profile, c)
    return _write_checks(out, [["meansquare_envelope", check["lhs"],
                                check["rhs"], check["ok"], 0.0]])


def _deterministic_anchor(cfg: RunConfig, profile, system) -> float:
    """Envelope constant calibrated on the unperturbed deterministic solve
    of the ensemble's reference system, by LU.  It runs in the ensemble's
    pool, so BLAS is pinned as for the samples and checks.csv does not
    depend on the BLAS thread setting."""
    mesh = system.mesh
    src = cfg.make_source()
    elems = src.support_elements(mesh.quadrature)
    sol = solve(system, assemble_load(mesh, src, elems))
    gn = verify.source_norms(mesh, src, elems)["h1"]
    return profile.anchor_constant(sol.norms["h1"], gn)


def _cmd_verify_all(cfg: RunConfig, out: Path) -> int:
    geom, gap = _gate_random(cfg)
    p = cfg.make_params()
    src = cfg.make_source()
    # Two lanes that share no mutable state: the symbol rows and then the
    # pullback row here, the solve rows and then the MMS on one helper
    # thread when the process may use two CPUs (on one CPU two lanes ran
    # 8-15% slower than one).  One OpenBLAS pin covers both, so no byte
    # depends on the scheduling; the rows are read, and the first error
    # raised, in the serial order: symbols, solve rows, pullback, MMS.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    with _single_thread_blas:
        pool = ThreadPoolExecutor(max_workers=1) if cpus > 1 else None
        submit = _run_here if pool is None else pool.submit
        try:
            solve_rows = submit(_solve_rows, cfg, geom, p, src)
            mms = submit(mms_convergence, p, geom, 3)
            checks = _symbol_rows(cfg, p)
            pullback = _run_here(_pullback_row, cfg, p, gap, src)
            checks += solve_rows.result()
            checks.append(pullback.result())
            checks += _mms_slope_checks(mms.result())
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
    return _write_checks(out, checks)


def _run_here(fn, *args) -> Future:
    """fn(*args) run on the calling thread, its value or error held in a
    done future, to be raised where its rows are read."""
    fut = Future()
    try:
        fut.set_result(fn(*args))
    except Exception as exc:
        fut.set_exception(exc)
    return fut


def _symbol_rows(cfg: RunConfig, p) -> list:
    """The DtN symbol rows, then the projection-algebra and keystone rows."""
    grid = dtn.sweep_grid(p, 1000)
    rep = dtn.symbol_bound_check(p, grid)
    checks = [["symbol_neg_def", 1.0 if rep["neg_def_ok"] else 0.0, 1.0,
               rep["neg_def_ok"], 0.0]]
    ratios = []
    for om in (1.0, 2.0, 4.0, 8.0, 16.0):
        pp = cfg.make_params(om)
        ratios.append(dtn.symbol_bound_check(
            pp, dtn.sweep_grid(pp, 1000))["interior_ratio"])
    spread = max(ratios) / min(ratios)
    checks.append(["symbol_interior_uniform", spread, 2.0, spread < 2.0, 0.0])
    c1 = rep["c_of_omega"]
    c2 = dtn.symbol_bound_check(p, dtn.sweep_grid(p, 4000))["c_of_omega"]
    rel = abs(c2 - c1) / c1
    checks.append(["symbol_growth_stable", rel, 0.01, rel < 0.01, 0.0])

    gen = keyed_generator(cfg.seed, 1)
    dev = _projection_deviation(p, gen, 1000)
    checks.append(["projection_algebra", dev, 1e-12, dev < 1e-12, 0.0])
    key_dev = _keystone_deviation(p, gen, 100)
    checks.append(["keystone_traction", key_dev, 1e-10, key_dev < 1e-10, 0.0])
    return checks


def _solve_rows(cfg: RunConfig, geom, p, src) -> list:
    """The Galerkin-residual, Rellich and Poincare rows of one solve."""
    mesh = build_mesh(geom.surface, geom.h, cfg.nx, cfg.ny)
    elems = src.support_elements(mesh.quadrature)
    system = assemble_B(mesh, p)
    load = assemble_load(mesh, src, elems)
    sol = solve(system, load)
    xvec = free_vector(mesh, sol.values)
    gl2 = verify.source_norms(mesh, src, elems)["l2"]
    res_inf = float(np.max(np.abs(system.matrix @ xvec - load)))
    checks = [["galerkin_residual", res_inf, 1e-9 * gl2,
               res_inf <= 1e-9 * gl2, 0.0]]

    rel_res = rellich_residual(sol, src, p)
    tol_disc = mesh.meshsize() * (sol.norms["h1"] ** 2
                                  + gl2 * sol.norms["h1"])
    checks.append(["rellich_inequality", rel_res["lhs"],
                   rel_res["rhs"] + tol_disc,
                   rel_res["lhs"] <= rel_res["rhs"] + tol_disc, tol_disc])

    # Poincare with random surface-vanishing fields
    hm = cfg.h - cfg.m
    bound = hm / math.sqrt(2.0) * (1.0 + 5.0 * mesh.meshsize())
    worst = poincare_check(mesh, 20, cfg.seed)
    checks.append(["poincare_random", worst, bound, worst <= bound, 0.0])
    return checks


def _pullback_row(cfg: RunConfig, p, gap, src) -> list:
    """The pullback-identity row, on one sampled map."""
    model = cfg.make_model()
    f1 = sample_surface(model, 0)
    cutoff = make_cutoff(cfg.delta or None, gap)
    dmap = DomainMap(f0=model.f0, f_eta=f1, cutoff=cutoff,
                     epsilon_margin=cfg.epsilon_margin)
    pb = pullback_identity_check(dmap, p, 2, nx=64, ny=64, source=src,
                                 seed=cfg.seed)
    return ["pullback_identity", pb["max_discrepancy"], 1e-6,
            pb["max_discrepancy"] < 1e-6, 0.0]


def _projection_deviation(p, gen, n_xis: int) -> float:
    """Largest entry of Mp + Ms - I, Mp^2 - Mp and Mp Ms over n_xis
    frequencies drawn uniformly from (-5 k_s, 5 k_s)."""
    xis = gen.uniform(-5.0 * p.k_s, 5.0 * p.k_s, n_xis)
    mp, ms = dtn.projection_matrices(xis, p)
    return max(float(np.max(np.abs(mp + ms - np.eye(2)))),
               float(np.max(np.abs(mp @ mp - mp))),
               float(np.max(np.abs(mp @ ms))))


def _keystone_deviation(p, gen, n_pairs: int) -> float:
    """Max entrywise gap between the traction of the exact upgoing field and
    the symbol applied to its trace, over n_pairs random (xi, trace) pairs."""
    xi = np.empty(n_pairs)
    a = np.empty((n_pairs, 2), dtype=complex)
    for k in range(n_pairs):  # draw order: xi, then the trace, per pair
        xi[k] = gen.uniform(-5.0 * p.k_s, 5.0 * p.k_s)
        a[k] = gen.standard_normal(2) + 1j * gen.standard_normal(2)

    def apply(m):  # (n_pairs, 2, 2) matrices times the traces
        return (m @ a[..., None])[..., 0]

    mp, ms = dtn.projection_matrices(xi, p)
    g_p = dtn.gamma(xi, p.k_p)[:, None]
    g_s = dtn.gamma(xi, p.k_s)[:, None]
    dz = 1j * (g_p * apply(mp) + g_s * apply(ms))
    grad = np.stack([1j * xi[:, None] * a, dz], axis=2)
    div = 1j * xi * a[:, 0] + dz[:, 1]
    t = dtn.traction(grad, div[:, None], (0.0, 1.0), p)
    return float(np.max(np.abs(t - apply(dtn.symbol_matrices(xi, p)))))


_DISPATCH = {
    "solve": _cmd_solve,
    "mms": _cmd_mms,
    "sweep-omega": _cmd_sweep,
    "ensemble": _cmd_ensemble,
    "verify-all": _cmd_verify_all,
}


def run_command(cfg: RunConfig, out_override: str | None = None) -> int:
    """Validate cfg, then execute cfg.command; returns the process exit
    status (0 or 1)."""
    validate(cfg)
    out = _out_dir(cfg, out_override)
    (out / "resolved.cfg").write_text(resolved_text(cfg))
    return _DISPATCH[cfg.command](cfg, out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="elastodtn",
        description="Elastic rough-surface scattering solver and "
                    "verification harness")
    parser.add_argument("command", choices=sorted(_DISPATCH))
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override surface_model.seed")
    parser.add_argument("--parallelism", type=int, default=None,
                        help="override run.parallelism")
    args = parser.parse_args(argv)
    try:
        overrides = {"command": args.command}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.parallelism is not None:
            overrides["parallelism"] = args.parallelism
        return run_command(load_config(args.config, **overrides), args.out)
    except ElastoDtnError as exc:
        print(f"elastodtn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
