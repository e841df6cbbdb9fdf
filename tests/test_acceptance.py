"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; nothing is calibrated at run
time except the single anchored envelope constant, whose recipe (2x the
deterministic anchor at the smallest frequency) is itself fixed.
"""

import math

import numpy as np

from elastodtn.cli import _keystone_deviation, main
from elastodtn.dtn import (
    gamma,
    projection_matrices,
    symbol_bound_check,
    symbol_matrices,
    sweep_grid,
    traction,
)
from elastodtn.errors import MapSingularError
from elastodtn.fem import (
    assemble_B,
    assemble_load,
    solve,
)
from elastodtn.mesh import build_mesh
from elastodtn.model import (
    DomainMap,
    Geometry,
    RandomSurfaceModel,
    SourceSpec,
    cosine_surface,
    flat_surface,
    make_cutoff,
    make_params,
    make_source,
    sample_surface,
)
from elastodtn.montecarlo import run_ensemble, meansquare_envelope_check
from elastodtn.verify import (
    SweepConfig,
    bound_profile,
    mms_convergence,
    omega_sweep,
    poincare_check,
    pullback_identity_check,
    rellich_residual,
    source_norms,
    _poincare_ratios,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {tag}{suffix}", flush=True)
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def _default_source():
    return SourceSpec(center=(0.5, 0.8), radius=0.15,
                      amplitude=(1.0, 0.5j), period=1.0)


def _lsq_slope(sizes, errors):
    return float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])


def test_criterion_01_dtn_keystone_consistency():
    p = make_params(1.0, 1.0, 2.0)
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        xi = float(gen.uniform(-5 * p.k_s, 5 * p.k_s))
        a = gen.standard_normal(2) + 1j * gen.standard_normal(2)
        mp, ms = projection_matrices(xi, p)
        gp = complex(gamma(xi, p.k_p))
        gs = complex(gamma(xi, p.k_s))
        dz = 1j * (gp * (mp @ a) + gs * (ms @ a))
        grad = np.stack([1j * xi * a, dz], axis=1)
        div = 1j * xi * a[0] + dz[1]
        t = traction(grad, div, (0.0, 1.0), p)
        worst = max(worst, float(np.max(np.abs(t - symbol_matrices(xi, p) @ a))))
    # verify-all's vectorized check draws the same pairs from the generator
    assert _keystone_deviation(p, np.random.default_rng(101), 100) == worst
    _report(1, "dtn keystone consistency", worst < 1e-10,
            f"max entrywise dev {worst:.3e} < 1e-10")


def test_criterion_02_projection_algebra():
    p = make_params(1.0, 1.0, 2.0)
    gen = np.random.default_rng(102)
    xi = gen.uniform(-5 * p.k_s, 5 * p.k_s, 1000)
    mp, ms = projection_matrices(xi, p)
    eye = np.eye(2)
    dev = max(float(np.max(np.abs(mp + ms - eye))),
              float(np.max(np.abs(mp @ mp - mp))),
              float(np.max(np.abs(mp @ ms))))
    _report(2, "projection algebra", dev < 1e-12, f"max dev {dev:.3e} < 1e-12")


def test_criterion_03_symbol_bound_suite():
    p = make_params(1.0, 1.0, 2.0)
    neg_ok = symbol_bound_check(p, sweep_grid(p, 1000))["neg_def_ok"]
    ratios = []
    for omega in (1.0, 2.0, 4.0, 8.0, 16.0):
        pw = make_params(1.0, 1.0, omega)
        ratios.append(symbol_bound_check(
            pw, sweep_grid(pw, 1000))["interior_ratio"])
    spread = max(ratios) / min(ratios)
    c1 = symbol_bound_check(p, sweep_grid(p, 1000))["c_of_omega"]
    c2 = symbol_bound_check(p, sweep_grid(p, 4000))["c_of_omega"]
    rel = abs(c2 - c1) / c1
    ok = neg_ok and spread < 2.0 and math.isfinite(c1) and rel < 0.01
    _report(3, "symbol bound suite", ok,
            f"neg_def={neg_ok}, interior spread {spread:.3f}x < 2, "
            f"growth-const drift {rel:.2e} < 1%")


def test_criterion_04_mms_convergence():
    p = make_params(1.0, 1.0, 4.0)
    detail = []
    ok = True
    for kind, surf in (
        ("flat", flat_surface(0.25, 0.2, 0.3, period=3.0)),
        ("wavy", cosine_surface(0.25, [0.04], [1], [0.0], 0.2, 0.3,
                                period=3.0)),
    ):
        geom = Geometry(surface=surf, h=1.25)
        table = mms_convergence(p, geom, 4)
        sizes = [row["mesh_size"] for row in table]
        s_h1 = _lsq_slope(sizes, [row["h1_error"] for row in table])
        s_l2 = _lsq_slope(sizes, [row["l2_error"] for row in table])
        ok = ok and 0.8 <= s_h1 <= 1.3 and 1.6 <= s_l2 <= 2.4
        detail.append(f"{kind}: H1 {s_h1:.2f}, L2 {s_l2:.2f}")
    # solver residual on a representative solve
    geom = Geometry(surface=flat_surface(0.25, 0.2, 0.3, period=3.0), h=1.25)
    from elastodtn.verify import default_mms_field, manufactured_source
    field = default_mms_field(p, geom)
    mesh = build_mesh(geom.surface, geom.h, 96, 36)
    system = assemble_B(mesh, p)
    load = assemble_load(mesh, manufactured_source(field))
    sol = solve(system, load)
    a = system.matrix
    x = np.empty(system.dimension, dtype=complex)
    x[0::2] = sol.values[mesh.free_nodes, 0]
    x[1::2] = sol.values[mesh.free_nodes, 1]
    res = float(np.linalg.norm(a @ x - load) / np.linalg.norm(load))
    ok = ok and res <= 1e-10
    detail.append(f"residual {res:.1e} <= 1e-10")
    _report(4, "mms convergence orders", ok, "; ".join(detail))


def test_criterion_05_rellich_inequality():
    src = make_source(_default_source(), None, f_max=0.4, h=1.4)
    geoms = {
        "flat": flat_surface(0.3, 0.2, 0.4, 1.0),
        "wavy": cosine_surface(0.3, [0.04], [1], [0.0], 0.2, 0.4, 1.0),
    }
    ok = True
    details = []
    for name, surf in geoms.items():
        for om in (2.0, 4.0, 8.0):
            p = make_params(1.0, 1.0, om)
            tols = []
            for nx, ny in ((24, 32), (48, 64), (96, 128)):
                mesh = build_mesh(surf, 1.4, nx, ny)
                system = assemble_B(mesh, p)
                sol = solve(system, assemble_load(mesh, src))
                r = rellich_residual(sol, src, p)
                tol = mesh.meshsize() * (sol.norms["h1"] ** 2
                                         + source_norms(mesh, src)["l2"]
                                         * sol.norms["h1"])
                tols.append(tol)
                ok = ok and (r["lhs"] <= r["rhs"] + tol)
            shrink = min(a / b for a, b in zip(tols, tols[1:]))
            ok = ok and shrink >= 1.5
            details.append(f"{name}/w={om:g} shrink {shrink:.2f}")
    _report(5, "rellich boundary inequality", ok, "; ".join(details[:3]) + "...")


def test_criterion_06_poincare():
    surf = flat_surface(0.3, 0.2, 0.4, 1.0)
    mesh = build_mesh(surf, 1.4, 32, 48)
    hm = 1.4 - 0.2
    bound = hm / math.sqrt(2.0) * (1.0 + 5.0 * mesh.meshsize())
    worst = poincare_check(mesh, 100, 106)
    ok = worst <= bound

    # analytic profiles on a strip of unit height
    mesh2 = build_mesh(surf, 1.3, 16, 64)
    lin = np.zeros((mesh2.n_nodes, 2), dtype=complex)
    lin[:, 0] = mesh2.nodes[:, 1] - 0.3
    (r_lin,) = _poincare_ratios(mesh2, lin[..., None])
    sin = np.zeros((mesh2.n_nodes, 2), dtype=complex)
    sin[:, 0] = np.sin(np.pi * (mesh2.nodes[:, 1] - 0.3) / 2.0)
    (r_sin,) = _poincare_ratios(mesh2, sin[..., None])
    ok = ok and abs(r_lin - 1.0 / math.sqrt(3.0)) < 1e-3
    ok = ok and abs(r_sin - 2.0 / math.pi) < 1e-3
    _report(6, "poincare inequality", ok,
            f"worst random ratio {worst:.4f} <= {bound:.4f}; "
            f"linear {r_lin:.6f}~{1 / math.sqrt(3):.6f}, "
            f"sine {r_sin:.6f}~{2 / math.pi:.6f}")


def test_criterion_07_pullback_identity():
    p = make_params(1.0, 1.0, 2.0)
    f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
    cutoff = make_cutoff(0.1375, 1.1)
    ident = DomainMap(f0=f0, f_eta=f0, cutoff=cutoff)
    r_id = pullback_identity_check(ident, p, 2, nx=48, ny=48, seed=107)
    ok = r_id["max_discrepancy"] < 1e-12

    model = RandomSurfaceModel(f0=f0, mode_count=2,
                               amplitudes=(0.015, 0.008), phases=(0.0, 1.0),
                               M0=0.3, seed=107)
    src = make_source(_default_source(), None, f_max=0.4, h=1.4)
    worst_coarse = 0.0
    decreasing = True
    for idx in range(5):
        dmap = DomainMap(f0=f0, f_eta=sample_surface(model, idx),
                         cutoff=cutoff)
        coarse = pullback_identity_check(dmap, p, 2, nx=48, ny=48,
                                         source=src, seed=idx)
        fine = pullback_identity_check(dmap, p, 2, nx=96, ny=96,
                                       source=src, seed=idx)
        worst_coarse = max(worst_coarse, coarse["max_discrepancy"])
        decreasing = decreasing and (fine["max_discrepancy"]
                                     < coarse["max_discrepancy"])
        ok = ok and coarse["max_discrepancy"] < 1e-6 \
            and fine["max_discrepancy"] < 1e-6
    ok = ok and decreasing
    _report(7, "pullback change-of-variables identity", ok,
            f"identity {r_id['max_discrepancy']:.1e} < 1e-12; "
            f"5 maps worst {worst_coarse:.2e} < 1e-6, refinement decreasing")


def test_criterion_08_frequency_envelope():
    geom = Geometry(surface=flat_surface(0.3, 0.2, 0.4, 1.0), h=1.4)
    src = make_source(_default_source(), None, f_max=0.4, h=1.4)
    omegas = tuple(2.0 * 2 ** (k / 2) for k in range(7))  # 2 .. 16
    sw = omega_sweep(SweepConfig(lam=1.0, mu=1.0, omegas=omegas, geom=geom,
                                 source=src, nx=64, ny=96))
    below = all(r <= e * (1.0 + 1e-9)
                for r, e in zip(sw.ratios, sw.profile_envelope))
    ok = sw.fitted_slope <= 3.3 and below
    _report(8, "frequency growth envelope", ok,
            f"fitted slope {sw.fitted_slope:.3f} <= 3.3; "
            f"ratios below anchored omega^3 envelope: {below}")


def test_criterion_09_random_case_suite(form_continuity):
    f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
    model = RandomSurfaceModel(f0=f0, mode_count=2, amplitudes=(0.02, 0.01),
                               phases=(0.0, 1.3), M0=0.3, seed=109)
    spec = _default_source()
    mesh = build_mesh(f0, 1.4, 24, 32)
    p2 = make_params(1.0, 1.0, 2.0)
    gap = 1.4 - 0.3
    delta = gap / 8.0

    # (a) determinism across parallelism at N = 64
    serial = run_ensemble(model, spec, p2, mesh, 64, parallelism=1,
                          delta=delta)
    threaded = run_ensemble(model, spec, p2, mesh, 64, parallelism=8,
                            delta=delta)
    det_ok = serial == threaded

    # (b) per-sample invertibility margin
    margin = 1.0 - (0.4 - 0.2) / (gap - 1.5 * delta)
    min_detj = min(r["min_detJ"] for r in serial.per_sample)
    inv_ok = min_detj >= margin

    # (c) operator-continuity ratio boundedness over a shrinking sequence
    src0 = make_source(spec, None, f_max=0.4, h=1.4)
    dspec = SourceSpec(center=(0.45, 0.9), radius=0.12,
                       amplitude=(0.3, 0.2), period=1.0)
    dg = make_source(dspec, None, f_max=0.4, h=1.4)
    fseq = [cosine_surface(0.3, [0.01 * 2.0 ** (-m)], [1], [0.5],
                           0.2, 0.4, 1.0) for m in range(1, 7)]
    gseq = [lambda pts, s=2.0 ** (-m): src0(pts) + s * dg(pts)
            for m in range(1, 7)]
    cont = form_continuity(f0, fseq, src0, gseq, p2, h=1.4,
                           nx=24, ny=32, delta=delta,
                           n_batch=32, seed=109)
    b = cont["b_ratios"]
    ratio_ok = max(b) / float(np.median(b)) <= 3.0

    # (d) mean-square envelope with one anchored constant across omega
    from elastodtn.fem import assemble_B as _asm, assemble_load as _ld
    l0 = f0.lipschitz + model.norm_bound
    prof2 = bound_profile(2.0, 1.4, 0.2, l0)
    sys0 = _asm(mesh, p2)
    sol0 = solve(sys0, _ld(mesh, src0))
    gn = source_norms(mesh, src0)["h1"]
    anchor = sol0.norms["h1"] ** 2 / (
        (prof2.h + 2.0 - prof2.m) ** 2
        * (prof2.c4 + prof2.c5 + prof2.c6) ** 2 * gn ** 2)
    calibrated = 2.0 * anchor
    env_ok = True
    for om in (2.0, 4.0, 8.0):
        pw = make_params(1.0, 1.0, om)
        res = run_ensemble(model, spec, pw, mesh, 32, parallelism=8,
                           delta=delta)
        prof = bound_profile(om, 1.4, 0.2, l0)
        env_ok = env_ok and meansquare_envelope_check(res, prof, calibrated)["ok"]

    ok = det_ok and inv_ok and ratio_ok and env_ok
    _report(9, "random-case suite", ok,
            f"determinism={det_ok}; min detJ {min_detj:.4f} >= {margin:.4f}; "
            f"ratio max/median {max(b) / float(np.median(b)):.3f} <= 3; "
            f"anchored envelope across omega: {env_ok}")


def test_criterion_10_negative_controls(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[geometry]\nh = 0.55\nm = 0.2\nM = 0.4\nf0_level = 0.39\n"
        "[source]\ncenter = 0.5, 0.47\nradius = 0.05\n")
    out = tmp_path / "out"
    status = main(["verify-all", "--config", str(bad), "--out", str(out)])
    gate_ok = status == 2 and not (out / "checks.csv").exists()

    f0 = flat_surface(0.4, 0.0, 3.0, 1.0)
    cutoff = make_cutoff(0.2, 2.0)  # slope limit 1/1.7
    raised = False
    try:
        DomainMap(f0=f0, f_eta=flat_surface(2.2, 0.0, 3.0, 1.0),
                  cutoff=cutoff)
    except MapSingularError:
        raised = True
    ok = gate_ok and raised
    _report(10, "negative controls", ok,
            f"height gate exit 2: {gate_ok}; jacobian overrun raised: {raised}")
