"""Shared builders for the default verification geometry.

One periodic cell of width 1 with a surface near x2 = 0.3 (declared envelope
0.2 < f < 0.4), measured height 1.4, and a bump source in the clear band.
Also the form-continuity estimate that the random-case tests share.
"""

import math

import numpy as np
import pytest

from elastodtn import fem
from elastodtn.fem import (
    FieldSolution,
    assemble_B,
    assemble_B_transformed,
    assemble_load,
    assemble_load_transformed,
    map_quadrature,
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
)
from elastodtn.verify import _random_free_fields


H_DEFAULT = 1.4


@pytest.fixture
def flat_geom():
    return Geometry(surface=flat_surface(0.3, 0.2, 0.4, 1.0), h=H_DEFAULT)


@pytest.fixture
def wavy_geom():
    surf = cosine_surface(0.3, [0.04], [1], [0.0], 0.2, 0.4, 1.0)
    return Geometry(surface=surf, h=H_DEFAULT)


@pytest.fixture
def source_spec():
    return SourceSpec(center=(0.5, 0.8), radius=0.15,
                      amplitude=(1.0, 0.5j), period=1.0)


@pytest.fixture
def bump(source_spec):
    return make_source(source_spec, None, f_max=0.4, h=H_DEFAULT)


@pytest.fixture
def params2():
    return make_params(1.0, 1.0, 2.0)


@pytest.fixture
def surface_model():
    return RandomSurfaceModel(
        f0=flat_surface(0.3, 0.2, 0.4, 1.0), mode_count=2,
        amplitudes=(0.02, 0.01), phases=(0.0, 1.3), M0=0.3, seed=42)


@pytest.fixture
def openblas_at_two():
    """Every loaded OpenBLAS at 2 threads, so a missing pin or a missing
    restore is visible; the original counts are restored afterwards."""
    controls = fem._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    assert [get() for get, _ in controls] == [2] * len(controls)
    yield controls
    for (_, set_threads), count in zip(controls, before):
        set_threads(count)


def _surface_distance_1inf(fa, fb, period: float) -> float:
    """Dense-grid sup|fa - fb| + sup|fa' - fb'|."""
    x = np.linspace(0.0, period, 10000, endpoint=False)
    return float(np.max(np.abs(fa.f(x) - fb.f(x)))
                 + np.max(np.abs(fa.df(x) - fb.df(x))))


def _form_continuity(f0, f_sequence, g0, g_sequence, p, h, nx, ny, delta,
                     n_batch, seed) -> dict:
    """Discrepancies of the pulled-back form and load along (f_m, g_m) ->
    (f0, g0), on the reference mesh of f0 and over the pairs (u_i, u_i+1)
    of n_batch random fields of unit H1 norm:

    b_ratios[m] = max_pairs |B_m(u,v) - B(u,v)| / ||f_m - f0||_{1,inf};
    g_ratios[m] = max_v |G_m(v) - G(v)| / (||g_m - g0||_L2 + ||f_m - f0||_{1,inf});
    sol_errors[m] = ||u_m - u||_H1.

    The DtN block cancels in B_m - B: what this sees is the continuity in
    (f, g) of the form the random case's measurability argument needs."""
    mesh = build_mesh(f0, h, nx, ny)
    cutoff = make_cutoff(delta, h - f0.sup())
    base = assemble_B(mesh, p)
    load0 = assemble_load(mesh, g0)
    sol0 = solve(base, load0)
    vecs = [fem.free_vector(mesh, vec / FieldSolution(
                mesh=mesh, values=vec).norms["h1"])
            for vec in np.moveaxis(_random_free_fields(mesh, n_batch, seed),
                                   -1, 0)]
    pairs = [(u, vecs[(i + 1) % len(vecs)]) for i, u in enumerate(vecs)]

    q = mesh.quadrature
    g0_vals = np.asarray(g0(q.points), dtype=complex)
    b_ratios, g_ratios, sol_errors = [], [], []
    for fm, gm in zip(f_sequence, g_sequence):
        dist_f = _surface_distance_1inf(fm, f0, f0.period)
        mq = map_quadrature(q, DomainMap(f0=f0, f_eta=fm, cutoff=cutoff))
        sys_m = assemble_B_transformed(mesh, p, mq)
        diff = (sys_m.matrix - base.matrix).tocsr()
        disc = max(abs(complex(np.vdot(v, diff @ u))) for u, v in pairs)
        b_ratios.append(disc / dist_f if dist_f > 0 else 0.0)

        gm_vals = np.asarray(gm(q.points), dtype=complex)
        load_m = assemble_load_transformed(mesh, gm_vals, mq)
        dload = load_m - load0
        g_disc = max(abs(complex(np.vdot(v, dload))) for _, v in pairs)
        dist_g = math.sqrt(float(q.integral(np.abs(gm_vals - g0_vals) ** 2)))
        denom = dist_g + dist_f
        g_ratios.append(g_disc / denom if denom > 0 else 0.0)

        sol_m = solve(sys_m, load_m)
        sol_errors.append(FieldSolution(
            mesh=mesh, values=sol_m.values - sol0.values).norms["h1"])
    return {"b_ratios": b_ratios, "g_ratios": g_ratios,
            "sol_errors": sol_errors}


@pytest.fixture
def form_continuity():
    """The form-continuity estimate, `_form_continuity`."""
    return _form_continuity
