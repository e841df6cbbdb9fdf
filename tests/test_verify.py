"""Manufactured solutions, inequality checks, sweeps, pullback, continuity."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from elastodtn.errors import InternalError, MmsError, SweepError
from elastodtn.fem import (
    FieldSolution,
    MappedQuadrature,
    assemble_B,
    assemble_load,
    map_quadrature,
    solve,
    strip_preconditioner,
    trace_coefficients,
)
from elastodtn import fem
from elastodtn.mesh import DofPattern, build_mesh, nyquist_index
from elastodtn.model import (
    DomainMap,
    ElasticParams,
    Geometry,
    cosine_surface,
    flat_surface,
    keyed_generator,
    make_cutoff,
    make_params,
    make_source,
    sample_surface,
    SourceSpec,
)
from elastodtn.dtn import (
    TraceCoefficients,
    apply_dtn,
    gamma,
    projection_matrices,
    symbol_matrices,
)
from elastodtn import cli
from elastodtn.config import RunConfig
from elastodtn import verify
from elastodtn.verify import (
    _poincare_ratios,
    _pullback_integrals,
    _random_free_fields,
    _rellich_integrand,
    _support_elements,
    SmoothStep,
    SmoothWindow,
    SweepConfig,
    TrigPolyField,
    UpgoingModesField,
    bound_profile,
    convergence_slopes,
    default_mms_field,
    manufactured_source,
    mms_convergence,
    omega_sweep,
    poincare_check,
    pullback_identity_check,
    rellich_residual,
    source_norms,
)


# The tests' reference oracles: the closed-form MMS source against finite
# differences, and the Rellich boundary integral from uniform samples.

def navier_apply_fd(value_fn, p: ElasticParams, pts, step: float = 0.01):
    """mu Lap(u) + (lam+mu) grad(div u) + omega^2 u by 4th-order differences
    with one Richardson extrapolation level (6th order overall).

    Accuracy on unit-amplitude fields with wavenumbers ~k: about (k*step)^6;
    the default step targets ~1e-10 for k of order one.
    """
    pts = np.asarray(pts, dtype=float)

    def apply_at(hh):
        def d(axis, order):
            shifts = {1: [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)],
                      2: [(-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)]}
            den = 12.0 * hh if order == 1 else 12.0 * hh * hh
            acc = 0.0
            for k, w in shifts[order]:
                q = pts.copy()
                q[..., axis] += k * hh
                acc = acc + w * np.asarray(value_fn(q), dtype=complex)
            return acc / den

        lap = d(0, 2) + d(1, 2)
        # grad(div u): [d1(div), d2(div)] with div = d1 u1 + d2 u2
        def div_at(q):
            def dd(axis):
                shifts = [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]
                acc = 0.0
                for k, w in shifts:
                    r = q.copy()
                    r[..., axis] += k * hh
                    acc = acc + w * np.asarray(value_fn(r), dtype=complex)[..., axis]
                return acc / (12.0 * hh)
            return dd(0) + dd(1)

        graddiv = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
        shifts = [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]
        for axis in range(2):
            acc = 0.0
            for k, w in shifts:
                q = pts.copy()
                q[..., axis] += k * hh
                acc = acc + w * div_at(q)
            graddiv[..., axis] = acc / (12.0 * hh)
        u = np.asarray(value_fn(pts), dtype=complex)
        return p.mu * lap + (p.lam + p.mu) * graddiv + p.omega ** 2 * u

    coarse = apply_at(step)
    fine = apply_at(step / 2.0)
    return (16.0 * fine - coarse) / 15.0


def rellich_lhs_samples(u_vals: np.ndarray, grad_vals: np.ndarray,
                        p: ElasticParams, period: float) -> float:
    """Top-boundary integral from uniform samples of the trace and gradient.

    u_vals (N, 2) and grad_vals (N, 2, 2) sample x1 = k*period/N on the top
    line; the trapezoid rule and a plain DFT are exact for band-limited data,
    which makes this the analytic cross-check path for single-mode fields.
    """
    u_vals = np.asarray(u_vals, dtype=complex)
    n = u_vals.shape[0]
    x = np.arange(n) * (period / n)
    trace = TraceCoefficients(
        period=period, ns=((np.arange(n) + n // 2) % n) - n // 2,
        coef=np.fft.fft(u_vals, axis=0) / n)
    tu = apply_dtn(trace, p).values(x)
    return float(_rellich_integrand(tu, u_vals, grad_vals, p).mean() * period)


def _mms_geometry(kind="flat"):
    if kind == "flat":
        surf = flat_surface(0.25, 0.2, 0.3, period=3.0)
    else:
        surf = cosine_surface(0.25, [0.04], [1], [0.0], 0.2, 0.3, period=3.0)
    return Geometry(surface=surf, h=1.25)


class TestBoundProfile:
    def test_hand_values(self):
        prof = bound_profile(1.0, 1.0, 0.0, 0.0)  # h - m = 1, H - m = 2
        assert prof.c1 == pytest.approx(2.0)
        assert prof.c4 == pytest.approx(2.0)
        assert prof.c2 == pytest.approx(math.sqrt(2.0) * 3.0)
        assert prof.c3 == pytest.approx(2.0 * 9.0)

    def test_monotone_in_omega(self):
        omegas = np.linspace(1.0, 32.0, 80)
        for key in ("c1", "c2", "c3", "c4", "c5", "c6"):
            vals = [getattr(bound_profile(om, 1.4, 0.2, 0.5), key)
                    for om in omegas]
            assert all(b > a for a, b in zip(vals, vals[1:])), key

    def test_lipschitz_factor_in_c1(self):
        a = bound_profile(2.0, 1.4, 0.2, 0.0)
        b = bound_profile(2.0, 1.4, 0.2, 1.0)
        assert b.c1 / a.c1 == pytest.approx(math.sqrt(2.0))


class TestManufacturedSource:
    def test_homogeneous_upgoing_wave_gives_zero_source(self, params2):
        # chi == 1 throughout the strip: exact solution, g vanishes
        field = UpgoingModesField(params2, 1.0, [(0, 1.0)], band=(-2.0, -1.0))
        pts = np.stack([np.linspace(0, 1, 7), np.linspace(0.5, 1.3, 7)],
                       axis=-1)
        assert np.max(np.abs(field.source(pts))) == 0.0
        g_fd = navier_apply_fd(field.value, params2, pts)
        assert np.max(np.abs(g_fd)) < 1e-9

    def test_hand_example_vertical_sine(self):
        # u = (0, sin(pi x2)), lam = mu = 1, omega = 2
        p = make_params(1.0, 1.0, 2.0)

        def value(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
            out[..., 1] = np.sin(np.pi * pts[..., 1])
            return out

        pts = np.array([[0.3, 0.55], [0.7, 0.82]])
        got = navier_apply_fd(value, p, pts)
        expect = (4.0 - 3.0 * np.pi ** 2) * np.sin(np.pi * pts[:, 1])
        assert np.max(np.abs(got[:, 1] - expect)) < 1e-8
        assert np.max(np.abs(got[:, 0])) < 1e-10

    def test_closed_form_matches_fd_inside_band(self):
        geom = _mms_geometry()
        p = make_params(1.0, 1.0, 4.0)
        field = default_mms_field(p, geom)
        lo, hi = field.chi.lo, field.chi.hi
        x2 = np.linspace(lo + 0.03, hi - 0.03, 9)
        pts = np.stack([np.linspace(0.1, 2.9, 9), x2], axis=-1)
        g_fd = navier_apply_fd(field.value, p, pts, step=0.004)
        assert np.max(np.abs(g_fd - field.source(pts))) < 1e-8

    @pytest.mark.parametrize("kind", ["flat", "cosine"])
    def test_value_grad_bitwise_equals_stacked_formula(self, kind):
        # oracle: the former formula, which stacked (xi, g) into a full
        # array and broadcast it against each derivative; at the rule's
        # points of all three levels of the default manufactured problem
        geom = _mms_geometry(kind)
        p = make_params(1.0, 1.0, 4.0)
        field = default_mms_field(p, geom)

        def stacked(pts):
            x1, x2 = pts[..., 0], pts[..., 1]
            ch, dch = field.chi.value_d1(x2)
            val = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
            grad = np.zeros(pts.shape[:-1] + (2, 2), dtype=complex)
            for xi, g, c in field.modes:
                e = np.exp(1j * (xi * x1 + g * x2))
                val[..., 0] += c * xi * ch * e
                val[..., 1] += c * g * ch * e
                comp = np.stack([np.full_like(e, xi), np.full_like(e, g)],
                                axis=-1)
                d1 = 1j * xi * ch * e
                d2 = (dch + 1j * g * ch) * e
                grad[..., 0] += c * comp * d1[..., None]
                grad[..., 1] += c * comp * d2[..., None]
            return val, grad

        ny0 = max(8, math.ceil((geom.h - geom.surface.f_min) * 8))
        for lev in range(3):               # mms_convergence's levels
            mesh = build_mesh(geom.surface, geom.h, 24 * 2 ** lev,
                              ny0 * 2 ** lev)
            pts = mesh.quadrature.points
            for got, expect in zip(field.value_grad(pts), stacked(pts)):
                assert got.tobytes() == expect.tobytes()

    def test_source_linearity(self, params2):
        f1 = UpgoingModesField(params2, 1.0, [(0, 1.0)], band=(0.4, 0.6))
        f2 = UpgoingModesField(params2, 1.0, [(1, 0.5j)], band=(0.4, 0.6))
        both = UpgoingModesField(params2, 1.0, [(0, 1.0), (1, 0.5j)],
                                 band=(0.4, 0.6))
        pts = np.stack([np.linspace(0, 1, 11), np.linspace(0.41, 0.59, 11)],
                       axis=-1)
        assert np.max(np.abs(f1.source(pts) + f2.source(pts)
                             - both.source(pts))) < 1e-12

    def test_nonperiodic_field_rejected(self):
        class Bad:
            period = 1.0

            def value(self, pts):
                pts = np.asarray(pts, dtype=float)
                out = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
                out[..., 0] = pts[..., 0]
                return out

        with pytest.raises(MmsError):
            manufactured_source(Bad())


class TestMmsConvergence:
    def test_flat_surface_orders(self):
        p = make_params(1.0, 1.0, 4.0)
        table = mms_convergence(p, _mms_geometry("flat"), 3)
        h1 = convergence_slopes(table, "h1_error")
        l2 = convergence_slopes(table, "l2_error")
        assert 0.8 <= h1[-1] <= 1.3
        assert 1.6 <= l2[-1] <= 2.4

    def test_low_frequency_sanity(self):
        p = make_params(1.0, 1.0, 0.5)
        table = mms_convergence(p, _mms_geometry("flat"), 3)
        errs = [row["h1_error"] for row in table]
        assert errs[0] > errs[1] > errs[2]

    def test_flat_levels_take_gmres(self):
        # the strip operator is the exact inverse on a flat strip
        table = mms_convergence(make_params(1.0, 1.0, 4.0),
                                _mms_geometry("flat"), 3, nx0=8, ny0=8)
        assert [row["solver"] for row in table] == ["gmres"] * 3
        assert all(1 <= row["iterations"] <= 2 for row in table)

    def test_table_equals_all_point_field_errors(self, monkeypatch):
        # the manufactured field is exactly zero at and below its step's lo,
        # so the errors skip evaluating it there, bitwise
        def all_points(mesh, sol_values, field):
            q = mesh.quadrature
            uh = q.interpolate(np.asarray(sol_values, dtype=complex)
                               [mesh.triangles])
            guh = fem.element_gradients(mesh, sol_values)
            u, du = field.value_grad(q.points)
            l2_sq = float(q.integral(np.abs(uh - u) ** 2))
            semi_sq = float(q.integral(np.abs(guh[:, None] - du) ** 2))
            return math.sqrt(l2_sq + semi_sq), math.sqrt(l2_sq)

        p = make_params(1.0, 1.0, 2.0)
        geom = _mms_geometry("cosine")
        table = mms_convergence(p, geom, 3)
        monkeypatch.setattr(verify, "_field_errors", all_points)
        assert mms_convergence(p, geom, 3) == table
        mesh = build_mesh(geom.surface, geom.h, 24, 9)  # the coarsest level
        lo = default_mms_field(p, geom).chi.lo
        skipped = ~(mesh.quadrature.points[..., 1] > lo).any(axis=1)
        assert 0 < np.count_nonzero(skipped) < mesh.triangles.shape[0]

    def test_band_load_equals_all_triangle_load(self):
        # the manufactured source is exactly zero off the step's band
        p = make_params(1.0, 1.0, 4.0)
        geom = _mms_geometry("cosine")
        field = default_mms_field(p, geom)
        mesh = build_mesh(geom.surface, geom.h, 32, 40)
        band = _support_elements(mesh.quadrature.points,
                                 (field.chi.lo, field.chi.hi))
        assert 0 < band.size < mesh.triangles.shape[0]
        g = manufactured_source(field)
        assert assemble_load(mesh, g, band).tobytes() == \
            assemble_load(mesh, g).tobytes()

    def test_value_grad_equals_per_mode_form(self, params2):
        field = default_mms_field(params2, _mms_geometry("flat"))
        gen = np.random.default_rng(3)
        pts = np.stack([gen.uniform(0.0, 3.0, (50, 7)),
                        gen.uniform(0.2, 1.25, (50, 7))], axis=-1)
        x1, x2 = pts[..., 0], pts[..., 1]
        ch, dch = field.chi.value(x2), field.chi.d1(x2)
        value = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
        grad = np.zeros(pts.shape[:-1] + (2, 2), dtype=complex)
        for xi, g, c in field.modes:
            e = np.exp(1j * (xi * x1 + g * x2))
            value[..., 0] += c * xi * ch * e
            value[..., 1] += c * g * ch * e
            comp = np.stack([np.full_like(e, xi), np.full_like(e, g)],
                            axis=-1)
            grad[..., 0] += c * comp * (1j * xi * ch * e)[..., None]
            grad[..., 1] += c * comp * ((dch + 1j * g * ch) * e)[..., None]
        u, du = field.value_grad(pts)
        assert u.tobytes() == value.tobytes()
        assert du.tobytes() == grad.tobytes()
        assert field.value(pts).tobytes() == value.tobytes()
        assert field.grad(pts).tobytes() == grad.tobytes()

    def test_level_count_validated(self):
        with pytest.raises(MmsError):
            mms_convergence(make_params(1, 1, 4), _mms_geometry(), 2)


class TestRellich:
    def test_zero_solution(self, flat_geom, params2, bump):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 20)
        sol = FieldSolution(mesh=mesh,
                            values=np.zeros((mesh.n_nodes, 2), complex))
        r = rellich_residual(sol, bump, params2)
        assert r["lhs"] == 0.0 and r["rhs"] == 0.0

    @pytest.mark.parametrize("mode,a", [
        (0, np.array([0.3 + 0.1j, 1.0 - 0.2j])),
        (1, np.array([1.0, 0.5j])),
    ])
    def test_single_mode_matches_closed_form(self, params2, mode, a):
        # independent evaluation path: uniform samples + plain DFT
        per = 1.0
        xi = 2 * math.pi * mode / per
        gp = complex(gamma(xi, params2.k_p))
        gs = complex(gamma(xi, params2.k_s))
        mp, ms = projection_matrices(xi, params2)
        n = 64
        x = np.arange(n) / n * per
        u_vals = np.exp(1j * xi * x)[:, None] * a[None, :]
        dz = 1j * (gp * (mp @ a) + gs * (ms @ a))
        grad = np.zeros((n, 2, 2), dtype=complex)
        grad[:, :, 0] = 1j * xi * u_vals
        grad[:, :, 1] = np.exp(1j * xi * x)[:, None] * dz[None, :]
        got = rellich_lhs_samples(u_vals, grad, params2, per)

        tu = symbol_matrices(xi, params2) @ a
        t1 = 2 * np.real(np.sum(tu * np.conj(dz)))
        ee = (params2.mu * (np.sum(np.abs(1j * xi * a) ** 2)
                            + np.sum(np.abs(dz) ** 2))
              + (params2.lam + params2.mu) * abs(1j * xi * a[0] + dz[1]) ** 2)
        exact = per * (t1 - ee + params2.omega ** 2 * np.sum(np.abs(a) ** 2))
        assert got == pytest.approx(exact, abs=1e-6)

    def test_inequality_on_solved_problems(self, flat_geom, bump):
        for om in (2.0, 4.0, 8.0):
            p = make_params(1.0, 1.0, om)
            mesh = build_mesh(flat_geom.surface, flat_geom.h, 48, 64)
            system = assemble_B(mesh, p)
            sol = solve(system, assemble_load(mesh, bump))
            r = rellich_residual(sol, bump, p)
            tol = mesh.meshsize() * (sol.norms["h1"] ** 2
                                     + source_norms(mesh, bump)["l2"]
                                     * sol.norms["h1"])
            assert r["lhs"] <= r["rhs"] + tol

    def test_source_integral_on_the_support_only(self, wavy_geom, bump,
                                                  params2):
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 32, 48)
        sol = solve(assemble_B(mesh, params2), assemble_load(mesh, bump))
        q = mesh.quadrature
        assert bump.support_elements(q).size < mesh.triangles.shape[0] / 4
        uh = q.interpolate(sol.values[mesh.triangles])
        full = 2.0 * params2.k_s * float(np.imag(q.integral(
            np.asarray(bump(q.points), dtype=complex) * np.conj(uh))))
        got = rellich_residual(sol, bump, params2)["rhs"]
        assert got == pytest.approx(full, rel=1e-13)


class TestPoincare:
    def test_linear_vertical_profile(self):
        # u = (x2 - c, 0) on a flat strip of height 1: ratio = 1/sqrt(3)
        surf = flat_surface(0.3, 0.2, 0.4, 1.0)
        mesh = build_mesh(surf, 1.3, 16, 32)
        vals = np.zeros((mesh.n_nodes, 2), dtype=complex)
        vals[:, 0] = mesh.nodes[:, 1] - 0.3
        (ratio,) = _poincare_ratios(mesh, vals[..., None])
        assert ratio == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_sine_profile(self):
        surf = flat_surface(0.3, 0.2, 0.4, 1.0)
        mesh = build_mesh(surf, 1.3, 8, 64)
        vals = np.zeros((mesh.n_nodes, 2), dtype=complex)
        vals[:, 0] = np.sin(np.pi * (mesh.nodes[:, 1] - 0.3) / 2.0)
        (ratio,) = _poincare_ratios(mesh, vals[..., None])
        assert ratio == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_zero_field(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        vals = np.zeros((mesh.n_nodes, 2, 1), complex)
        assert _poincare_ratios(mesh, vals)[0] == 0.0

    def test_impossible_state_flagged(self, flat_geom):
        # constant field: nonzero l2 with zero d2 (violates the surface
        # condition on purpose)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        vals = np.ones((mesh.n_nodes, 2, 1), dtype=complex)
        with pytest.raises(InternalError):
            _poincare_ratios(mesh, vals)

    def test_random_surface_vanishing_fields(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 24, 32)
        bound = (1.4 - 0.2) / math.sqrt(2.0) * (1 + 5 * mesh.meshsize())
        assert 0.0 < poincare_check(mesh, 30, seed=11) <= bound
        ratios = _poincare_ratios(mesh, _random_free_fields(mesh, 30, 11))
        assert np.all(ratios <= bound)

    def test_block_draw_is_the_per_field_sequence(self, flat_geom):
        # the stream the fields were drawn from one at a time: per field the
        # free-node real parts, then the imaginary parts
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 16)
        gen = keyed_generator(7, 0xBA7C4)
        free = mesh.free_nodes
        block = _random_free_fields(mesh, 5, 7)
        for k in range(5):
            vec = np.zeros((mesh.n_nodes, 2), dtype=complex)
            vec[free] = gen.standard_normal((free.size, 2)) \
                + 1j * gen.standard_normal((free.size, 2))
            assert block[..., k].tobytes() == vec.tobytes()

    def test_block_ratios_equal_per_field_norms(self):
        surf = cosine_surface(0.3, [0.04], [1], [0.0], 0.2, 0.4, 1.0)
        mesh = build_mesh(surf, 1.4, 24, 32)
        block = _random_free_fields(mesh, 12, 3)
        got = _poincare_ratios(mesh, block)
        for k in range(12):
            n = fem.norms(FieldSolution(mesh=mesh, values=block[..., k]))
            assert got[k] == pytest.approx(n["l2"] / n["d2"], rel=1e-13)
        assert poincare_check(mesh, 12, 3) == float(np.max(got))


class TestOmegaSweep:
    def _config(self, geom, src, omegas):
        return SweepConfig(lam=1.0, mu=1.0, omegas=omegas, geom=geom,
                           source=src, nx=48, ny=64)

    def test_slope_and_envelope(self, flat_geom, bump):
        omegas = tuple(2.0 * 2 ** (k / 2) for k in range(5))
        sw = omega_sweep(self._config(flat_geom, bump, omegas))
        assert sw.fitted_slope <= 3.3
        assert all(r > 0 and math.isfinite(r) for r in sw.ratios)
        assert all(r <= e * (1 + 1e-9)
                   for r, e in zip(sw.ratios, sw.profile_envelope))

    def test_amplitude_invariance(self, flat_geom, source_spec):
        omegas = (2.0, 4.0)
        g1 = make_source(source_spec, None, f_max=0.4, h=1.4)
        spec2 = SourceSpec(center=source_spec.center,
                           radius=source_spec.radius,
                           amplitude=(2.0, 1.0j), period=1.0)
        g2 = make_source(spec2, None, f_max=0.4, h=1.4)
        s1 = omega_sweep(self._config(flat_geom, g1, omegas))
        s2 = omega_sweep(self._config(flat_geom, g2, omegas))
        assert s1.ratios == s2.ratios

    def test_one_load_equals_per_omega_all_triangle_form(self, wavy_geom,
                                                          bump):
        # oracle: the all-triangle load and norms, integrated per omega
        omegas = (2.0, 3.0, 5.0)
        config = self._config(wavy_geom, bump, omegas)
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 48, 64)
        elems = bump.support_elements(mesh.quadrature)
        assert 0 < elems.size < mesh.triangles.shape[0]
        full_load = assemble_load(mesh, bump)
        assert np.array_equal(assemble_load(mesh, bump, elems), full_load)
        gn = source_norms(mesh, bump)["h1"]
        expect = []
        for om in omegas:
            system = assemble_B(mesh, make_params(1.0, 1.0, om))
            expect.append(solve(system, assemble_load(mesh, bump),
                                preconditioner=strip_preconditioner(system))
                          .norms["h1"] / gn)
        ratios = omega_sweep(config).ratios
        assert ratios == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_flat_frequencies_take_gmres(self, flat_geom, bump):
        sw = omega_sweep(self._config(flat_geom, bump, (2.0, 8.0, 16.0)))
        assert [s["solver"] for s in sw.solves] == ["gmres"] * 3
        assert all(1 <= s["iterations"] <= 2 for s in sw.solves)

    def test_ratios_match_lu(self, wavy_geom, bump):
        omegas = (2.0, 5.0, 11.0)
        sw = omega_sweep(self._config(wavy_geom, bump, omegas))
        assert [s["solver"] for s in sw.solves] == ["gmres"] * 3
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 48, 64)
        load = assemble_load(mesh, bump)
        gn = source_norms(mesh, bump)["h1"]
        lu = [solve(assemble_B(mesh, make_params(1.0, 1.0, om)), load)
              .norms["h1"] / gn for om in omegas]
        assert sw.ratios == pytest.approx(lu, rel=1e-10, abs=0.0)

    def test_zero_source_rejected(self, flat_geom, source_spec):
        spec0 = SourceSpec(center=source_spec.center,
                           radius=source_spec.radius,
                           amplitude=(0.0, 0.0), period=1.0)
        g0 = make_source(spec0, None, f_max=0.4, h=1.4)
        with pytest.raises(SweepError):
            omega_sweep(self._config(flat_geom, g0, (2.0, 4.0)))

    @pytest.mark.parametrize("omegas", [(), (2.0,)])
    def test_fewer_than_two_frequencies_rejected(self, flat_geom, bump,
                                                 omegas):
        # one frequency used to fit a slope to one point, none a TypeError
        with pytest.raises(SweepError, match="2 frequencies"):
            omega_sweep(self._config(flat_geom, bump, omegas))


def _spy_systems(monkeypatch):
    """The systems `verify`'s studies assemble, collected as they are."""
    systems = []
    real = verify.assemble_B

    def spy(*args, **kwargs):
        systems.append(real(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(verify, "assemble_B", spy)
    return systems


class TestDtnTruncationOnce:
    """Every system the MMS study and the sweep assemble keeps every mode
    its mesh resolves, nothing warns, and every MMS row and sweep solve
    reports its system's n_max."""

    def _mms(self, p):
        return mms_convergence(p, _mms_geometry("flat"), 3, nx0=4, ny0=6)

    def _sweep(self, flat_geom, bump):
        return omega_sweep(SweepConfig(lam=1.0, mu=1.0, omegas=(2.0, 24.0),
                                       geom=flat_geom, source=bump, nx=16,
                                       ny=24))

    def test_default_keeps_each_mesh_resolved_modes(self, flat_geom, bump,
                                                    monkeypatch):
        systems = _spy_systems(monkeypatch)
        p = make_params(1.0, 1.0, 2.0)
        for run, caps in (
                # levels nx 4, 8, 16: Nyquist indices 1, 3 and 7
                (lambda: self._mms(p), [1, 3, 7]),
                # omega 2 and 24 at nx = 16
                (lambda: self._sweep(flat_geom, bump).solves, [7, 7])):
            systems.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rows = run()
            assert [s.n_max for s in systems] == caps
            assert [row["n_max"] for row in rows] == caps


class TestDtnPairing:
    """The assembled DtN block is the pairing of the trace coefficients:
    conj(v)^T block u = period * sum_k conj(v_k) . M(xi_k) u_k."""

    @pytest.mark.parametrize("omega", [2.0, 8.0])
    def test_equals_dtn_block_form(self, flat_geom, omega):
        p = make_params(1.0, 1.0, omega)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 32, 4)
        n_max = nyquist_index(mesh.nx)
        gen = np.random.default_rng(int(omega))
        u, v = (np.zeros((mesh.n_nodes, 2), dtype=complex) for _ in range(2))
        for vals in (u, v):
            vals[mesh.top_nodes] = (gen.standard_normal((mesh.nx, 2))
                                    + 1j * gen.standard_normal((mesh.nx, 2)))
        expect = np.conj(v[mesh.top_nodes]).ravel() \
            @ fem._dtn_block(mesh, p, n_max)[0] @ u[mesh.top_nodes].ravel()

        def trace(values):
            return trace_coefficients(FieldSolution(mesh=mesh, values=values))

        def pairing(a, b):
            tr_a, tr_b = trace(a), trace(b)
            return mesh.period * np.sum(np.conj(tr_b.coef)
                                        * apply_dtn(tr_a, p).coef)

        assert abs(pairing(u, v) - expect) <= 1e-13 * abs(expect)
        # negative control: the pairing is not symmetric in (u, v)
        assert abs(pairing(v, u) - expect) > 1e-3 * abs(expect)


class TestPullbackIdentity:
    def test_builds_no_assembly_pattern(self, params2, surface_model,
                                        monkeypatch):
        def refuse(*args):
            raise AssertionError("the check built an assembly pattern")

        monkeypatch.setattr(DofPattern, "for_strip", refuse)
        r = pullback_identity_check(_sampled_map(surface_model), params2, 1,
                                    nx=24, ny=24, seed=4)
        assert r["max_discrepancy"] < 1e-4

    def test_identity_map(self, params2):
        f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
        dmap = DomainMap(f0=f0, f_eta=f0, cutoff=make_cutoff(0.1, 1.1))
        r = pullback_identity_check(dmap, params2, 2, nx=48, ny=48)
        assert r["max_discrepancy"] < 1e-12

    def test_flat_shift_refinement(self, params2):
        f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
        f1 = flat_surface(0.35, 0.2, 0.4, 1.0)
        dmap = DomainMap(f0=f0, f_eta=f1, cutoff=make_cutoff(0.1, 1.1))
        coarse = pullback_identity_check(dmap, params2, 3, nx=48, ny=48,
                                         seed=2)
        fine = pullback_identity_check(dmap, params2, 3, nx=96, ny=96,
                                       seed=2)
        assert coarse["b_discrepancy"] < 1e-6
        assert fine["b_discrepancy"] < coarse["b_discrepancy"]

    def test_source_pair(self, params2, surface_model, bump):
        r = pullback_identity_check(_sampled_map(surface_model), params2, 2,
                                    nx=48, ny=48, source=bump,
                                    seed=4)
        assert r["g_discrepancy"] < 1e-6

    def test_dropped_jacobian_is_caught(self, params2, surface_model,
                                        monkeypatch):
        # negative control: the chain rule without its J factor must break
        # the identity, or the check has become vacuous
        dmap = _sampled_map(surface_model)
        r = pullback_identity_check(dmap, params2, 2, nx=48, ny=48,
                                    seed=4)
        assert r["b_discrepancy"] < 1e-6
        monkeypatch.setattr(MappedQuadrature, "pullback_gradient",
                            lambda self, gx: np.asarray(gx))
        r = pullback_identity_check(dmap, params2, 2, nx=48, ny=48,
                                    seed=4)
        assert r["b_discrepancy"] > 1e-6

    def test_blocks_equal_single_block_form(self):
        # oracle: the check with each side's test fields sampled point by
        # point on all of its triangles at once, on the verify-all map
        _assert_equals_all_triangle_form(*_verify_all_case())

    def test_support_restriction_on_second_seed(self):
        # the same oracle on another sampled surface and test-field seed
        _assert_equals_all_triangle_form(*_verify_all_case(index=3, seed=7))

    def test_identity_map_equals_single_block_form(self):
        # the same oracle where H is the identity: no triangle moves
        _assert_equals_all_triangle_form(*_verify_all_case(identity=True))

    @pytest.mark.parametrize("case", [{}, {"index": 3, "seed": 7},
                                      {"identity": True}])
    def test_maps_only_reachable_triangles(self, monkeypatch, case):
        # the reference side keeps the triangles that mapping every triangle
        # would keep, with the same rows, and maps fewer triangles
        dmap, p, args = _verify_all_case(**case)
        rules, mapped = [], []
        tables, map_rule = verify._abscissa_tables, verify.map_quadrature

        def recording_tables(rule, *rest):
            rules.append(rule)
            return tables(rule, *rest)

        def recording_map(quad, dm):
            mapped.append(quad.area.size)
            return map_rule(quad, dm)

        monkeypatch.setattr(verify, "_abscissa_tables", recording_tables)
        monkeypatch.setattr(verify, "map_quadrature", recording_map)
        pullback_identity_check(dmap, p, 2, **args)
        _, window = _pullback_window(dmap)
        h = dmap.f0.sup() + dmap.cutoff.gap
        quad = build_mesh(dmap.f0, h, args["nx"], args["ny"]).quadrature
        full = map_rule(quad, dmap)
        kept = _support_elements(full.points, window.support)
        got = rules[1]
        assert np.array_equal(got.quad.coords, quad.coords[kept])
        for name in ("detj", "j1", "t12", "t22", "weights", "points"):
            assert np.array_equal(getattr(got, name),
                                  getattr(full, name)[kept]), name
        assert kept.size <= mapped[0] < quad.area.size

    @pytest.mark.parametrize("fault", ["t12_sign", "no_detj_weights",
                                       "fields_at_y", "no_dx_rows"])
    def test_planted_fault_is_caught(self, params2, surface_model, bump,
                                     monkeypatch, fault):
        # negative controls: each fault breaks the identity at 48 x 48, or
        # the check has become vacuous for that part of the change of
        # variables
        dmap = _sampled_map(surface_model)
        args = dict(nx=48, ny=48, source=bump, seed=4)
        assert pullback_identity_check(dmap, params2, 2,
                                       **args)["max_discrepancy"] < 1e-6
        map_rule, rows = verify.map_quadrature, TrigPolyField.rows
        planted = {
            "t12_sign": lambda mq: dataclasses.replace(mq, t12=-mq.t12),
            "no_detj_weights": lambda mq: dataclasses.replace(
                mq, weights=mq.quad.weights),
            "fields_at_y": lambda mq: dataclasses.replace(
                mq, points=mq.quad.points),
        }
        if fault in planted:
            monkeypatch.setattr(verify, "map_quadrature",
                                lambda quad, dm: planted[fault](
                                    map_rule(quad, dm)))
        else:
            # zeroed on the reference side only, which starts when the rule
            # is mapped: zeroed on both, the fields would just be other
            # fields, for which the identity holds as well
            mapped = []

            def mapping(quad, dm):
                mapped.append(1)
                return map_rule(quad, dm)

            def zeroed_rows(f, x1):
                out = rows(f, x1)
                if mapped:
                    out[3:] = 0.0
                return out

            monkeypatch.setattr(verify, "map_quadrature", mapping)
            monkeypatch.setattr(TrigPolyField, "rows", zeroed_rows)
        r = pullback_identity_check(dmap, params2, 2, **args)
        assert r["max_discrepancy"] > 1e-6

    @pytest.mark.parametrize("case", [{}, {"index": 3, "seed": 7}])
    def test_fields_vanish_on_the_top_line(self, case):
        # the window ends below the top line, so every test field is an
        # exact zero there and the form's DtN pairing is exactly 0: the
        # check compares the domain forms alone
        dmap, _, args = _verify_all_case(**case)
        band_lo, window = _pullback_window(dmap)
        h = dmap.f0.sup() + dmap.cutoff.gap
        assert window.support[1] < h
        chi, _ = window.value_d1(np.full(97, h))
        assert not np.any(chi)
        z = h - band_lo
        for s in (0, 1, 777):
            f = TrigPolyField(dmap.f0.period, window,
                              seed=args["seed"] * 1000 + s, x2_ref=band_lo)
            a = f.rows(np.linspace(0.0, dmap.f0.period, 97))
            assert not np.any(chi * (a[0] + z * (a[1] + z * a[2])))

    def test_skipped_triangles_carry_zero_window(self):
        # every triangle the check skips has chi = chi' = 0 at all of its
        # 7 points, on both sides, so each skipped term is an exact zero
        dmap, _, args = _verify_all_case()
        nx, ny = args["nx"], args["ny"]
        _, window = _pullback_window(dmap)
        h = dmap.f0.sup() + dmap.cutoff.gap
        mapped = build_mesh(dmap.f_eta, h, nx, ny).quadrature.points
        pulled = map_quadrature(build_mesh(dmap.f0, h, nx, ny).quadrature,
                                dmap).points
        for points in (mapped, pulled):
            kept = _support_elements(points, window.support)
            skipped = np.setdiff1d(np.arange(points.shape[0]), kept)
            assert 0 < skipped.size < points.shape[0]
            chi, dchi = window.value_d1(points[skipped, :, 1])
            assert np.all(chi == 0.0)
            assert np.all(dchi == 0.0)


def _verify_all_case(index=0, seed=None, identity=False):
    """(dmap, params, keyword arguments) of verify-all's pullback check on
    the default config, with another sampled surface or seed if given, or
    with the identity map."""
    cfg = RunConfig()
    _, gap = cli._gate_random(cfg)
    model = cfg.make_model()
    f_eta = model.f0 if identity else sample_surface(model, index)
    dmap = DomainMap(f0=model.f0, f_eta=f_eta,
                     cutoff=make_cutoff(None, gap),
                     epsilon_margin=cfg.epsilon_margin)
    src = cfg.make_source()
    return dmap, cfg.make_params(), dict(
        nx=64, ny=64, source=src, seed=cfg.seed if seed is None else seed)


def _assert_equals_all_triangle_form(dmap, p, args):
    """Every integral of the check, each form and each load pairing on both
    sides, agrees with the all-triangle oracle's to 1e-13 of the largest
    integral, and so do the discrepancies, to 1e-12 of it: the check sums
    per abscissa and the oracle per point, so the discrepancies (differences
    of O(1) integrals near 3e-8) agree to round-off of the integrals, not
    bitwise."""
    got = pullback_identity_check(dmap, p, 2, **args)
    expect, oracle = _single_block_pullback_check(dmap, p, 2, **args)
    integrals = max(abs(t) for side in oracle for terms in side
                    for t in terms)
    for side, oracle_side in zip(_pullback_integrals(dmap, p, 2, **args),
                                 oracle):
        for terms, oracle_terms in zip(side, oracle_side):
            assert len(terms) == len(oracle_terms) == 2
            for a, b in zip(terms, oracle_terms):
                assert abs(a - b) <= 1e-13 * integrals
    assert set(got) == set(expect)
    for key, value in got.items():
        assert type(value) is float, key
        assert abs(value - expect[key]) <= 1e-12 * integrals, key


def _pullback_window(dmap):
    """The test fields' window of the pullback check."""
    per = dmap.f0.period
    x = np.linspace(0.0, per, 2048, endpoint=False)
    band_lo = max(float(np.max(dmap.f0.f(x))) + dmap.cutoff.delta,
                  float(np.max(dmap.f_eta.f(x))))
    band_hi = float(np.min(dmap.f0.f(x))) + dmap.cutoff.ramp_end
    margin = 0.05 * (band_hi - band_lo)
    return band_lo, SmoothWindow(band_lo + margin, band_hi - margin)


def _basis(f, pts) -> tuple:
    """(e, z, chi, chi') of the TrigPolyField f at the flattened points: the
    harmonics e (nk, nq) for k = -n..n as powers of exp(2 pi i x1 / period)
    with e_{-k} = conj(e_k); z = x2 - x2_ref and the window, each (2 nq,),
    every value twice to scale the (re, im) float view of complex rows."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x1, x2 = pts[:, 0], pts[:, 1]
    n = f.n_harmonics
    e = np.empty((2 * n + 1, x1.size), dtype=complex)
    e[n] = 1.0
    e1 = np.exp((2j * math.pi / f.period) * x1)
    for k in range(n):
        e[n + k + 1] = e[n + k] * e1
    e[:n] = np.conj(e[:n:-1])
    return (e, *(np.repeat(a, 2) for a in
                 (x2 - f.x2_ref, *f.chi.value_d1(x2))))


def _z_poly(t, z):
    """sum_p t[(p, a)] z^p on the (re, im) float view of coefficient rows."""
    return t[0:2] + z * (t[2:4] + z * t[4:6])


def _sample(f, basis):
    """Values (nq, 2) and gradients (nq, 2, 2), [a, b] = d u_a / d x_b, of
    the TrigPolyField f at the points of a basis, point by point."""
    e, z, ch, dch = basis
    t = (f._coef @ e).view(float)                     # (6, 2 nq)
    val = _z_poly(t, z)
    grad = np.empty((2, 2, z.size))                   # (b, a, 2 nq)
    grad[1] = ch * (t[2:4] + 2.0 * z * t[4:6]) + dch * val
    grad[0] = ch * _z_poly((f._coef_dx @ e).view(float), z)
    val *= ch
    return val.view(complex).T, grad.view(complex).transpose(2, 1, 0)


def _domain_form(p, rule, u, v) -> complex:
    """Domain part of B(u, v) by the quadrature rule from the samples
    (values, gradients) of u and v at its points."""
    uv, ug = u
    vv, vg = (np.conj(a) for a in v)
    div_u = ug[:, 0, 0] + ug[:, 1, 1]
    div_v = vg[:, 0, 0] + vg[:, 1, 1]
    integrand = (p.mu * np.sum(ug * vg, axis=(1, 2))
                 + (p.lam + p.mu) * div_u * div_v
                 - p.omega ** 2 * np.sum(uv * vv, axis=1))
    return complex(rule.integral(integrand))


def _single_block_pullback_check(dmap, p, n_trials, nx, ny, source, seed):
    """pullback_identity_check with each side's test fields sampled point by
    point on all of its triangles at once: (its result, ((forms, loads) on
    the mapped domain, (forms, loads) pulled back))."""
    h = dmap.f0.sup() + dmap.cutoff.gap
    mesh_ref = build_mesh(dmap.f0, h, nx, ny)
    per = dmap.f0.period
    band_lo, window = _pullback_window(dmap)

    def field(s):
        return TrigPolyField(per, window, seed=seed * 1000 + s, x2_ref=band_lo)

    pairs = [(field(2 * t), field(2 * t + 1)) for t in range(n_trials)]
    loads = [field(777 + t) for t in range(n_trials)]

    def side(rule, gradient):
        basis = _basis(field(0), rule.points)

        def sample(f):
            val, grad = _sample(f, basis)
            return val, gradient(grad)

        forms = [_domain_form(p, rule, sample(u), sample(v))
                 for u, v in pairs]
        g = source(rule.points).reshape(-1, 2)
        return forms, [complex(-rule.integral(
            g * np.conj(_sample(f, basis)[0]))) for f in loads]

    lhs = side(build_mesh(dmap.f_eta, h, nx, ny).quadrature, lambda g: g)
    mq = map_quadrature(mesh_ref.quadrature, dmap)
    rhs = side(mq, lambda g: mq.physical_gradient(mq.pullback_gradient(
        g.reshape(mq.detj.shape + (2, 2)))).reshape(-1, 2, 2))
    b_disc, g_disc = (max(abs(a - b) for a, b in zip(left, right))
                      for left, right in zip(lhs, rhs))
    return {"b_discrepancy": b_disc, "g_discrepancy": g_disc,
            "max_discrepancy": max(b_disc, g_disc)}, (lhs, rhs)


def _sampled_map(surface_model, index=1):
    from elastodtn.model import sample_surface
    return DomainMap(f0=surface_model.f0,
                     f_eta=sample_surface(surface_model, index),
                     cutoff=make_cutoff(0.1, 1.1))


def _trig_reference(f, pts):
    """TrigPolyField's values and gradients with one exp(i k x1) per
    harmonic and einsum contractions, the per-harmonic reference form."""
    x1, x2 = pts[..., 0], pts[..., 1]
    n = f.n_harmonics
    ks = 2.0 * math.pi * np.arange(-n, n + 1) / f.period
    e = np.exp(1j * np.multiply.outer(x1, ks))
    t = np.einsum("...k,akp->...ap", e, f.coef)
    tdx = np.einsum("...k,akp->...ap", 1j * ks * e, f.coef)
    z = (x2 - f.x2_ref)[..., None]

    def poly(c):
        return c[..., 0] + z * (c[..., 1] + z * c[..., 2])

    ch, dch = (c[..., None] for c in _window_reference(f.chi, x2))
    grad = np.stack([ch * poly(tdx),
                     ch * (t[..., 1] + 2.0 * z * t[..., 2]) + dch * poly(t)],
                    axis=-1)
    return ch * poly(t), grad


def _window_reference(window, x):
    """A SmoothWindow's value and derivative by the product rule on its two
    steps' `value` and `d1`, the reference for its `value_d1`."""
    up, down = window.up, window.down
    return (up.value(x) * (1.0 - down.value(x)),
            up.d1(x) * (1.0 - down.value(x)) - up.value(x) * down.d1(x))


class TestSmoothStep:
    @pytest.mark.parametrize("order", [5, 7])
    def test_value_d1_equals_value_and_d1(self, order):
        # value_d1 evaluates the polynomials on the ramp alone; its values
        # are bitwise those of value and d1, at the ramp's ends, outside it
        # and for a scalar as well
        step = SmoothStep(0.2, 0.6, order=order)
        for x in (np.linspace(0.0, 1.0, 40).reshape(8, 5), 0.2, 0.4,
                  0.6, 0.9):
            val, d1 = step.value_d1(x)
            assert np.shape(val) == np.shape(d1) == np.shape(step.value(x))
            assert np.array_equal(val, step.value(x))
            assert np.array_equal(d1, step.d1(x))
        val, _ = step.value_d1(np.array([0.2, 0.6]))
        assert val.tolist() == [0.0, 1.0]


class TestTrigPolyField:
    def _field(self, seed=3):
        return TrigPolyField(1.0, SmoothWindow(0.45, 1.05), seed=seed,
                             x2_ref=0.45)

    def _points(self, surface_model, mapped):
        mesh = build_mesh(surface_model.f0, 1.4, 16, 24)
        if not mapped:
            return mesh.quadrature.points
        return map_quadrature(mesh.quadrature,
                              _sampled_map(surface_model)).points

    @pytest.mark.parametrize("mapped", [False, True])
    def test_sampler_equals_per_harmonic_form(self, surface_model, mapped):
        pts = self._points(surface_model, mapped)
        for seed in (3, 4):
            f = self._field(seed)
            val, grad = _sample(f, _basis(f, pts))
            ref_val, ref_grad = _trig_reference(f, pts)
            ref_val = ref_val.reshape(-1, 2)
            ref_grad = ref_grad.reshape(-1, 2, 2)
            assert np.max(np.abs(ref_grad)) > 0.1  # the window is reached
            assert (np.max(np.abs(val - ref_val))
                    <= 1e-13 * np.max(np.abs(ref_val)))
            assert (np.max(np.abs(grad - ref_grad))
                    <= 1e-13 * np.max(np.abs(ref_grad)))

    @pytest.mark.parametrize("mapped", [False, True])
    def test_rows_equal_per_harmonic_form(self, surface_model, mapped):
        # the rows times chi z^p are the values and the x1-derivatives
        pts = self._points(surface_model, mapped).reshape(-1, 2)
        for seed in (3, 4):
            f = self._field(seed)
            rows = f.rows(pts[:, 0])
            z = pts[:, 1] - f.x2_ref
            ch, _ = _window_reference(f.chi, pts[:, 1])
            ref_val, ref_grad = _trig_reference(f, pts)
            for got, ref in ((rows[:3], ref_val),
                             (rows[3:], ref_grad[..., 0])):
                poly = ch * (got[0] + z * (got[1] + z * got[2]))
                assert (np.max(np.abs(poly.T - ref))
                        <= 1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("mapped", [False, True])
    def test_basis_window_equals_value_d1_form(self, surface_model, mapped):
        pts = self._points(surface_model, mapped)
        f = self._field()
        x2 = pts.reshape(-1, 2)[:, 1]
        _, z, ch, dch = _basis(f, pts)
        # points below, on the ramps of, and inside the plateau
        assert np.any(ch == 0.0) and np.any(ch == 1.0)
        assert np.any((ch > 0.0) & (ch < 1.0))
        assert np.array_equal(z, np.repeat(x2 - f.x2_ref, 2))
        ref_ch, ref_dch = _window_reference(f.chi, x2)
        assert np.array_equal(ch, np.repeat(ref_ch, 2))
        assert np.array_equal(dch, np.repeat(ref_dch, 2))

    def test_gradient_equals_central_differences(self, surface_model):
        pts = self._points(surface_model, True).reshape(-1, 2)
        f = self._field()
        step = 1e-6
        _, grad = _sample(f, _basis(f, pts))
        for b in range(2):
            shift = np.zeros(2)
            shift[b] = step
            fd = (_sample(f, _basis(f, pts + shift))[0]
                  - _sample(f, _basis(f, pts - shift))[0]) / (2.0 * step)
            assert (np.max(np.abs(grad[..., b] - fd))
                    <= 1e-8 * np.max(np.abs(grad)))


class TestFormContinuity:
    def _sequence(self, m_count=6):
        spec0 = SourceSpec(center=(0.5, 0.8), radius=0.15,
                           amplitude=(1.0, 0.5j), period=1.0)
        dspec = SourceSpec(center=(0.45, 0.9), radius=0.12,
                           amplitude=(0.3, 0.2), period=1.0)
        g0 = make_source(spec0, None, f_max=0.4, h=1.4)
        dg = make_source(dspec, None, f_max=0.4, h=1.4)
        fseq, gseq = [], []
        for m in range(1, m_count + 1):
            amp = 0.01 * 2.0 ** (-m)
            fseq.append(cosine_surface(0.3, [amp], [1], [0.5],
                                       0.2, 0.4, 1.0))
            gseq.append(lambda pts, s=2.0 ** (-m): g0(pts) + s * dg(pts))
        return g0, fseq, gseq

    def test_identical_sequence_gives_zero(self, params2, form_continuity):
        f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
        g0, _, _ = self._sequence()
        r = form_continuity(f0, [f0, f0], g0, [g0, g0], params2,
                            h=1.4, nx=16, ny=20,
                            delta=0.1375, n_batch=8, seed=1)
        assert all(x == 0.0 for x in r["b_ratios"])
        assert max(r["sol_errors"]) < 1e-13

    def test_ratio_boundedness_and_solution_convergence(self, params2,
                                                         form_continuity):
        f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
        g0, fseq, gseq = self._sequence()
        r = form_continuity(f0, fseq, g0, gseq, params2,
                            h=1.4, nx=24, ny=32,
                            delta=0.1375, n_batch=16, seed=5)
        b = r["b_ratios"]
        assert max(b) / np.median(b) <= 3.0
        g = r["g_ratios"]
        assert max(g) / np.median(g) <= 3.0
        errs = r["sol_errors"]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3
