"""Parameters, surfaces, cutoff, domain map, random sampling, sources."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodtn.errors import (
    CutoffError,
    GeometryError,
    MapSingularError,
    ParameterError,
    SourceSupportError,
    SurfaceBoundError,
)
from elastodtn.model import (
    DomainMap,
    Geometry,
    RandomSurfaceModel,
    SourceJitter,
    SourceSpec,
    check_invertibility,
    cosine_surface,
    flat_surface,
    height_condition,
    keyed_generator,
    make_cutoff,
    make_params,
    make_source,
    sample_surface,
)


class TestMakeParams:
    def test_hand_values(self):
        p = make_params(1.0, 1.0, 2.0)
        assert p.k_p == pytest.approx(1.154701, abs=1e-6)
        assert p.k_s == 2.0

    @pytest.mark.parametrize("bad", [(1, 1, 0), (0, 1, 2), (1, -1, 2)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ParameterError):
            make_params(*bad)

    def test_doubling_omega_doubles_wavenumbers_exactly(self):
        p1 = make_params(1.3, 0.7, 2.0)
        p2 = make_params(1.3, 0.7, 4.0)
        assert p2.k_p == 2.0 * p1.k_p
        assert p2.k_s == 2.0 * p1.k_s

    @given(lam=st.floats(0.01, 100), mu=st.floats(0.01, 100),
           omega=st.floats(0.01, 100))
    def test_ordering(self, lam, mu, omega):
        p = make_params(lam, mu, omega)
        assert 0 < p.k_p < p.k_s


class TestHeightCondition:
    def test_ok_case(self):
        geom = Geometry(surface=flat_surface(0.4, 0.0, 1.0, 1.0), h=2.4)
        gap, ok = height_condition(geom)
        assert gap == pytest.approx(2.0)
        assert ok

    def test_ratio_above_one(self):
        geom = Geometry(surface=flat_surface(0.4, 0.0, 1.0, 1.0), h=1.2)
        gap, ok = height_condition(geom)
        assert gap == pytest.approx(0.8)
        assert not ok

    def test_boundary_ratio_exactly_one_is_rejected(self):
        geom = Geometry(surface=flat_surface(0.9, 0.0, 1.0, 1.0), h=1.9)
        gap, ok = height_condition(geom)
        assert gap == pytest.approx(1.0)
        assert not ok

    def test_h_below_surface_raises(self):
        with pytest.raises(GeometryError):
            Geometry(surface=flat_surface(0.4, 0.0, 1.0, 1.0), h=0.9)


class TestCutoff:
    def test_plateau_and_ramp_values(self):
        a = make_cutoff(0.2, 2.0)
        assert a(0.0) == 1.0
        assert a(2.0) == 0.0
        assert float(a(1.0)) == pytest.approx(0.529412, abs=1e-6)
        assert float(a.slope(1.0)) == pytest.approx(-0.588235, abs=1e-6)

    def test_none_takes_gap_over_eight(self):
        assert make_cutoff(None, 2.2) == make_cutoff(0.275, 2.2)

    def test_strict_margin_identity(self):
        # max_slope * (gap - 2 delta) = (gap-2d)/(gap-1.5d) < 1 by construction
        a = make_cutoff(0.2, 2.0)
        assert a.max_slope * (2.0 - 0.4) < 1.0

    def test_delta_too_large_rejected(self):
        with pytest.raises(CutoffError):
            make_cutoff(0.5, 2.0)
        with pytest.raises(CutoffError):
            make_cutoff(0.0, 2.0)

    @given(delta=st.floats(0.01, 0.24), x=st.floats(-1, 3),
           y=st.floats(-1, 3))
    @settings(max_examples=200)
    def test_monotone_bounded_lipschitz(self, delta, x, y):
        a = make_cutoff(delta, 1.0)
        va, vb = float(a(x)), float(a(y))
        assert 0.0 <= va <= 1.0
        if x <= y:
            assert va >= vb - 1e-12
        assert abs(va - vb) <= a.max_slope * abs(x - y) + 1e-12


def _flat_shift_map():
    f0 = flat_surface(0.4, 0.0, 1.0, 1.0)
    f1 = flat_surface(0.6, 0.0, 1.0, 1.0)
    cutoff = make_cutoff(0.2, 2.0)  # h = 2.4
    return DomainMap(f0=f0, f_eta=f1, cutoff=cutoff)


def _map_at(dmap, y):
    """(x, J1, J2, det J) of the map at the one reference point y."""
    y = np.asarray(y, dtype=float)
    j1, j2 = dmap.jacobian(y)
    return dmap.apply(y), float(j1), float(j2), 1.0 + float(j2)


class TestDomainMap:
    def test_identity_perturbation(self):
        f0 = flat_surface(0.4, 0.0, 1.0, 1.0)
        dmap = DomainMap(f0=f0, f_eta=f0, cutoff=make_cutoff(0.2, 2.0))
        x, j1, j2, detj = _map_at(dmap, (0.3, 1.7))
        assert np.allclose(x, (0.3, 1.7))
        assert j1 == 0.0 and j2 == 0.0 and detj == 1.0

    def test_flat_shift_hand_values(self):
        dmap = _flat_shift_map()
        x, j1, j2, detj = _map_at(dmap, (0.0, 1.0))
        assert x[1] == pytest.approx(1.152941, abs=1e-6)
        assert j1 == 0.0
        assert j2 == pytest.approx(-0.117647, abs=1e-6)
        assert detj == pytest.approx(0.882353, abs=1e-6)

    def test_fixes_top_line(self):
        dmap = _flat_shift_map()
        pts = np.stack([np.linspace(0, 1, 50), np.full(50, 2.4)], axis=-1)
        assert np.max(np.abs(dmap.apply(pts) - pts)) == 0.0

    def test_maps_graph_to_graph(self):
        f0 = cosine_surface(0.4, [0.05], [1], [0.3], 0.0, 1.0, 1.0)
        f1 = cosine_surface(0.42, [0.03, 0.02], [1, 2], [0.0, 1.0],
                            0.0, 1.0, 1.0)
        dmap = DomainMap(f0=f0, f_eta=f1, cutoff=make_cutoff(0.2, 1.9))
        x1 = np.linspace(0.0, 1.0, 1000, endpoint=False)
        pts = np.stack([x1, f0.f(x1)], axis=-1)
        image = dmap.apply(pts)
        assert np.max(np.abs(image[:, 1] - f1.f(x1))) < 1e-12

    def test_invertibility_identity(self):
        f0 = flat_surface(0.4, 0.0, 1.0, 1.0)
        dmap = DomainMap(f0=f0, f_eta=f0, cutoff=make_cutoff(0.2, 2.0))
        assert check_invertibility(dmap, 64, h=2.4) == 1.0

    def test_invertibility_flat_shift(self):
        dmap = _flat_shift_map()
        assert check_invertibility(dmap, 256, h=2.4) == pytest.approx(
            0.882353, abs=1e-6)

    def test_grid_resolution_validated(self):
        with pytest.raises(ParameterError):
            check_invertibility(_flat_shift_map(), 1)

    def test_scaling_past_jacobian_limit_raises(self):
        f0 = flat_surface(0.4, 0.0, 3.0, 1.0)
        cutoff = make_cutoff(0.2, 2.0)  # max_slope = 1/1.7
        # shift larger than 1/max_slope = 1.7 makes |J2| >= 1
        f_big = flat_surface(0.4 + 1.8, 0.0, 3.0, 1.0)
        with pytest.raises(MapSingularError):
            DomainMap(f0=f0, f_eta=f_big, cutoff=cutoff)

    def test_j2_envelope_bound_on_grid(self):
        # sup |J2| <= (M-m)/(gap-1.5 delta) for any admissible pair
        f0 = cosine_surface(0.3, [0.05], [1], [0.0], 0.2, 0.4, 1.0)
        f1 = cosine_surface(0.32, [0.04], [2], [0.7], 0.2, 0.4, 1.0)
        cutoff = make_cutoff(0.1, 1.0)
        dmap = DomainMap(f0=f0, f_eta=f1, cutoff=cutoff)
        x1 = np.linspace(0, 1, 256, endpoint=False)
        f0v = f0.f(x1)
        s = np.linspace(0, 1, 256)
        pts = np.empty((256, 256, 2))
        pts[..., 0] = x1[:, None]
        pts[..., 1] = f0v[:, None] + s[None, :] * (1.35 - f0v[:, None])
        _, j2 = dmap.jacobian(pts)
        envelope = (0.4 - 0.2) / (1.0 - 1.5 * 0.1)
        assert np.max(np.abs(j2)) <= envelope
        assert np.min(1.0 + j2) >= 1.0 - envelope


class TestRandomSurface:
    def test_zero_modes_returns_reference(self):
        f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
        model = RandomSurfaceModel(f0=f0, mode_count=0, amplitudes=(),
                                   phases=(), M0=0.1, seed=1)
        surf = sample_surface(model, 0)
        x = np.linspace(0, 1, 100)
        assert np.array_equal(surf.f(x), f0.f(x))

    def test_equals_cosine_sum_of_the_draw(self, surface_model):
        # f0 + sum_j a_j xi_j cos(2 pi j x / period + theta_j), xi from the
        # (seed, index) generator, and its derivative, to the bit
        m = surface_model
        x = np.linspace(0, 1, 257)
        xi = keyed_generator(m.seed, 5).uniform(-1.0, 1.0, m.mode_count)
        amps = np.asarray(m.amplitudes) * xi
        ks = 2.0 * math.pi * np.arange(1.0, m.mode_count + 1) / m.f0.period
        arg = np.multiply.outer(x, ks) + np.asarray(m.phases)
        s = sample_surface(m, 5)
        assert np.array_equal(
            s.f(x), m.f0.f(x) + np.sum(amps * np.cos(arg), axis=-1))
        assert np.array_equal(
            s.df(x), m.f0.df(x) - np.sum(amps * ks * np.sin(arg), axis=-1))
        assert s.lipschitz == m.lipschitz_envelope

    def test_keyed_generator_wraps_the_seed(self):
        # a nonnegative seed keys Philox as it is, a negative one mod 2^64
        a = keyed_generator(7, 3).standard_normal(4)
        b = np.random.Generator(np.random.Philox(key=np.array(
            [7, 3], dtype=np.uint64))).standard_normal(4)
        assert np.array_equal(a, b)
        assert np.array_equal(keyed_generator(-1, 3).standard_normal(4),
                              keyed_generator(2 ** 64 - 1, 3)
                              .standard_normal(4))

    def test_determinism(self, surface_model):
        x = np.linspace(0, 1, 257)
        a = sample_surface(surface_model, 3)
        b = sample_surface(surface_model, 3)
        assert np.array_equal(a.f(x), b.f(x))
        assert np.array_equal(a.df(x), b.df(x))
        c = sample_surface(surface_model, 4)
        assert not np.array_equal(a.f(x), c.f(x))

    def test_dense_grid_norm_bound(self, surface_model):
        # ||f - f0||_{1,inf} <= sum |a_j| (1 + 2 pi j / period) <= M0
        x = np.linspace(0, 1, 10000, endpoint=False)
        f0 = surface_model.f0
        for idx in range(5):
            s = sample_surface(surface_model, idx)
            dist = (np.max(np.abs(s.f(x) - f0.f(x)))
                    + np.max(np.abs(s.df(x) - f0.df(x))))
            assert dist <= surface_model.norm_bound <= surface_model.M0

    def test_amplitude_bound_vs_m0_validated(self):
        f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
        with pytest.raises(ParameterError):
            RandomSurfaceModel(f0=f0, mode_count=1, amplitudes=(0.05,),
                               phases=(0.0,), M0=0.1, seed=1)

    def test_envelope_violation_raises(self):
        # reference close to the upper bound; most draws overshoot it
        f0 = flat_surface(0.395, 0.2, 0.4, 1.0)
        model = RandomSurfaceModel(f0=f0, mode_count=1, amplitudes=(0.02,),
                                   phases=(0.0,), M0=0.2, seed=0)
        with pytest.raises(SurfaceBoundError):
            for idx in range(10):
                sample_surface(model, idx)

    def test_negative_index_rejected(self, surface_model):
        with pytest.raises(ParameterError):
            sample_surface(surface_model, -1)

    def test_cross_process_determinism(self):
        # two fresh interpreters produce identical bytes for the same draw
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
        snippet = (
            "import numpy as np\n"
            "from elastodtn.model import RandomSurfaceModel, flat_surface, "
            "sample_surface\n"
            "m = RandomSurfaceModel(f0=flat_surface(0.3, 0.2, 0.4, 1.0), "
            "mode_count=2, amplitudes=(0.02, 0.01), phases=(0.0, 1.3), "
            "M0=0.3, seed=42)\n"
            "s = sample_surface(m, 7)\n"
            "print(s.f(np.linspace(0, 1, 64)).tobytes().hex())\n"
        )
        outs = [subprocess.run([sys.executable, "-c", snippet], env=env,
                               capture_output=True, text=True, check=True)
                .stdout for _ in range(2)]
        assert outs[0] == outs[1]


class TestSource:
    def test_peak_value_is_amplitude(self, source_spec):
        g = make_source(source_spec, None, f_max=0.4, h=1.4)
        val = g(np.array([0.5, 0.8]))
        assert np.allclose(val, [1.0, 0.5j])

    def test_outside_disk_zero(self, source_spec):
        g = make_source(source_spec, None)
        assert np.array_equal(g(np.array([0.5, 1.2])), [0.0, 0.0])
        assert np.array_equal(g(np.array([0.1, 0.8])), [0.0, 0.0])

    def test_support_validation(self):
        spec = SourceSpec(center=(0.5, 0.5), radius=0.15,
                          amplitude=(1.0, 0.0), period=1.0)
        with pytest.raises(SourceSupportError):
            make_source(spec, None, f_max=0.4, h=1.4)
        spec_hi = SourceSpec(center=(0.5, 1.3), radius=0.15,
                             amplitude=(1.0, 0.0), period=1.0)
        with pytest.raises(SourceSupportError):
            make_source(spec_hi, None, f_max=0.4, h=1.4)

    def test_squared_norm_matches_radial_quadrature(self, source_spec):
        # independent oracle: 2D integral vs the 1D radial profile integral
        from scipy.integrate import dblquad, quad
        g = make_source(source_spec, None)
        cx, cy, r = 0.5, 0.8, source_spec.radius
        two_d, _ = dblquad(
            lambda y, x: float(np.sum(np.abs(g(np.array([x, y]))) ** 2)),
            cx - r, cx + r, cy - r, cy + r, epsabs=1e-12, epsrel=1e-12)
        amp_sq = abs(1.0) ** 2 + abs(0.5j) ** 2
        radial, _ = quad(
            lambda t: math.exp(2.0 - 2.0 / (1.0 - t * t)) * t,
            0.0, 1.0, epsabs=1e-14)
        one_d = 2.0 * math.pi * r * r * radial * amp_sq
        assert two_d == pytest.approx(one_d, abs=1e-8)

    def test_gradient_matches_finite_differences(self, source_spec):
        g = make_source(source_spec, None)
        pts = np.array([[0.45, 0.85], [0.55, 0.72], [0.5, 0.93]])
        step = 1e-6
        for ax in range(2):
            lo, hi = pts.copy(), pts.copy()
            lo[:, ax] -= step
            hi[:, ax] += step
            fd = (g(hi) - g(lo)) / (2 * step)
            assert np.allclose(g.grad(pts)[..., ax], fd, atol=1e-6)

    def test_jitter_determinism_and_support(self):
        spec = SourceSpec(center=(0.5, 0.8), radius=0.12,
                          amplitude=(1.0, 0.0), period=1.0,
                          jitter=SourceJitter(center_radius=0.03,
                                              amplitude_rel=0.1, seed=9))
        a = make_source(spec, 5, f_max=0.4, h=1.4)
        b = make_source(spec, 5, f_max=0.4, h=1.4)
        assert a == b
        c = make_source(spec, 6, f_max=0.4, h=1.4)
        assert a != c
        # jittered disk still strictly inside the band
        assert c.center[1] - c.radius > 0.4
        assert c.center[1] + c.radius < 1.4

    def test_periodic_wrap_of_support(self):
        spec = SourceSpec(center=(0.02, 0.8), radius=0.15,
                          amplitude=(1.0, 0.0), period=1.0)
        g = make_source(spec, None)
        # same physical point reached from the other side of the seam
        assert np.allclose(g(np.array([0.98, 0.8])),
                           g(np.array([-0.02, 0.8])))
