"""Vertical wavenumbers, DtN symbol, projections, traces, traction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastodtn.dtn import (
    TraceCoefficients,
    _positive_definite_2x2,
    apply_dtn,
    gamma,
    helmholtz_split,
    projection_matrices,
    symbol_bound_check,
    symbol_matrices,
    sweep_grid,
    traction,
    upward_extend,
)
from elastodtn.errors import ParameterError
from elastodtn.model import make_params


class TestGamma:
    def test_propagating(self):
        assert gamma(0.0, 2.0) == 2.0

    def test_branch_point(self):
        assert gamma(2.0, 2.0) == 0.0

    def test_evanescent(self):
        assert gamma(2.828427, 2.0) == pytest.approx(2j, abs=1e-5)

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError):
            gamma(1.0, 0.0)

    @given(xi=st.floats(-50, 50), k=st.floats(0.01, 20))
    @settings(max_examples=300)
    def test_branch_and_square(self, xi, k):
        g = complex(gamma(xi, k))
        assert g.imag >= 0.0
        assert g.real >= 0.0
        assert g * g == pytest.approx(k * k - xi * xi, rel=1e-12, abs=1e-9)


class TestSymbol:
    def test_normal_incidence_diagonal(self):
        p = make_params(1.0, 1.0, 2.0)
        m = symbol_matrices(0.0, p)
        expect = np.diag([2j, 3.464102j])
        assert np.allclose(m, expect, atol=1e-6)

    def test_parity(self):
        p = make_params(1.0, 2.0, 3.0)
        d = np.diag([1.0, -1.0])
        gen = np.random.default_rng(0)
        for xi in gen.uniform(-5 * p.k_s, 5 * p.k_s, 50):
            m_plus = symbol_matrices(xi, p)
            m_minus = symbol_matrices(-xi, p)
            assert np.max(np.abs(m_minus - d @ m_plus @ d)) < 1e-14

    @pytest.mark.parametrize("omega", [1.0, 2.0, 4.0])
    def test_evanescent_real_part_negative_definite(self, omega):
        p = make_params(1.0, 1.0, omega)
        m = symbol_matrices(3.0 * p.k_s, p)
        herm = 0.5 * (m + np.conj(m.T))
        assert np.all(np.linalg.eigvalsh(herm) < 0.0)

    def test_rho_positivity_over_sweep(self):
        p = make_params(1.0, 1.0, 2.0)
        xi = sweep_grid(p, 2000)
        g_p = np.array([gamma(x, p.k_p) for x in xi])
        g_s = np.array([gamma(x, p.k_s) for x in xi])
        rho = xi ** 2 + g_p * g_s
        assert np.all(np.abs(rho) > 1e-10 * np.maximum(1.0, xi ** 2))


class TestProjections:
    def test_normal_incidence(self):
        p = make_params(1.0, 1.0, 2.0)
        mp, ms = projection_matrices(0.0, p)
        assert np.allclose(mp, [[0, 0], [0, 1]], atol=1e-15)
        assert np.allclose(ms, [[1, 0], [0, 0]], atol=1e-15)

    def test_projection_algebra(self):
        p = make_params(1.0, 1.5, 3.0)
        gen = np.random.default_rng(1)
        xi = gen.uniform(-5 * p.k_s, 5 * p.k_s, 100)
        mp, ms = projection_matrices(xi, p)
        eye = np.eye(2)
        assert np.max(np.abs(mp + ms - eye)) < 1e-12
        assert np.max(np.abs(mp @ mp - mp)) < 1e-12
        assert np.max(np.abs(ms @ ms - ms)) < 1e-12
        assert np.max(np.abs(mp @ ms)) < 1e-12


class TestTraceOps:
    def test_apply_dtn_zero(self, params2):
        tr = TraceCoefficients(period=1.0, height=1.4, modes={})
        out = apply_dtn(tr, params2, 8)
        assert out.modes == {}

    def test_apply_dtn_single_mode(self, params2):
        u = np.array([1.0, 0.0], dtype=complex)
        tr = TraceCoefficients(period=1.0, height=1.4, modes={1: u})
        out = apply_dtn(tr, params2, 8)
        expect = symbol_matrices(2 * math.pi, params2) @ u
        assert np.allclose(out.modes[1], expect, atol=1e-14)

    def test_apply_dtn_truncates(self, params2):
        tr = TraceCoefficients(period=1.0, height=1.4,
                               modes={0: np.ones(2), 9: np.ones(2)})
        out = apply_dtn(tr, params2, 8)
        assert set(out.modes) == {0}

    def test_apply_dtn_equals_analytic_traction_of_upgoing_wave(self, params2):
        # p-polarized upgoing mode: differentiate the field by hand and feed
        # the traction operator; the DtN output must agree entrywise
        xi = 2 * math.pi
        gp = complex(gamma(xi, params2.k_p))
        a = np.array([xi, gp], dtype=complex)  # eigenvector of Mp
        tr = TraceCoefficients(period=1.0, height=1.4, modes={1: a})
        dtn_out = apply_dtn(tr, params2, 8).modes[1]
        grad = np.stack([1j * xi * a, 1j * gp * a], axis=1)
        div = 1j * xi * a[0] + 1j * gp * a[1]
        t = traction(grad, div, (0.0, 1.0), params2)
        assert np.max(np.abs(dtn_out - t)) < 1e-10

    def test_upward_extend_reproduces_trace_at_h(self, params2):
        a = np.array([0.3 + 1j, -0.2], dtype=complex)
        tr = TraceCoefficients(period=1.0, height=1.4, modes={2: a})
        pts = np.array([[0.37, 1.4]])
        val = upward_extend(tr, params2, pts)
        expect = a * np.exp(1j * 2 * math.pi * 2 * 0.37)
        assert np.allclose(val[0], expect, atol=1e-13)

    def test_upward_extend_evanescent_decay(self, params2):
        n = 3
        xi = 2 * math.pi * n
        a = np.array([1.0, 0.7j], dtype=complex)
        tr = TraceCoefficients(period=1.0, height=1.4, modes={n: a})
        val = upward_extend(tr, params2, np.array([[0.3, 2.4]]))
        gp = complex(gamma(xi, params2.k_p))
        gs = complex(gamma(xi, params2.k_s))
        mp, ms = projection_matrices(xi, params2)
        hand = (np.exp(1j * gp) * (mp @ a) + np.exp(1j * gs) * (ms @ a)) \
            * np.exp(1j * xi * 0.3)
        assert np.allclose(val[0], hand, atol=1e-14)
        # slowest decay rate is the s-branch
        bound = math.exp(-math.sqrt(xi ** 2 - params2.k_s ** 2))
        assert np.max(np.abs(val)) <= 4.0 * bound * float(np.sum(np.abs(a)))

    def test_upward_extend_zero(self, params2):
        tr = TraceCoefficients(period=1.0, height=1.4, modes={})
        assert np.array_equal(upward_extend(tr, params2, np.array([[0.1, 2.0]])),
                              np.zeros((1, 2)))

    def test_parseval_norm(self):
        tr = TraceCoefficients(period=2.0, height=1.0,
                               modes={0: np.array([1.0, 0.0]),
                                      3: np.array([0.0, 2.0])})
        assert tr.norm_l2() == pytest.approx(math.sqrt(2.0 * (1 + 4)))


class TestHelmholtzSplit:
    def test_pure_p_mode(self, params2):
        xi = 2 * math.pi
        gp = complex(gamma(xi, params2.k_p))
        h = 1.4
        u = np.array([xi, gp]) * np.exp(1j * gp * h)
        tr = TraceCoefficients(period=1.0, height=h, modes={1: u})
        phi, psi = helmholtz_split(tr, params2)
        assert abs(psi[1]) < 1e-12 * abs(phi[1])
        assert phi[1] == pytest.approx(np.exp(1j * gp * h), abs=1e-12)

    def test_pure_s_mode(self, params2):
        xi = 2 * math.pi
        gs = complex(gamma(xi, params2.k_s))
        u = np.array([gs, -xi]) * 0.7
        tr = TraceCoefficients(period=1.0, height=1.4, modes={1: u})
        phi, psi = helmholtz_split(tr, params2)
        assert abs(phi[1]) < 1e-12 * abs(psi[1])

    def test_zero_trace(self, params2):
        tr = TraceCoefficients(period=1.0, height=1.4, modes={})
        phi, psi = helmholtz_split(tr, params2)
        assert phi == {} and psi == {}


class TestTraction:
    def test_rigid_translation(self, params2):
        t = traction(np.zeros((2, 2)), 0.0, (0.0, 1.0), params2)
        assert np.array_equal(t, [0.0, 0.0])

    def test_vertical_stretch(self):
        p = make_params(1.0, 1.0, 2.0)
        grad = np.array([[0.0, 0.0], [0.0, 1.0]])  # u = (0, x2)
        t = traction(grad, 1.0, (0.0, 1.0), p)
        assert np.allclose(t, [0.0, 3.0])

    def test_horizontal_shear(self):
        p = make_params(1.0, 1.0, 2.0)
        grad = np.array([[0.0, 1.0], [0.0, 0.0]])  # u = (x2, 0)
        t = traction(grad, 0.0, (0.0, 1.0), p)
        assert np.allclose(t, [1.0, 0.0])

    def test_unit_normal_enforced(self, params2):
        with pytest.raises(ParameterError):
            traction(np.zeros((2, 2)), 0.0, (0.0, 2.0), params2)


class TestKeystone:
    """Traction of the exact upgoing field equals the symbol on the trace."""

    def test_random_pairs(self):
        p = make_params(1.0, 1.0, 2.0)
        gen = np.random.default_rng(7)
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
            assert np.max(np.abs(t - symbol_matrices(xi, p) @ a)) < 1e-10


class TestSymbolBounds:
    def test_negative_definite_beyond_ks(self):
        p = make_params(1.0, 1.0, 2.0)
        rep = symbol_bound_check(p, sweep_grid(p, 1000))
        assert rep["neg_def_ok"]

    def test_definiteness_closed_form_equals_eigvalsh(self):
        gen = np.random.default_rng(5)
        n = 400
        a = gen.standard_normal((n, 2, 2)) + 1j * gen.standard_normal(
            (n, 2, 2))
        gram = a @ np.conj(np.swapaxes(a, -1, -2))      # PSD, full rank
        # positive definite, indefinite and negative definite members: a
        # shift by 0.1, -0.5 or -1.5 times the trace moves neither
        # eigenvalue past 0, the smaller one, or both
        shift = gen.choice([0.1, -0.5, -1.5], size=n)[:, None, None]
        h = gram + shift * np.trace(gram, axis1=1, axis2=2).real[
            :, None, None] * np.eye(2)
        # exactly singular members (eigvalsh's smaller eigenvalue is 0 or
        # below) and the zero matrix
        singular = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 0]],
                             [[1, 1j], [-1j, 1]], [[4, 2], [2, 1]],
                             [[2, 2 + 2j], [2 - 2j, 4]],
                             [[9, 3 - 6j], [3 + 6j, 5]]], dtype=complex)
        h = np.concatenate([h, singular, -singular])
        eigs = np.linalg.eigvalsh(h)
        expect = eigs[:, 0] > 0.0
        got = _positive_definite_2x2(h)
        assert 0 < np.count_nonzero(expect) < n
        assert np.any((eigs[:n, 0] < 0.0) & (eigs[:n, 1] > 0.0))
        assert np.any(eigs[:n, 1] < 0.0)
        assert not np.any(got[n:])
        assert np.array_equal(got, expect)

    def test_interior_ratio_uniform_in_omega(self):
        ratios = []
        for omega in (1.0, 2.0, 4.0, 8.0, 16.0):
            p = make_params(1.0, 1.0, omega)
            rep = symbol_bound_check(p, sweep_grid(p, 1000))
            ratios.append(rep["interior_ratio"])
        assert max(ratios) / min(ratios) < 2.0

    def test_growth_constant_grid_stable(self):
        p = make_params(1.0, 1.0, 2.0)
        c_coarse = symbol_bound_check(p, sweep_grid(p, 1000))["c_of_omega"]
        c_fine = symbol_bound_check(p, sweep_grid(p, 4000))["c_of_omega"]
        assert math.isfinite(c_coarse)
        assert abs(c_fine - c_coarse) / c_coarse < 0.01
