"""Vertical wavenumbers, DtN symbol, projections, traces, traction."""

import decimal
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
    projection_matrices,
    symbol_bound_check,
    symbol_matrices,
    sweep_grid,
    traction,
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


def _decimal_symbol(xi: float, p) -> np.ndarray:
    """M(xi) from the module docstring's formula in 50-digit decimal
    arithmetic, on the exact binary values of xi and p; complex numbers
    are (re, im) pairs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dec = decimal.Decimal
        x, w2, mu = dec(xi), dec(p.omega) ** 2, dec(p.mu)

        def gam(k):
            d = dec(k) ** 2 - x * x
            return (d.sqrt(), dec(0)) if d >= 0 else (dec(0), (-d).sqrt())

        def mul(a, b):
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

        g_p, g_s = gam(p.k_p), gam(p.k_s)
        gg = mul(g_p, g_s)
        rho = (x * x + gg[0], gg[1])
        r2 = rho[0] ** 2 + rho[1] ** 2
        i_over_rho = (rho[1] / r2, rho[0] / r2)
        off = (x * (mu * rho[0] - w2), x * mu * rho[1])
        entries = [(w2 * g_p[0], w2 * g_p[1]), off, (-off[0], -off[1]),
                   (w2 * g_s[0], w2 * g_s[1])]
        out = [mul(i_over_rho, e) for e in entries]
        return np.array([complex(float(re), float(im))
                         for re, im in out]).reshape(2, 2)


class TestSymbolPrecision:
    @pytest.mark.parametrize("omega", [2.0, 8.0, 24.0])
    def test_symbols_match_a_decimal_reference(self, omega):
        # every mode a mesh up to nx = 511 resolves: where both branches
        # are evanescent, xi^2 + gamma_p gamma_s cancels in floating point
        # unless it is formed from its conjugate form
        p = make_params(1.0, 1.0, omega)
        xis = 2.0 * math.pi * np.arange(256)
        m = symbol_matrices(xis, p)
        ref = np.array([_decimal_symbol(xi, p) for xi in xis])
        assert np.all(np.abs(m - ref) <= 1e-14 * np.abs(ref))


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


def _trace(modes: dict, period=1.0) -> TraceCoefficients:
    """The trace with coefficient modes[n] at each mode n, in dict order."""
    ns = np.array(list(modes), dtype=int)
    coef = np.array([modes[n] for n in ns], dtype=complex).reshape(-1, 2)
    return TraceCoefficients(period=period, ns=ns, coef=coef)


class TestTraceOps:
    def test_apply_dtn_zero(self, params2):
        out = apply_dtn(_trace({}), params2)
        assert out.ns.shape == (0,) and out.coef.shape == (0, 2)

    def test_apply_dtn_single_mode(self, params2):
        u = np.array([1.0, 0.0], dtype=complex)
        out = apply_dtn(_trace({1: u}), params2)
        expect = symbol_matrices(2 * math.pi, params2) @ u
        assert list(out.ns) == [1]
        assert np.allclose(out.coef[0], expect, atol=1e-14)

    def test_apply_dtn_equals_analytic_traction_of_upgoing_wave(self, params2):
        # p-polarized upgoing mode: differentiate the field by hand and feed
        # the traction operator; the DtN output must agree entrywise
        xi = 2 * math.pi
        gp = complex(gamma(xi, params2.k_p))
        a = np.array([xi, gp], dtype=complex)  # eigenvector of Mp
        dtn_out = apply_dtn(_trace({1: a}), params2).coef[0]
        grad = np.stack([1j * xi * a, 1j * gp * a], axis=1)
        div = 1j * xi * a[0] + 1j * gp * a[1]
        t = traction(grad, div, (0.0, 1.0), params2)
        assert np.max(np.abs(dtn_out - t)) < 1e-10

    def test_unsorted_modes_match_per_mode_formulas(self, params2):
        # five modes in no order, propagating and evanescent: each output
        # row is its own mode's formula, whatever the order, and the trace
        # values sum the modes
        ns = np.array([3, -1, 0, -4, 2])
        gen = np.random.default_rng(5)
        coef = gen.standard_normal((5, 2)) + 1j * gen.standard_normal((5, 2))
        tr = TraceCoefficients(period=1.3, ns=ns, coef=coef)
        assert np.array_equal(tr.xis, 2 * math.pi * ns / 1.3)
        out = apply_dtn(tr, params2)
        assert np.array_equal(out.ns, ns)
        x1s = np.array([0.21, 0.9, 1.2])
        values = tr.values(x1s)
        trace = np.zeros_like(values)
        for k, n in enumerate(ns):
            xi = 2 * math.pi * n / 1.3
            u = coef[k]
            m = symbol_matrices(xi, params2)
            assert np.allclose(out.coef[k], m @ u, rtol=1e-14, atol=0)
            for j, x1 in enumerate(x1s):
                trace[j] += u * np.exp(1j * xi * x1)
        assert np.allclose(values, trace, rtol=0,
                           atol=1e-14 * np.max(np.abs(trace)))

    def test_empty_trace_shapes(self, params2):
        tr = TraceCoefficients(period=1.0, ns=np.zeros(0, dtype=int),
                               coef=np.zeros((0, 2), dtype=complex))
        assert tr.xis.shape == (0,)
        assert np.array_equal(tr.values(np.linspace(0.0, 1.0, 4)),
                              np.zeros((4, 2)))
        out = apply_dtn(tr, params2)
        assert out.ns.shape == (0,) and out.coef.shape == (0, 2)


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
