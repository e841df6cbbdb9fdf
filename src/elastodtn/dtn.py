"""Vertical wavenumbers, the elastic DtN symbol, mode algebra, traction.

Branch convention: gamma(xi, k) = sqrt(k^2 - xi^2) >= 0 for |xi| <= k and
i*sqrt(xi^2 - k^2) for |xi| > k, i.e. Im gamma >= 0, so exp(i*gamma*(x2-h))
stays bounded above the line x2 = h.

For a horizontal wavenumber xi the 2x2 DtN symbol is

    M(xi) = i/rho * [[w^2 g_p,          xi*(mu*rho - w^2)],
                     [-xi*(mu*rho - w^2),        w^2 g_s ]],

rho = xi^2 + g_p*g_s, and the compressional/shear mode projections are

    Mp = 1/rho * [[xi^2,  g_s*xi], [g_p*xi, g_p*g_s]],
    Ms = 1/rho * [[g_p*g_s, -g_s*xi], [-g_p*xi, xi^2]].

Mp and Ms are complementary rank-one projections (Mp+Ms=I, Mp^2=Mp,
Mp*Ms=0), and the keystone identity ties everything together: the traction
mu*d_n u + (lam+mu)*n*div u of the exact upgoing field built from Mp/Ms
equals M(xi) applied to the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SymbolSingularError
from .model import ElasticParams

__all__ = [
    "gamma",
    "symbol_matrices",
    "projection_matrices",
    "TraceCoefficients",
    "apply_dtn",
    "traction",
    "symbol_bound_check",
]

_RHO_FLOOR = 1e-14


def gamma(xi, k: float):
    """Branch-correct sqrt(k^2 - xi^2); scalar in, scalar out (or array)."""
    if k <= 0:
        raise ParameterError(f"wavenumber k must be positive, got {k}")
    xi = np.asarray(xi, dtype=float)
    diff = k * k - xi * xi
    out = np.where(diff >= 0.0,
                   np.sqrt(np.maximum(diff, 0.0)) + 0.0j,
                   1j * np.sqrt(np.maximum(-diff, 0.0)))
    return out if out.ndim else complex(out)


def _gammas_rho(xi, p: ElasticParams):
    """gamma_p, gamma_s and rho = xi^2 + gamma_p gamma_s.

    Where both branches are evanescent (|xi| > k_s), gamma_p gamma_s =
    -|gamma_p| |gamma_s| and xi^2 - |gamma_p| |gamma_s| cancels; rho is
    formed there as (xi^2 (k_p^2 + k_s^2) - k_p^2 k_s^2) /
    (xi^2 + |gamma_p| |gamma_s|), the same value without the cancellation.
    """
    xi = np.asarray(xi, dtype=float)
    g_p = gamma(xi, p.k_p)
    g_s = gamma(xi, p.k_s)
    xi2 = xi * xi
    kp2, ks2 = p.k_p ** 2, p.k_s ** 2
    rho = np.where(np.abs(xi) > p.k_s,
                   (xi2 * (kp2 + ks2) - kp2 * ks2)
                   / (xi2 + np.abs(g_p) * np.abs(g_s)),
                   xi2 + g_p * g_s)
    return g_p, g_s, rho


def symbol_matrices(xis, p: ElasticParams) -> np.ndarray:
    """Vectorized DtN symbols, shape (..., 2, 2)."""
    xis = np.asarray(xis, dtype=float)
    g_p, g_s, rho = _gammas_rho(xis, p)
    if np.any(np.abs(rho) < _RHO_FLOOR):
        raise SymbolSingularError("xi^2 + gamma_p*gamma_s vanished")
    w2 = p.omega ** 2
    off = xis * (p.mu * rho - w2)
    m = np.empty(np.shape(xis) + (2, 2), dtype=complex)
    m[..., 0, 0] = w2 * g_p
    m[..., 0, 1] = off
    m[..., 1, 0] = -off
    m[..., 1, 1] = w2 * g_s
    return 1j / rho[..., None, None] * m


def projection_matrices(xis, p: ElasticParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (Mp, Ms), each shape (..., 2, 2)."""
    xis = np.asarray(xis, dtype=float)
    g_p, g_s, rho = _gammas_rho(xis, p)
    if np.any(np.abs(rho) < _RHO_FLOOR):
        raise SymbolSingularError("xi^2 + gamma_p*gamma_s vanished")
    mp = np.empty(np.shape(xis) + (2, 2), dtype=complex)
    mp[..., 0, 0] = xis * xis
    mp[..., 0, 1] = g_s * xis
    mp[..., 1, 0] = g_p * xis
    mp[..., 1, 1] = g_p * g_s
    mp /= rho[..., None, None]
    ms = np.zeros_like(mp)
    ms[..., 0, 0] = mp[..., 1, 1]
    ms[..., 0, 1] = -mp[..., 0, 1]
    ms[..., 1, 0] = -mp[..., 1, 0]
    ms[..., 1, 1] = mp[..., 0, 0]
    return mp, ms


@dataclass(frozen=True)
class TraceCoefficients:
    """Fourier data of a vector trace on a horizontal line.

    coef[k] (coef is (K, 2) complex) is the coefficient of exp(i xi_k x1)
    with xi_k = 2 pi ns[k] / period, for the integer modes ns (K,) in any
    order; the L2 norm on one period is sqrt(period * sum |coef|^2).
    """

    period: float
    ns: np.ndarray
    coef: np.ndarray

    @property
    def xis(self) -> np.ndarray:
        return 2.0 * math.pi * self.ns / self.period

    def values(self, x1) -> np.ndarray:
        """The trace sum_k coef[k] exp(i xi_k x1) at the abscissae x1 (N,),
        shape (N, 2)."""
        return np.einsum("xk,ka->xa", np.exp(1j * np.outer(x1, self.xis)),
                         self.coef)


def apply_dtn(trace: TraceCoefficients, p: ElasticParams) -> TraceCoefficients:
    """The DtN operator applied mode by mode: M(xi_k) coef[k]."""
    return TraceCoefficients(
        period=trace.period, ns=trace.ns,
        coef=np.einsum("kab,kb->ka", symbol_matrices(trace.xis, p),
                       trace.coef))


def traction(grad_u: np.ndarray, div_u: complex, normal, p: ElasticParams) -> np.ndarray:
    """T = mu * (grad_u @ n) + (lam + mu) * n * div_u.

    grad_u is the Jacobian convention grad_u[j, k] = d u_j / d x_k and n is a
    unit vector.
    """
    n = np.asarray(normal, dtype=float)
    if abs(float(n @ n) - 1.0) > 1e-12:
        raise ParameterError("normal must be a unit vector")
    grad_u = np.asarray(grad_u, dtype=complex)
    return p.mu * (grad_u @ n) + (p.lam + p.mu) * n * div_u


def _max_entry_norm(mats: np.ndarray) -> np.ndarray:
    """Max-absolute-entry norm along the last two axes."""
    return np.max(np.abs(mats), axis=(-2, -1))


def _positive_definite_2x2(h: np.ndarray) -> np.ndarray:
    """Whether each Hermitian 2x2 matrix of h (..., 2, 2) is positive
    definite: exactly when its trace and its determinant are positive."""
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1]
    return (a + d > 0.0) & (a * d - (b.real ** 2 + b.imag ** 2) > 0.0)


def symbol_bound_check(p: ElasticParams, xi_grid) -> dict:
    """Numerical sweep of the symbol-bound properties.

    Returns c_of_omega = max ||M||/(1+xi^2) over the grid, neg_def_ok
    (Hermitian part of -M positive definite wherever |xi| > k_s), and
    interior_ratio = max ||M||/omega over |xi| <= k_s.  The norm is the
    max-absolute-entry norm.
    """
    xi = np.asarray(xi_grid, dtype=float)
    mats = symbol_matrices(xi, p)
    norms = _max_entry_norm(mats)
    c_of_omega = float(np.max(norms / (1.0 + xi ** 2)))

    evan = np.abs(xi) > p.k_s
    herm = 0.5 * (mats[evan] + np.conj(np.swapaxes(mats[evan], -1, -2)))
    neg_def_ok = bool(np.all(_positive_definite_2x2(-herm)))

    interior = np.abs(xi) <= p.k_s
    interior_ratio = float(np.max(norms[interior]) / p.omega) if np.any(interior) else 0.0
    return {
        "c_of_omega": c_of_omega,
        "neg_def_ok": neg_def_ok,
        "interior_ratio": interior_ratio,
    }


def sweep_grid(p: ElasticParams, n_points: int = 1000,
               upper_factor: float = 8.0) -> np.ndarray:
    """Uniform grid on [0, upper_factor*k_s] with the branch points inserted."""
    xi = np.linspace(0.0, upper_factor * p.k_s, n_points)
    return np.unique(np.concatenate([xi, [p.k_p, p.k_s]]))
