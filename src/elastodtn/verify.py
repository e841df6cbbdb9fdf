"""Executable checks: manufactured solutions, inequality residuals,
stability-constant shapes, frequency sweeps and pullback identities.

All stability "constants" here are shapes with the generic prefactor set to
1; only growth rates, ratios and envelopes are checkable quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .dtn import apply_dtn, gamma
from .errors import InternalError, MmsError, SweepError
from .fem import (
    FieldSolution,
    assemble_B,
    assemble_B_transformed,  # the benchmark self-test checks its tracing
    assemble_load,
    map_quadrature,
    solve,
    strip_preconditioner,
    trace_coefficients,
)
from .mesh import Mesh, build_mesh
from .model import (DomainMap, ElasticParams, Geometry, SourceField,
                    keyed_generator, make_params)

__all__ = [
    "BoundProfile",
    "bound_profile",
    "SmoothStep",
    "UpgoingModesField",
    "manufactured_source",
    "mms_convergence",
    "rellich_residual",
    "poincare_check",
    "SweepConfig",
    "SweepResult",
    "omega_sweep",
    "pullback_identity_check",
]


# ---------------------------------------------------------------------------
# Stability-constant shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundProfile:
    """Shape values of the stability constants (generic prefactor = 1).

    With H = h+1:
        c1 = sqrt(1+L^2) (omega (h-m) + 1)
        c2 = (1+L^2)^(1/4) sqrt(H-m) (1 + omega (H-m))
        c3 = (H-m)(1 + omega (H-m))^2 / omega
        c4 = (h+1-m) omega
        c5 = sqrt(1 + 1/omega) c3
        c6 = (1/omega + 1) c1 c2^2
    """

    omega: float
    h: float
    m: float
    L: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float

    @property
    def envelope_factor(self) -> float:
        """(H - m + 1)^2 (c4 + c5 + c6)^2: the mean-square envelope is
        C times this times E||g~||^2_H1."""
        return ((self.h + 2.0 - self.m) ** 2
                * (self.c4 + self.c5 + self.c6) ** 2)

    def anchor_constant(self, u_h1: float, g_h1: float) -> float:
        """The envelope constant ||u||^2_H1 / (envelope_factor ||g||^2_H1)
        calibrated on a deterministic solve u of the source g."""
        return u_h1 ** 2 / (self.envelope_factor * g_h1 ** 2)


def bound_profile(omega: float, h: float, m: float, L: float) -> BoundProfile:
    cap_h = h + 1.0
    c1 = math.sqrt(1.0 + L * L) * (omega * (h - m) + 1.0)
    c2 = (1.0 + L * L) ** 0.25 * math.sqrt(cap_h - m) * (1.0 + omega * (cap_h - m))
    c3 = (cap_h - m) * (1.0 + omega * (cap_h - m)) ** 2 / omega
    c4 = (h + 1.0 - m) * omega
    c5 = math.sqrt(1.0 + 1.0 / omega) * c3
    c6 = (1.0 / omega + 1.0) * c1 * c2 ** 2
    return BoundProfile(omega=omega, h=h, m=m, L=L,
                        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6)


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------

class SmoothStep:
    """Polynomial step, 0 below lo and 1 above hi: quintic (C^2, the default)
    or septic (C^3, order=7)."""

    def __init__(self, lo: float, hi: float, order: int = 5):
        if not hi > lo:
            raise MmsError(f"band must satisfy hi > lo, got ({lo}, {hi})")
        if order not in (5, 7):
            raise MmsError("smoothstep order must be 5 or 7")
        self.lo = float(lo)
        self.hi = float(hi)
        self.width = float(hi - lo)
        self.order = order

    def _t(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.lo) / self.width, 0.0, 1.0)

    def value(self, x):
        return self._value(self._t(x))

    def d1(self, x):
        return self._d1(self._t(x))

    def value_d1(self, x):
        """(value, d1) from one clip of the parameter; the polynomials only
        where 0 < t < 1, as at t = 0 and 1 they are exactly 0 or 1 and 0."""
        t = np.asarray(self._t(x))
        ramp = (t > 0.0) & (t < 1.0)
        val, d1 = np.where(t == 1.0, 1.0, 0.0), np.zeros_like(t)
        val[ramp], d1[ramp] = self._value(t[ramp]), self._d1(t[ramp])
        return val, d1

    def _value(self, t):
        if self.order == 5:
            return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))
        return t ** 4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))

    def _d1(self, t):
        if self.order == 5:
            return 30.0 * t ** 2 * (t - 1.0) ** 2 / self.width
        return 140.0 * t ** 3 * (1.0 - t) ** 3 / self.width

    def d2(self, x):
        t = self._t(x)
        if self.order == 5:
            return 60.0 * t * (2.0 * t - 1.0) * (t - 1.0) / self.width ** 2
        return 420.0 * t ** 2 * (1.0 - t) ** 2 * (1.0 - 2.0 * t) / self.width ** 2


class SmoothWindow:
    """C^3 window: 0 outside (lo, hi), 1 on the middle plateau.  Its value
    and derivative are exactly 0 outside the open `support` (lo, hi)."""

    def __init__(self, lo: float, hi: float, ramp_fraction: float = 0.35):
        self.support = (float(lo), float(hi))
        w = (hi - lo) * ramp_fraction
        self.up = SmoothStep(lo, lo + w, order=7)
        self.down = SmoothStep(hi - w, hi, order=7)

    def value_d1(self, x):
        """(value, d1) from one evaluation of each step."""
        up, dup = self.up.value_d1(x)
        down, ddown = self.down.value_d1(x)
        rest = 1.0 - down
        return up * rest, dup * rest - up * ddown


class UpgoingModesField:
    """Sum of exact upgoing compressional modes times a vertical step.

    u(x) = chi(x2) * sum_j c_j (xi_j, g_j) exp(i (xi_j x1 + g_j x2)) with
    xi_j = 2 pi n_j / period and g_j = gamma(xi_j, k_p).  The field vanishes
    (with its trace) below the band, and above the band it solves the
    homogeneous problem and satisfies the transparent condition exactly, so
    the manufactured source is supported inside the band:

        g1 = c xi  [mu chi'' + i (lam+3mu) g chi'] E
        g2 = c     [(lam+2mu) g chi'' + i chi' (2 mu g^2 + (lam+mu)(k_p^2+g^2))] E
    """

    def __init__(self, p: ElasticParams, period: float,
                 modes: list[tuple[int, complex]], band: tuple[float, float]):
        self.p = p
        self.period = float(period)
        self.chi = SmoothStep(*band)
        self.modes = []
        for n, c in modes:
            xi = 2.0 * math.pi * n / self.period
            self.modes.append((xi, complex(gamma(xi, p.k_p)), complex(c)))

    def value(self, pts):
        return self.value_grad(pts)[0]

    def grad(self, pts):
        """(..., 2, 2) with [a, b] = d u_a / d x_b."""
        return self.value_grad(pts)[1]

    def value_grad(self, pts):
        """(value, grad) from one evaluation of the step and of each
        mode's exponential."""
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[..., 0], pts[..., 1]
        ch, dch = self.chi.value_d1(x2)
        val = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
        grad = np.zeros(pts.shape[:-1] + (2, 2), dtype=complex)
        for xi, g, c in self.modes:
            e = np.exp(1j * (xi * x1 + g * x2))
            d1 = 1j * xi * ch * e
            d2 = (dch + 1j * g * ch) * e
            for a, k in enumerate((xi, g)):
                val[..., a] += c * k * ch * e
                grad[..., a, 0] += c * k * d1
                grad[..., a, 1] += c * k * d2
        return val, grad

    def source(self, pts):
        pts = np.asarray(pts, dtype=float)
        x1, x2 = pts[..., 0], pts[..., 1]
        dch = self.chi.d1(x2)
        ddch = self.chi.d2(x2)
        lam, mu, kp2 = self.p.lam, self.p.mu, self.p.k_p ** 2
        out = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
        for xi, g, c in self.modes:
            e = np.exp(1j * (xi * x1 + g * x2))
            out[..., 0] += c * xi * (mu * ddch + 1j * (lam + 3.0 * mu) * g * dch) * e
            out[..., 1] += c * ((lam + 2.0 * mu) * g * ddch
                                + 1j * dch * (2.0 * mu * g * g
                                              + (lam + mu) * (kp2 + g * g))) * e
        return out


def manufactured_source(u_exact):
    """Source g = mu Lap(u) + (lam+mu) grad(div u) + omega^2 u of a
    manufactured field: its closed-form `.source`, once the field is found
    periodic in x1 over its `.period`."""
    x2 = np.linspace(0.0, 1.0, 9)
    left = np.stack([np.zeros_like(x2), x2], axis=-1)
    right = left.copy()
    right[..., 0] = u_exact.period
    va, vb = np.asarray(u_exact.value(left)), np.asarray(u_exact.value(right))
    scale = max(1.0, float(np.max(np.abs(va))))
    if np.max(np.abs(va - vb)) > 1e-9 * scale:
        raise MmsError("manufactured field is not periodic in x1")
    return u_exact.source


def _field_errors(mesh: Mesh, sol_values: np.ndarray, field) -> tuple[float, float]:
    """(h1_error, l2_error) of the P1 field against a manufactured field.

    The field and its gradient are exactly 0 at and below its step's lo,
    so they are evaluated only on the triangles with a rule point above."""
    q = mesh.quadrature
    uh = q.interpolate(np.asarray(sol_values, dtype=complex)[mesh.triangles])
    guh = fem.element_gradients(mesh, sol_values)           # (nt, 2, 2)
    live = _support_elements(q.points, (field.chi.lo, math.inf))
    u = np.zeros(uh.shape, dtype=complex)
    du = np.zeros(uh.shape + (2,), dtype=complex)
    u[live], du[live] = field.value_grad(q.points[live])
    l2_sq = float(q.integral(np.abs(uh - u) ** 2))
    semi_sq = float(q.integral(np.abs(guh[:, None, :, :] - du) ** 2))
    return math.sqrt(l2_sq + semi_sq), math.sqrt(l2_sq)


def default_mms_field(p: ElasticParams, geom: Geometry,
                      amplitude: complex = 1.0) -> UpgoingModesField:
    """Vertical + first-order oblique upgoing p-modes over a band that clears
    the surface and ends below the measured height."""
    top = geom.h
    m_sup = geom.surface.f_max
    lo = m_sup + 0.15 * (top - m_sup)
    hi = m_sup + 0.55 * (top - m_sup)
    return UpgoingModesField(
        p, geom.surface.period,
        modes=[(0, amplitude), (1, 0.7 * amplitude)],
        band=(lo, hi),
    )


def mms_convergence(p: ElasticParams, geom: Geometry, levels: int,
                    nx0: int | None = None, ny0: int | None = None,
                    field: UpgoingModesField | None = None):
    """Error table over dyadic refinements for the manufactured problem.

    Returns a list of {mesh_size, h1_error, l2_error, solver, iterations,
    n_max} dicts, coarse to fine.  Each level solves by GMRES
    preconditioned with its own strip operator (`fem.strip_preconditioner`;
    the LU when GMRES misses the residual gate) and integrates the load
    only on the triangles with a rule point inside the step's band: the
    source is exactly zero elsewhere.  Each level's DtN keeps every mode
    its mesh resolves (`fem.assemble_B`), and its row records that n_max.
    """
    if levels < 3:
        raise MmsError("need at least 3 refinement levels")
    per = geom.surface.period
    if nx0 is None:
        nx0 = max(8, int(math.ceil(per * 8)))
    if ny0 is None:
        ny0 = max(8, int(math.ceil((geom.h - geom.surface.f_min) * 8)))
    if field is None:
        field = default_mms_field(p, geom)
    g = manufactured_source(field)
    table = []
    for lev in range(levels):
        mesh = build_mesh(geom.surface, geom.h, nx0 * 2 ** lev, ny0 * 2 ** lev)
        system = assemble_B(mesh, p)
        band = _support_elements(mesh.quadrature.points,
                                 (field.chi.lo, field.chi.hi))
        sol = solve(system, assemble_load(mesh, g, band),
                    preconditioner=strip_preconditioner(system))
        h1_err, l2_err = _field_errors(mesh, sol.values, field)
        table.append({"mesh_size": mesh.meshsize(),
                      "h1_error": h1_err, "l2_error": l2_err,
                      **fem.solver_record(sol)})
    return table


def convergence_slopes(table, key: str) -> list[float]:
    """Per-refinement observed orders log2(e_l / e_{l+1})."""
    errs = [row[key] for row in table]
    return [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


# ---------------------------------------------------------------------------
# Rellich-type boundary inequality
# ---------------------------------------------------------------------------

def _rellich_integrand(tu, u, grad, p: ElasticParams) -> np.ndarray:
    """2 Re(Tu . d2 conj(u)) - E(u, conj u) + omega^2 |u|^2, pointwise."""
    d2u = grad[..., 1]
    term1 = 2.0 * np.real(np.sum(tu * np.conj(d2u), axis=-1))
    div = grad[..., 0, 0] + grad[..., 1, 1]
    e = (p.mu * np.sum(np.abs(grad) ** 2, axis=(-2, -1))
         + (p.lam + p.mu) * np.abs(div) ** 2)
    return term1 - e + p.omega ** 2 * np.sum(np.abs(u) ** 2, axis=-1)


def rellich_residual(sol: FieldSolution, g: SourceField,
                     p: ElasticParams) -> dict:
    """lhs / rhs of the boundary inequality for a solved field.

    lhs uses the mode transform of the piecewise-linear top trace over its
    DtN block's modes (`fem.trace_coefficients`) and the top-layer element
    gradients (midpoint rule over top edges); rhs is 2 k_s Im int g . conj(u),
    integrated on the source's `support_elements` only (g is 0 elsewhere).
    """
    mesh = sol.mesh
    trace = trace_coefficients(sol)
    dx = mesh.period / mesh.nx
    tu_mid = apply_dtn(trace, p).values((np.arange(mesh.nx) + 0.5) * dx)

    top = sol.values[mesh.top_nodes]
    u_mid = 0.5 * (top + np.roll(top, -1, axis=0))
    gu = sol.gradients[mesh.top_edge_triangles()]
    lhs = float(np.sum(_rellich_integrand(tu_mid, u_mid, gu, p)) * dx)

    elems = g.support_elements(mesh.quadrature)
    q = mesh.quadrature.take(elems)
    uh = q.interpolate(sol.values[mesh.triangles[elems]])
    integral = q.integral(np.asarray(g(q.points), dtype=complex) * np.conj(uh))
    rhs = float(2.0 * p.k_s * np.imag(integral))
    return {"lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# Poincare bound
# ---------------------------------------------------------------------------

def _random_free_fields(mesh: Mesh, count: int, seed: int) -> np.ndarray:
    """(n_nodes, 2, count): random fields, 0 on the surface nodes and
    complex standard normal on the free ones.  One draw reads the stream
    as `count` draws of one field each would: per field the (free, 2) real
    parts, then the imaginary parts."""
    free = mesh.free_nodes
    z = keyed_generator(seed, 0xBA7C4).standard_normal(
        (count, 2, free.size, 2))
    block = np.zeros((mesh.n_nodes, 2, count), dtype=complex)
    block.view(float).reshape(mesh.n_nodes, 2, count, 2)[free] = \
        z.transpose(2, 3, 0, 1)
    return block


def _poincare_ratios(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """||u|| / ||d2 u|| of each field of an (n_nodes, 2, count) block (0
    when both vanish), from the P1 operators that `fem.norms` applies, here
    to the (re, im) float view of the whole block at once.  einsum sums
    the weighted squares without a temporary of the products' size."""
    ops, area = mesh.p1_operators, mesh.quadrature.area
    count = values.shape[-1]
    vf = np.ascontiguousarray(values, dtype=complex).reshape(
        values.shape[0], -1).view(float)     # (n_nodes, (a, field, re/im))
    s = ops.vertex_sum @ vf
    d2 = ops.grad[1::2] @ vf                    # d/dx2 on each triangle
    l2_sq = (np.einsum("t,tk,tk->k", area, s, s) / 12.0
             + np.einsum("n,nk,nk->k", ops.nodal_weights, vf, vf))
    d2_sq = np.einsum("t,tk,tk->k", area, d2, d2)
    l2, d2 = (np.sqrt(a.reshape(2, count, 2).sum(axis=(0, 2)))
              for a in (l2_sq, d2_sq))
    if np.any((d2 == 0.0) & (l2 > 0.0)):
        raise InternalError(
            "||d2 u|| = 0 with ||u|| > 0 for a surface-vanishing field")
    return np.divide(l2, d2, out=np.zeros(count), where=d2 > 0.0)


def poincare_check(mesh: Mesh, count: int, seed: int) -> float:
    """The worst ||u|| / ||d2 u|| over `count` random surface-vanishing
    fields drawn from `seed`.  The ratio does not depend on scale, so the
    fields are not normalized."""
    return float(np.max(_poincare_ratios(
        mesh, _random_free_fields(mesh, count, seed)), initial=0.0))


def source_norms(mesh: Mesh, g: SourceField, elems=None) -> dict:
    """L2 and H1 norms of an analytic source by degree-5 quadrature, on the
    triangles `elems` only (all when None; where g vanishes elsewhere)."""
    q = mesh.quadrature if elems is None else mesh.quadrature.take(elems)
    l2_sq = float(q.integral(
        np.abs(np.asarray(g(q.points), dtype=complex)) ** 2))
    semi_sq = float(q.integral(
        np.abs(np.asarray(g.grad(q.points), dtype=complex)) ** 2))
    return {"l2": math.sqrt(l2_sq), "h1": math.sqrt(l2_sq + semi_sq)}


# ---------------------------------------------------------------------------
# Frequency sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    lam: float
    mu: float
    omegas: tuple[float, ...]
    geom: Geometry
    source: SourceField
    nx: int
    ny: int


@dataclass(frozen=True)
class SweepResult:
    omegas: list[float]
    ratios: list[float]
    fitted_slope: float
    profile_envelope: list[float]
    solves: list[dict]     # per frequency: `fem.solver_record` of the solve


def omega_sweep(config: SweepConfig) -> SweepResult:
    """||u||_H1 / ||g||_H1 across frequencies, with the anchored omega^3
    envelope calibrated at the smallest frequency.  Each frequency solves
    by GMRES preconditioned with its own strip operator (the LU when GMRES
    misses the residual gate)."""
    if len(config.omegas) < 2:
        raise SweepError(f"a sweep needs >= 2 frequencies, got "
                         f"{len(config.omegas)}")
    geom = config.geom
    mesh = build_mesh(geom.surface, geom.h, config.nx, config.ny)
    elems = config.source.support_elements(mesh.quadrature)
    gn = source_norms(mesh, config.source, elems)
    if gn["h1"] == 0.0:
        raise SweepError("source has zero H1 norm")
    load = assemble_load(mesh, config.source, elems)  # the same at every omega
    ratios, solves = [], []
    for om in config.omegas:
        system = assemble_B(mesh, make_params(config.lam, config.mu, om))
        sol = solve(system, load, preconditioner=strip_preconditioner(system))
        ratios.append(sol.norms["h1"] / gn["h1"])
        solves.append(fem.solver_record(sol))
    omegas = [float(o) for o in config.omegas]
    lo = np.log(omegas)
    lr = np.log(ratios)
    half = min(len(omegas) // 2, len(omegas) - 2)
    slope = float(np.polyfit(lo[half:], lr[half:], 1)[0])
    c_hat = ratios[0] / omegas[0] ** 3
    envelope = [c_hat * om ** 3 for om in omegas]
    return SweepResult(omegas=omegas, ratios=ratios, fitted_slope=slope,
                       profile_envelope=envelope, solves=solves)


# ---------------------------------------------------------------------------
# Pullback identity (change of variables)
# ---------------------------------------------------------------------------

class TrigPolyField:
    """Random smooth periodic test field: a vertical C^2 window times a small
    trigonometric polynomial in x1 with quadratic x2 modulation,
    u_a = chi(x2) sum_p (x2 - x2_ref)^p A_{a,p}(x1)."""

    def __init__(self, period: float, chi, seed: int,
                 n_harmonics: int = 2, x2_ref: float = 0.0):
        self.period = float(period)
        self.chi = chi
        self.x2_ref = float(x2_ref)
        self.n_harmonics = n_harmonics
        gen = keyed_generator(seed, 0xF1E1D)
        ks = np.arange(-n_harmonics, n_harmonics + 1)
        shape = (2, ks.size, 3)  # component, harmonic, x2-power
        self.coef = (gen.standard_normal(shape)
                     + 1j * gen.standard_normal(shape)) / (ks.size * 3.0)
        # coefficient rows (p, a) of the field and of its x1-derivative, so
        # one product with the harmonics contracts them
        self._coef = self.coef.transpose(2, 0, 1).reshape(6, ks.size)
        self._coef_dx = (2j * math.pi / self.period) * ks * self._coef

    def rows(self, x1) -> np.ndarray:
        """(6, 2, n): [p, a] is A_{a,p} and [3 + p, a] its x1-derivative at
        x1, from exp(2 pi i k x1 / period) as powers, e_{-k} = conj(e_k)."""
        n = self.n_harmonics
        e = np.empty((2 * n + 1, x1.size), dtype=complex)
        e[n] = 1.0
        e1 = np.exp((2j * math.pi / self.period) * x1)
        for k in range(n):
            e[n + k + 1] = e[n + k] * e1
        e[:n] = np.conj(e[:n:-1])
        return np.concatenate([self._coef @ e, self._coef_dx @ e]).reshape(
            6, 2, -1)


_PULLBACK_BLOCK = 1024  # triangles summed at once by _abscissa_tables


def _support_elements(points: np.ndarray, support) -> np.ndarray:
    """The triangles with a point (nt, 7, 2) whose x2 lies strictly inside
    the open interval `support`."""
    x2 = points[..., 1]
    return np.flatnonzero(((x2 > support[0]) & (x2 < support[1])).any(axis=1))


def _abscissa_tables(rule, gradient, p: ElasticParams, window, x2_ref: float,
                     source):
    """(xs, kernel, load): one side of the pullback check as sums over the
    rule's points at each distinct abscissa xs.  A test field's values and
    gradients after `gradient` (a 2x2 per point, from the unit gradients)
    are linear in its rows R = `TrigPolyField.rows(xs)`, with coefficients
    from chi, chi' and z = x2 - x2_ref.  The form is the sum of
    R_u[r, a] conj(R_v[s, b]) kernel[a, r, b, s], the load pairing that of
    -load[p, a] conj(R_v[p, a]); the sums go per block of triangles."""
    parts = []
    for s in range(0, rule.weights.shape[0], _PULLBACK_BLOCK):
        blk = rule.take(slice(s, s + _PULLBACK_BLOCK))
        pts = blk.points.reshape(-1, 2).T
        order = np.argsort(pts[0], kind="stable")
        x1, x2 = pts.take(order, axis=1)
        first = np.flatnonzero(np.r_[True, x1[1:] != x1[:-1]])
        w = blk.weights.ravel()[order]
        ch, dch = window.value_d1(x2)
        zp = np.stack([np.ones_like(x2), x2 - x2_ref, (x2 - x2_ref) ** 2])
        phi, psi = ch * zp, dch * zp          # chi z^p and its x2-derivative
        psi[1:] += np.array([[1.0], [2.0]]) * phi[:2]
        # mt[2 b' + b]: entry b of the transformed unit gradient e_b', so the
        # transformed gradient is G_ab = sum_r coef[b, r] R[r, a]
        mt = gradient(blk, np.broadcast_to(np.eye(2), blk.weights.shape + (
            2, 2))).reshape(-1, 4).T.take(order, axis=1)
        coef = np.concatenate([mt[2:, None] * psi, mt[:2, None] * phi],
                              axis=1).reshape(12, -1)
        live = np.flatnonzero(coef.any(axis=1))  # rows zeroed by mt add none
        coef = coef[live]
        gram = np.zeros((12, 12, first.size))
        for k, j in enumerate(live):
            gram[j, live[k:]] = gram[live[k:], j] = np.add.reduceat(
                w * coef[k] * coef[k:], first, axis=1)
        g = source(blk.points).reshape(-1, 2).T.take(order, axis=1)
        parts.append((x1[first], gram, *(np.add.reduceat(
            (w * phi)[:, None] * b, first, axis=-1) for b in (phi, g))))
    xs, gram, mass, load = (np.concatenate(a, axis=-1) for a in zip(*parts))
    order = np.argsort(xs, kind="stable")
    first = np.flatnonzero(np.r_[True, np.diff(xs[order]) != 0.0])
    gram, mass, load = (np.add.reduceat(a[..., order], first, axis=-1)
                        for a in (gram, mass, load))
    kernel = (p.lam + p.mu) * gram.reshape(2, 6, 2, 6, -1)    # div u div v
    for a in range(2):
        kernel[a, :, a] += p.mu * (gram[:6, :6] + gram[6:, 6:])
        kernel[a, :3, a, :3] -= p.omega ** 2 * mass
    return xs[order[first]], kernel, load


def pullback_identity_check(dmap: DomainMap, p: ElasticParams, n_trials: int,
                            nx: int = 96, ny: int = 96,
                            source: SourceField | None = None,
                            seed: int = 0) -> dict:
    """Compare the form on the mapped domain with the pulled-back form on the
    reference domain for random smooth test pairs; also the load pair when a
    source is given.  Returns the max absolute discrepancies.

    The mapped side evaluates the fields at the mapped rule's points, the
    reference side u~ = u o H analytically: values at H(y), gradients
    invJ^T D_y(u o H).  The form's DtN term is not compared: the window
    ends below band_hi = min f0 + ramp_end, under the top line
    h = sup f0 + gap for every map (ramp_end < gap), so the test fields
    vanish on the top line and their DtN pairing is exactly zero on both
    sides.

    The cutoff ramp makes det J jump across the curves x2 = f0(x1) + delta
    and x2 = f0(x1) + ramp_end; quadrature across a jump is only first-order
    accurate, so the test fields are windowed to the band strictly between
    those curves, where every integrand is C^2 and the degree-5 rule
    converges at better than second order.  Each side integrates only on
    the triangles with a rule point inside the window's open support (on
    the reference side, a point whose image H(y) is inside): every term
    on the others is an exact zero.  Both sum per abscissa, as H fixes x1."""
    lhs, rhs = _pullback_integrals(dmap, p, n_trials, nx, ny, source, seed)
    b_disc, g_disc = (max((abs(a - b) for a, b in zip(left, right)),
                          default=0.0) for left, right in zip(lhs, rhs))
    return {"b_discrepancy": b_disc, "g_discrepancy": g_disc,
            "max_discrepancy": max(b_disc, g_disc)}


def _pullback_integrals(dmap: DomainMap, p: ElasticParams, n_trials: int,
                        nx: int, ny: int, source, seed: int):
    """(domain forms, loads) on the mapped domain and pulled back: the
    integrals `pullback_identity_check` compares."""
    h = dmap.f0.sup() + dmap.cutoff.gap
    per = dmap.f0.period
    x = np.linspace(0.0, per, 2048, endpoint=False)
    f0x, fex = dmap.f0.f(x), dmap.f_eta.f(x)
    band_lo = max(float(np.max(f0x)) + dmap.cutoff.delta, float(np.max(fex)))
    band_hi = float(np.min(f0x)) + dmap.cutoff.ramp_end
    margin = 0.05 * (band_hi - band_lo)
    window = SmoothWindow(band_lo + margin, band_hi - margin)
    # H moves x2 by a (f_eta - f0), a in [0, 1]: by at most the grid maximum
    # plus the two Lipschitz bounds times half the grid spacing
    lo, hi = window.support
    reach = float(np.max(np.abs(fex - f0x))) + 0.5 * (
        dmap.f0.lipschitz + dmap.f_eta.lipschitz) * per / x.size

    def field(s):
        return TrigPolyField(per, window, seed=seed * 1000 + s, x2_ref=band_lo)

    pairs = [(field(2 * t), field(2 * t + 1)) for t in range(n_trials)]
    loads = [field(777 + t) for t in range(n_trials) if source is not None]

    def side(rule, gradient):
        xs, kernel, load = _abscissa_tables(rule, gradient, p, window, band_lo,
                                            source or np.zeros_like)
        rows = {f: f.rows(xs) for group in pairs + [loads] for f in group}
        forms = [complex(np.einsum("rax,sbx,arbsx->", rows[u], np.conj(
            rows[v]), kernel)) for u, v in pairs]
        return forms, [complex(-np.sum(load * np.conj(rows[f][:3])))
                       for f in loads]

    def inside(rule, pad=0.0):  # on the triangles meeting (lo - pad, hi + pad)
        return rule.take(_support_elements(rule.points, (lo - pad, hi + pad)))

    # one rule alive at a time; map only the triangles within reach
    lhs = side(inside(build_mesh(dmap.f_eta, h, nx, ny).quadrature),
               lambda rule, g: g)
    rhs = side(inside(map_quadrature(inside(build_mesh(
        dmap.f0, h, nx, ny).quadrature, reach), dmap)),
               lambda mq, g: mq.physical_gradient(mq.pullback_gradient(g)))
    return lhs, rhs
