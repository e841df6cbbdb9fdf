"""P1 vector finite elements on the periodic strip with a DtN top coupling.

The sesquilinear form is

    B(u, v) = int_D  mu * sum_j grad(u_j).grad(conj v_j)
                   + (lam+mu) * div(u) div(conj v)
                   - omega^2 u . conj v  dx
            - int_{top} (DtN u) . conj v ds,

and the load is -(g, v).  The boundary term is a Fourier-multiplier sum over
xi_n = 2*pi*n/period: top nodes are equispaced, the trace of a P1 field is
piecewise linear, and the exact Fourier coefficients of that interpolant are
sinc^2-weighted DFT values.  Using them on both trial and test side yields a
dense coupling block on the top dofs only.

The transformed form replaces the constant coefficients by the domain-map
factors: with J the (lower-triangular) Jacobi matrix of the map and
C = inv(J) inv(J)^T det(J), gradients become invJ^T-transformed gradients and
all terms pick up det(J); all evaluated by the mesh's degree-5 (7-point)
rule.  `map_quadrature` evaluates the map once per sample at those points;
the resulting `MappedQuadrature` is the only place the factors are formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dtn import TraceCoefficients, symbol_matrices
from .errors import MapSingularError, SolveError
from .mesh import DEGREE5_RULE, Mesh, Quadrature, _weighted_sum
from .model import DomainMap, ElasticParams

__all__ = [
    "SparseSystem",
    "FieldSolution",
    "MappedQuadrature",
    "map_quadrature",
    "assemble_B",
    "assemble_B_transformed",
    "assemble_load",
    "assemble_load_transformed",
    "solve",
    "norms",
    "trace_coefficients",
    "element_gradients",
]


def _elastic_element_matrices(w: np.ndarray, g: np.ndarray, mm: np.ndarray,
                              lam: float, mu: float):
    """Element (stiffness, mass), shape (nt, 6, 6), from the rule weights w
    (nt, nq), the gradients g (nt, nq, 6) flattened to (vertex i, direction
    a) -> 2i + a, and the scalar mass blocks mm (nt, 3, 3).

    The weighted product (w g)^T g holds int grad_i[a] grad_j[b] in the
    local dof layout (vertex k, component a) -> 2k + a.
    """
    nt = w.shape[0]
    gij = np.matmul((w[:, :, None] * g).transpose(0, 2, 1), g)
    k = (lam + mu) * gij.reshape(nt, 3, 2, 3, 2)
    gg = gij[:, 0::2, 0::2] + gij[:, 1::2, 1::2]      # grad_i . grad_j
    m = np.zeros((nt, 3, 2, 3, 2))
    for a in range(2):
        k[:, :, a, :, a] += mu * gg
        m[:, :, a, :, a] = mm
    return k.reshape(nt, 6, 6), m.reshape(nt, 6, 6)


def element_matrices(quad: Quadrature, lam: float, mu: float):
    """Vectorized (stiffness, mass) element matrices, shape (nt, 6, 6).

    Exact for P1: the gradients are constant (a one-point rule with the
    area as weight) and the mass has the closed form area (1 + d_ij) / 12.
    """
    area = quad.area
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _elastic_element_matrices(
        area[:, None], quad.grads.reshape(-1, 1, 6),
        area[:, None, None] * m_scalar, lam, mu)


@dataclass(frozen=True)
class MappedQuadrature:
    """A reference-mesh `Quadrature` pulled through a domain map H.

    With J = [[1, 0], [J1, 1 + J2]] the Jacobi matrix of H at the reference
    points, inv(J)^T = [[1, t12], [0, t22]].  `weights` carries det J, so
    sums over them are integrals over the image strip.
    """

    quad: Quadrature
    detj: np.ndarray       # (nt, 7) det J = 1 + J2
    j1: np.ndarray         # (nt, 7)
    t12: np.ndarray        # (nt, 7) -J1 / det J
    t22: np.ndarray        # (nt, 7) 1 / det J
    weights: np.ndarray    # (nt, 7) rule weight times area times det J
    points: np.ndarray     # (nt, 7, 2) mapped points H(y)

    def _expand(self, a: np.ndarray, ndim: int) -> np.ndarray:
        return a.reshape(a.shape + (1,) * (ndim - 3))

    def physical_gradient(self, g) -> np.ndarray:
        """inv(J)^T applied to reference gradients g (nt, 7 or 1, ..., 2),
        whose last axis is the derivative direction."""
        g = np.asarray(g)
        t12 = self._expand(self.t12, g.ndim)
        t22 = self._expand(self.t22, g.ndim)
        return np.stack([g[..., 0] + t12 * g[..., 1], t22 * g[..., 1]],
                        axis=-1)

    def pullback_gradient(self, gx) -> np.ndarray:
        """Chain rule D_y (f o H) = (D_x f) J for D_x f (nt, 7, ..., 2) at the
        mapped points."""
        gx = np.asarray(gx)
        j1 = self._expand(self.j1, gx.ndim)
        detj = self._expand(self.detj, gx.ndim)
        return np.stack([gx[..., 0] + gx[..., 1] * j1, gx[..., 1] * detj],
                        axis=-1)

    def integral(self, f):
        """Integral over the image strip of point values f (nt, 7, ...)."""
        return _weighted_sum(self.weights, f)


def map_quadrature(quad: Quadrature, dmap: DomainMap) -> MappedQuadrature:
    """Evaluate the map factors once at the rule's points.

    Raises MapSingularError where det J <= 0.
    """
    j1, j2 = dmap.jacobian(quad.points)
    detj = 1.0 + j2
    if np.any(detj <= 0.0):
        raise MapSingularError(
            f"det J = {float(np.min(detj)):.6g} <= 0 at a quadrature point")
    return MappedQuadrature(quad=quad, detj=detj, j1=j1, t12=-j1 / detj,
                            t22=1.0 / detj, weights=quad.weights * detj,
                            points=dmap.apply(quad.points))


def transformed_element_matrices(mq: MappedQuadrature, lam: float, mu: float):
    """Element (stiffness, mass) for the pulled-back form, shape (nt, 6, 6).

    Gradients transform as G = inv(J)^T grad(phi); every term carries det J
    through the weights.
    """
    bary, _ = DEGREE5_RULE
    wdet = mq.weights
    nt, nq = wdet.shape
    g = mq.physical_gradient(mq.quad.grads[:, None]).reshape(nt, nq, 6)
    mm = wdet @ (bary[:, :, None] * bary[:, None, :]).reshape(nq, 9)
    return _elastic_element_matrices(wdet, g, mm.reshape(nt, 3, 3), lam, mu)


@dataclass(frozen=True)
class SparseSystem:
    """Assembled complex system: sparse domain part minus a dense DtN block.

    The DtN block couples only the top-node dofs; `top_dofs` lists their
    positions inside the free-dof vector.
    """

    dimension: int
    entries: sp.csr_matrix            # domain part (stiffness - omega^2 mass)
    dtn_block: np.ndarray             # (2*nx, 2*nx) complex
    top_dofs: np.ndarray              # (2*nx,) indices into the free vector
    mesh: Mesh
    params: ElasticParams
    n_max: int

    def full_matrix(self) -> sp.csc_matrix:
        """Domain part minus the DtN block, as CSC for factorization."""
        i = np.repeat(self.top_dofs, self.top_dofs.size)
        j = np.tile(self.top_dofs, self.top_dofs.size)
        dtn = sp.coo_matrix((self.dtn_block.ravel(), (i, j)),
                            shape=(self.dimension, self.dimension))
        return (self.entries - dtn).tocsc()

    def dtn_full(self) -> np.ndarray:
        """DtN block scattered to the full free dimension (for inspection)."""
        out = np.zeros((self.dimension, self.dimension), dtype=complex)
        out[np.ix_(self.top_dofs, self.top_dofs)] = self.dtn_block
        return out


@dataclass(frozen=True)
class FieldSolution:
    """Nodal displacement on the full mesh (zeros on the surface nodes)."""

    mesh: Mesh
    values: np.ndarray                # (n_nodes, 2) complex
    norms: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @cached_property
    def gradients(self) -> np.ndarray:
        """`element_gradients` of the values, computed on first use and
        shared (read-only) by every later reader."""
        g = element_gradients(self.mesh, self.values)
        g.setflags(write=False)
        return g


def _sum_at(positions: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sums of the real values at each position below n; positions at or
    past n hold the dropped (surface-node) entries."""
    return np.bincount(positions.ravel(), weights=values.ravel(),
                       minlength=n)[:n]


def _scatter_elements(mesh: Mesh, elem: np.ndarray) -> sp.csr_matrix:
    """Sum (nt, 6, 6) element blocks into the complex free-dof CSR matrix."""
    pat = mesh.pattern
    data = np.zeros(pat.indices.size, dtype=complex)
    data.real = _sum_at(pat.slots, elem, data.size)
    return sp.csr_matrix((data, pat.indices, pat.indptr),
                         shape=(pat.n_dofs, pat.n_dofs))


def _effective_n_max(mesh: Mesh, n_max: int) -> int:
    # Aliasing guard: the PL trace transform is injective only up to Nyquist.
    return min(int(n_max), (mesh.nx - 1) // 2)


def _sinc2(t: np.ndarray) -> np.ndarray:
    out = np.ones_like(t)
    nz = t != 0.0
    out[nz] = (np.sin(t[nz]) / t[nz]) ** 2
    return out


def _dtn_block(mesh: Mesh, p: ElasticParams, n_max: int) -> np.ndarray:
    """Dense coupling on top dofs realizing int_top (DtN u_h) . conj(v_h):
    sum_n c_n kron(w_n w_n^H, M(xi_n)) with w_n = exp(i xi_n x_top)."""
    nx = mesh.nx
    per = mesh.period
    xk = mesh.nodes[mesh.top_nodes, 0]
    ns = np.arange(-n_max, n_max + 1)
    xis = 2.0 * math.pi * ns / per
    m = symbol_matrices(xis, p)                        # (n_modes, 2, 2)
    w = np.exp(1j * np.outer(xis, xk))                 # (n_modes, nx)
    c = per * _sinc2(math.pi * ns / nx) ** 2 / nx ** 2
    cwm = (c[:, None] * w)[:, :, None, None] * m[:, None]   # c_n w_n[i] M_n
    block = cwm.reshape(ns.size, 4 * nx).T @ np.conj(w)     # (i a b, j)
    return block.reshape(nx, 2, 2, nx).transpose(0, 1, 3, 2).reshape(
        2 * nx, 2 * nx)


def assemble_B(mesh: Mesh, p: ElasticParams, n_max: int) -> SparseSystem:
    """Assemble the reference form: exact P1 element integrals + DtN block."""
    k, m = element_matrices(mesh.quadrature, p.lam, p.mu)
    domain = _scatter_elements(mesh, k - p.omega ** 2 * m)
    return _finish_system(mesh, p, n_max, domain)


def assemble_B_transformed(mesh_ref: Mesh, p: ElasticParams,
                           mq: MappedQuadrature, n_max: int) -> SparseSystem:
    """Assemble the pulled-back form on the reference mesh, with the map
    factors of `mq` (built on mesh_ref.quadrature).

    The map fixes the top line, so the DtN block is identical to assemble_B.
    """
    k, m = transformed_element_matrices(mq, p.lam, p.mu)
    domain = _scatter_elements(mesh_ref, k - p.omega ** 2 * m)
    return _finish_system(mesh_ref, p, n_max, domain)


def _finish_system(mesh: Mesh, p: ElasticParams, n_max: int,
                   domain: sp.csr_matrix) -> SparseSystem:
    n_eff = _effective_n_max(mesh, n_max)
    return SparseSystem(
        dimension=domain.shape[0],
        entries=domain,
        dtn_block=_dtn_block(mesh, p, n_eff),
        top_dofs=mesh.pattern.top_dofs,
        mesh=mesh,
        params=p,
        n_max=n_eff,
    )


def _weighted_load(weights: np.ndarray, g_values) -> np.ndarray:
    """Element loads -sum_q w g(q) phi_i(q), shape (nt, 3, 2), from the
    source values (nt, 7, 2) at the rule's points; contracted in real
    arithmetic on the (re, im) view of the values."""
    gv = np.ascontiguousarray(g_values, dtype=complex).view(float)
    return -np.matmul(DEGREE5_RULE[0].T, weights[:, :, None] * gv).view(complex)


def assemble_load(mesh: Mesh, g) -> np.ndarray:
    """Free-dof load vector with entries -int g . phi_i (7-point rule)."""
    q = mesh.quadrature
    return _scatter_load(mesh, _weighted_load(q.weights, g(q.points)))


def assemble_load_transformed(mesh_ref: Mesh, g_values,
                              mq: MappedQuadrature) -> np.ndarray:
    """Load for the pulled-back form: -int g_tilde . phi_i det(J), from the
    values (nt, 7, 2) of g_tilde at the reference points (for a source g on
    the image strip, g(mq.points))."""
    return _scatter_load(mesh_ref, _weighted_load(mq.weights, g_values))


def _scatter_load(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Sum element loads (nt, 3, 2) into the free-dof vector."""
    pat = mesh.pattern
    c = contrib.reshape(-1, 6)
    out = np.empty(pat.n_dofs, dtype=complex)
    out.real = _sum_at(pat.elem_dofs, c.real, pat.n_dofs)
    out.imag = _sum_at(pat.elem_dofs, c.imag, pat.n_dofs)
    return out


def solve(system: SparseSystem, load: np.ndarray,
          metadata: dict | None = None) -> FieldSolution:
    """Direct sparse factorization; residual must satisfy ||Ax-b|| <= 1e-10 ||b||.

    The solution's metadata gains the solver health of a nonzero load:
    `residual` (relative) and `nnz_lu` (fill of the LU factors).
    """
    b = np.asarray(load, dtype=complex)
    if b.shape != (system.dimension,):
        raise SolveError(
            f"load has shape {b.shape}, expected ({system.dimension},)")
    a = system.full_matrix()
    health = {}
    if np.any(b):
        try:
            # A is complex-symmetric, so order for the structure of A + A^T
            # (minimum degree): about half the fill of the default COLAMD.
            lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # singular factorization
            raise SolveError(f"factorization failed: {exc}") from exc
        x = lu.solve(b)
        rel = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        if rel > 1e-10:
            raise SolveError(
                f"relative residual {rel:.3e} exceeds 1e-10 "
                "(possible discrete resonance or bad truncation)")
        health = {"residual": float(rel), "nnz_lu": int(lu.nnz)}
    else:
        x = np.zeros_like(b)

    mesh = system.mesh
    free = mesh.free_nodes
    values = np.zeros((mesh.n_nodes, 2), dtype=complex)
    values[free, 0] = x[0::2]
    values[free, 1] = x[1::2]
    sol = FieldSolution(mesh=mesh, values=values, norms={},
                        metadata={**(metadata or {}), **health})
    sol.norms.update(norms(sol))
    return sol


def element_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-element constant gradient (nt, 2, 2): [t, a, b] = d u_a / d x_b."""
    vals = np.asarray(values, dtype=complex)[mesh.triangles]   # (nt, 3, 2)
    return np.einsum("tka,tkb->tab", vals, mesh.quadrature.grads)


def norms(sol: FieldSolution) -> dict:
    """Quadrature-exact L2, H1, d2 (=||d u/d x2||) and top-trace L2 norms."""
    mesh = sol.mesh
    area = mesh.quadrature.area
    vals = np.asarray(sol.values, dtype=complex)[mesh.triangles]  # (nt, 3, 2)
    # v^H (ones+I) v = |sum v|^2 + sum |v|^2, per component
    ssum = np.abs(np.sum(vals, axis=1)) ** 2
    ssq = np.sum(np.abs(vals) ** 2, axis=1)
    l2_sq = float(np.sum(area[:, None] / 12.0 * (ssum + ssq)))
    gu = sol.gradients
    semi_sq = float(np.sum(area[:, None, None] * np.abs(gu) ** 2))
    d2_sq = float(np.sum(area[:, None] * np.abs(gu[:, :, 1]) ** 2))

    top = sol.values[mesh.top_nodes]
    nxt = np.roll(top, -1, axis=0)
    dx = mesh.period / mesh.nx
    trace_sq = float(np.sum(
        dx / 3.0 * (np.abs(top) ** 2 + np.abs(nxt) ** 2
                    + np.real(np.conj(top) * nxt))))
    return {
        "l2": math.sqrt(l2_sq),
        "h1": math.sqrt(l2_sq + semi_sq),
        "d2": math.sqrt(d2_sq),
        "trace_l2_top": math.sqrt(trace_sq),
    }


def trace_coefficients(mesh: Mesh, values: np.ndarray,
                       n_max: int) -> TraceCoefficients:
    """Fourier coefficients of the piecewise-linear top trace, |n| <= n_max.

    These are exact coefficients of the P1 interpolant: sinc^2-weighted DFT
    of the nodal values, the same transform the DtN block uses.
    """
    n_eff = _effective_n_max(mesh, n_max)
    top = np.asarray(values, dtype=complex)[mesh.top_nodes]   # (nx, 2)
    hat = np.fft.fft(top, axis=0) / mesh.nx
    ns = np.arange(-n_eff, n_eff + 1)
    beta = _sinc2(math.pi * ns / mesh.nx)
    modes = {int(n): b * hat[n % mesh.nx] for n, b in zip(ns, beta)}
    return TraceCoefficients(period=mesh.period, height=mesh.h, modes=modes)
