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
factors: with J the (lower-triangular) Jacobi matrix of the map, gradients
become invJ^T-transformed gradients and all terms pick up det(J), evaluated
by the mesh's degree-5 (7-point) rule.  `map_quadrature` evaluates the map
once per sample; its `MappedQuadrature` reduces the factors to six moments
per triangle.  Both forms build their element entries from such moments
(the plain ones exact) in one pass, sum them into the fixed slots of the
mesh's `DofPattern` and subtract the DtN block at its known slots, so the
pattern, and the nnz, never depend on the values.

Every LU factorization and triangular solve runs with every loaded
OpenBLAS pinned to one thread (`_single_thread_blas`): SuperLU
calls BLAS on each supernode, and with more threads the factorization is
slower and its factors (so the solution's bytes) depend on the thread
setting.  GMRES, whose Arnoldi steps and `StripPreconditioner.apply` call
BLAS, runs under the same pin; a `StripPreconditioner` is factored in numpy
and calls no BLAS.  Other BLAS vendors are left as they are.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas as _blas

from .dtn import TraceCoefficients, symbol_matrices
from .errors import MapSingularError, SolveError
from .mesh import (DEGREE5_RULE, DofPattern, Mesh, Quadrature,
                   _built_once, _weighted_sum, nyquist_index)
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
    "solver_record",
    "free_vector",
    "StripPreconditioner",
    "strip_preconditioner",
    "norms",
    "trace_coefficients",
    "element_gradients",
]


_CHUNK = 2048   # triangles summed at a time, so the temporaries stay cached


def _gradient_blocks(grads: np.ndarray, moments: np.ndarray):
    """(g00, g01, g11), each (3, 3, nt): sum_q w G_i[a] G_j[b] of the
    transformed P1 gradients G = (g_x + t12 g_y, t22 g_y) at [i, j], from
    the constant gradients grads (nt, 3, 2) and the six moments sum_q w
    {1, t12, t22, t12^2, t12 t22, t22^2} per triangle, (6, nt), or where
    t12 = 0 (the plain form) the three of {1, t22, t22^2}, (3, nt); g10 is
    g01 transposed.  Triangles run last, so each product streams."""
    gx, gy = np.ascontiguousarray(grads.transpose(2, 1, 0))    # (3, nt)
    xx, xy, yy = gx[:, None] * gx, gx[:, None] * gy, gy[:, None] * gy
    if len(moments) == 3:
        m1, m22, m2222 = moments
        return m1 * xx, m22 * xy, m2222 * yy
    m1, m12, m22, m1212, m1222, m2222 = moments
    g00 = m1 * xx + m12 * (xy + xy.swapaxes(0, 1)) + m1212 * yy
    return g00, m22 * xy + m1222 * yy, m2222 * yy


def _element_entries(grads: np.ndarray, moments: np.ndarray,
                     mm: np.ndarray, p: ElasticParams) -> np.ndarray:
    """Element entries of k - omega^2 m, (nt, 36) in the order of
    `DofPattern.slots` (local dof (vertex i, component a) -> 2i + a), from
    the moments of `_gradient_blocks` and the mass blocks mm (3, 3, nt):
    component block (a, b) is (lam + mu) g_ab, plus mu (g00 + g11) and
    -omega^2 mm on the diagonal, each written once into its place."""
    g00, g01, g11 = _gradient_blocks(grads, moments)
    e = np.empty((len(grads), 3, 2, 3, 2))
    lm = p.lam + p.mu
    mu_gg, mass = p.mu * (g00 + g11), -p.omega ** 2 * mm
    for a, g in enumerate((g00, g11)):
        e[:, :, a, :, a] = (lm * g + mu_gg + mass).transpose(2, 0, 1)
    e01 = (lm * g01).transpose(2, 0, 1)
    e[:, :, 0, :, 1], e[:, :, 1, :, 0] = e01, e01.swapaxes(1, 2)
    return e.reshape(-1, 36)


def _plain_moments(quad: Quadrature) -> tuple[np.ndarray, np.ndarray]:
    """The exact moments of the plain form, t12 = 0 and t22 = 1: (area,
    area, area) of {1, t22, t22^2}, and its mass blocks area (1 + d_ij) /
    12."""
    area = quad.area
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return np.broadcast_to(area, (3, area.size)), m_scalar[:, :, None] * area


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

    def x2_range(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (nt,): the x2 range of each triangle's mapped
        points."""
        x2 = self.points[..., 1]
        return x2.min(axis=1), x2.max(axis=1)

    def take(self, elems) -> MappedQuadrature:
        """The mapped rule on the triangles `elems` only."""
        return MappedQuadrature(
            quad=self.quad.take(elems), detj=self.detj[elems],
            j1=self.j1[elems], t12=self.t12[elems], t22=self.t22[elems],
            weights=self.weights[elems], points=self.points[elems])

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(moments, mm): the six moments sum_q w {1, t12, t22, t12^2,
        t12 t22, t22^2} per triangle, (6, nt), of `_gradient_blocks`, and
        the scalar mass sum_q w phi_i phi_j, (3, 3, nt).  grad(phi) is
        constant on a triangle, so these carry all of the map's factors."""
        bary, _ = DEGREE5_RULE
        w, t12, t22 = self.weights, self.t12, self.t22
        nq = w.shape[1]
        w12, w22 = w * t12, w * t22
        ones = np.ones(nq)        # row sums as matrix-vector products
        moments = np.stack([a @ ones for a in (w, w12, w22, w12 * t12,
                                               w12 * t22, w22 * t22)])
        mm = w @ (bary[:, :, None] * bary[:, None, :]).reshape(nq, 9)
        return moments, mm.T.reshape(3, 3, -1)


def map_quadrature(quad: Quadrature, dmap: DomainMap) -> MappedQuadrature:
    """Evaluate the map factors once at the rule's points; the surfaces are
    evaluated once per distinct abscissa of the points.

    Raises MapSingularError where det J <= 0.
    """
    xs, inverse = quad.abscissae
    surface = tuple(v[inverse] for v in dmap.surface_terms(xs))
    j1, j2 = dmap.jacobian(quad.points, surface)
    detj = 1.0 + j2
    if np.any(detj <= 0.0):
        raise MapSingularError(
            f"det J = {float(np.min(detj)):.6g} <= 0 at a quadrature point")
    return MappedQuadrature(quad=quad, detj=detj, j1=j1, t12=-j1 / detj,
                            t22=1.0 / detj, weights=quad.weights * detj,
                            points=dmap.apply(quad.points, surface))


@dataclass(frozen=True)
class SparseSystem:
    """Assembled complex system: sparse domain part minus a dense DtN block.

    `matrix` is the whole system in CSC on the mesh's fixed pattern, the
    only matrix held; an entry that sums to exactly zero stays stored.  The
    DtN block (`_dtn_block`) couples only the top-node dofs
    (`mesh.pattern.top_dofs`), sits at `mesh.pattern.dtn_slots` and holds
    all of Im A: Im A[top, top] = u diag(lam) u^T, (u, lam) = `imag_split`.
    """

    dimension: int
    matrix: sp.csc_matrix             # domain part minus the DtN block
    mesh: Mesh
    params: ElasticParams
    n_max: int                        # DtN modes |n| <= n_max in the block
    imag_split: tuple                 # (u, lam), u (2 nx, r) orthonormal


@dataclass(frozen=True)
class FieldSolution:
    """Nodal displacement on the full mesh (zeros on the surface nodes)."""

    mesh: Mesh
    values: np.ndarray                # (n_nodes, 2) complex
    metadata: dict = field(default_factory=dict)

    @cached_property
    def gradients(self) -> np.ndarray:
        """`element_gradients` of the values, computed on first use and
        shared (read-only) by every later reader."""
        g = element_gradients(self.mesh, self.values)
        g.setflags(write=False)
        return g

    @cached_property
    def norms(self) -> dict:
        """`norms` of the values, computed on first use and then shared."""
        return norms(self)


def _sum_at(positions: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sums of the real values at each position below n; positions at or
    past n hold the dropped (surface-node) entries."""
    return np.bincount(positions.ravel(), weights=values.ravel(),
                       minlength=n)[:n]


def _sinc2(t: np.ndarray) -> np.ndarray:
    out = np.ones_like(t)
    nz = t != 0.0
    out[nz] = (np.sin(t[nz]) / t[nz]) ** 2
    return out


def _dtn_block(mesh: Mesh, p: ElasticParams, n_max: int):
    """(block, u, lam), read-only: the dense coupling on top dofs realizing
    int_top (DtN u_h) . conj(v_h), sum_n c_n kron(w_n w_n^H, M(xi_n)) with
    w_n = exp(i xi_n x_top) = a_n + i b_n, formed on one OpenBLAS thread (on
    more, this small product can stall for ms), and Im block = -u diag(lam)
    u^T, u orthonormal: kron(1 / sqrt(nx), I_2) for mode 0, and for each
    pair +-n with |xi_n| < k_s (an evanescent pair is real) the eigenvectors
    of c_n [(a a^T + b b^T) x Im(M_n + M_-n) + (b a^T - a b^T) x Re(M_n -
    M_-n)], whose 4 x 4 core in {a, b} x {e_1, e_2} has rank 2 + 2 [|xi_n|
    < k_p]: the columns of that many largest |eigenvalues|."""
    nx, per = mesh.nx, mesh.period
    xk = mesh.nodes[mesh.top_nodes, 0]
    ns = np.arange(-n_max, n_max + 1)
    xis = 2.0 * math.pi * ns / per
    m = symbol_matrices(xis, p)                        # (n_modes, 2, 2)
    w = np.exp(1j * np.outer(xis, xk))                 # (n_modes, nx)
    with _single_thread_blas:
        c = per * _sinc2(math.pi * ns / nx) ** 2 / nx ** 2
        cwm = (c[:, None] * w)[:, :, None, None] * m[:, None]  # c w_n[i] M_n
        block = cwm.reshape(ns.size, 4 * nx).T @ np.conj(w)   # (i a b, j)
        # +n with gamma_s > 0 as `dtn.gamma` rounds it; m[::-1] there is -n
        pos = np.flatnonzero((ns > 0) & (xis ** 2 < p.k_s * p.k_s))
        pim, rre = (m[pos] + m[::-1][pos]).imag, (m[pos] - m[::-1][pos]).real
        ev, vec = np.linalg.eigh(np.block([[pim, -rre], [rre, pim]]))
        place = np.argsort(np.argsort(-np.abs(ev), axis=1), axis=1)
        keep = place < (2 + 2 * (xis[pos] ** 2 < p.k_p * p.k_p))[:, None]
        ab = np.stack([w[pos].real, w[pos].imag], 1) * math.sqrt(2.0 / nx)
        cols = np.einsum("kti,ktaj->iakj", ab, vec.reshape(-1, 2, 2, 4))
        u = np.hstack([np.kron(np.full((nx, 1), nx ** -0.5), np.eye(2)),
                       cols.reshape(2 * nx, -1)[:, keep.ravel()]])
        lam = -np.concatenate([c[n_max] * nx * np.diagonal(m[n_max].imag),
                               (ev * (c[pos] * nx / 2)[:, None])[keep]])
    block = block.reshape(nx, 2, 2, nx).transpose(0, 1, 3, 2).reshape(
        2 * nx, 2 * nx)
    for a in (block, u, lam):
        a.setflags(write=False)
    return block, u, lam


def assemble_B(mesh: Mesh, p: ElasticParams) -> SparseSystem:
    """Assemble the reference form: exact P1 element integrals (from
    `_plain_moments`) + DtN block over every mode the mesh resolves (see
    `_finish_system`)."""
    return _finish_system(mesh, p, lambda: _plain_moments(mesh.quadrature))


def assemble_B_transformed(mesh_ref: Mesh, p: ElasticParams,
                           mq: MappedQuadrature) -> SparseSystem:
    """Assemble the pulled-back form on the reference mesh, with the map
    factors of `mq` (built on mesh_ref.quadrature): gradients transform as
    G = inv(J)^T grad(phi) and every term carries det J through the weights
    (`MappedQuadrature.moments`).

    The map fixes the top line, so the DtN block is identical to assemble_B.
    """
    return _finish_system(mesh_ref, p, lambda: mq.moments)


def _finish_system(mesh: Mesh, p: ElasticParams, moments) -> SparseSystem:
    """The system of the (moments, mass blocks) = moments(): the
    `_element_entries` of `_CHUNK` triangles at a time summed, in triangle
    order, into the slots of the mesh's fixed pattern (the surface entries
    into two slots past the end), then the DtN block subtracted at the
    pattern's `dtn_slots`.  The result is the system's one CSC matrix; an
    entry that sums to exactly zero stays stored.

    The DtN block keeps the modes |n| <= `nyquist_index(mesh.nx)`, every
    mode the nx top nodes resolve (past it the trace's DFT aliases); no
    caller can lower it.  The map fixes the top line, so the block is built
    once per params and kept, read-only, on the mesh for every system
    assembled on it.  The pattern (built on first use) and the data are
    allocated before the element entries: below their freed temporaries,
    they keep the heap small across commands."""
    pat, grads = mesh.pattern, mesh.quadrature.grads
    data = np.zeros(pat.indices.size + 2, dtype=complex)
    m, mm = moments()
    for lo in range(0, len(grads), _CHUNK):
        t = slice(lo, lo + _CHUNK)
        np.add.at(data.real, pat.slots[t].ravel(),
                  _element_entries(grads[t], m[:, t], mm[:, :, t], p).ravel())
    n_max = nyquist_index(mesh.nx)
    block, u, lam = _built_once(mesh, ("_dtn_block", p),
                                lambda: _dtn_block(mesh, p, n_max))
    data[pat.dtn_slots] -= block
    return SparseSystem(
        dimension=pat.n_dofs,
        matrix=sp.csc_matrix((data[:-2], pat.indices, pat.indptr),
                             shape=(pat.n_dofs, pat.n_dofs)),
        mesh=mesh,
        params=p,
        n_max=n_max,
        imag_split=(u, lam),
    )


def _weighted_load(weights: np.ndarray, g_values) -> np.ndarray:
    """Element loads -sum_q w g(q) phi_i(q), shape (nt, 3, 2), from the
    source values (nt, 7, 2) at the rule's points; contracted in real
    arithmetic on the (re, im) view of the values."""
    gv = np.ascontiguousarray(g_values, dtype=complex).view(float)
    return -np.matmul(DEGREE5_RULE[0].T, weights[:, :, None] * gv).view(complex)


def assemble_load(mesh: Mesh, g, elems=None) -> np.ndarray:
    """Free-dof load vector with entries -int g . phi_i (7-point rule).

    g is integrated on the triangles `elems` of the mesh only (all when
    None), so a source that vanishes elsewhere (`support_elements` of the
    mesh's rule) is evaluated, and the rule's points made, on those alone.
    """
    q = mesh.quadrature if elems is None else mesh.quadrature.take(elems)
    return _scatter_load(mesh, _weighted_load(q.weights, g(q.points)), elems)


def assemble_load_transformed(mesh_ref: Mesh, g_values, mq: MappedQuadrature,
                              elems=None) -> np.ndarray:
    """Load for the pulled-back form: -int g_tilde . phi_i det(J), from the
    values (ne, 7, 2) of g_tilde at the reference points (for a source g on
    the image strip, g(mq.points)).

    `mq` and the values cover the triangles `elems` of mesh_ref (all when
    None; `mq.take(elems)` restricts a full rule), so a source supported on
    a few triangles is integrated on those alone.
    """
    return _scatter_load(mesh_ref, _weighted_load(mq.weights, g_values),
                         elems)


def _scatter_load(mesh: Mesh, contrib: np.ndarray, elems=None) -> np.ndarray:
    """Sum element loads (ne, 3, 2) of the triangles elems (all when None)
    into the free-dof vector."""
    pat = mesh.pattern
    dofs = pat.elem_dofs if elems is None else pat.elem_dofs[elems]
    c = contrib.reshape(-1, 6)
    out = np.empty(pat.n_dofs, dtype=complex)
    out.real = _sum_at(dofs, c.real, pat.n_dofs)
    out.imag = _sum_at(dofs, c.imag, pat.n_dofs)
    return out


_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads")


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process; empty where the memory map cannot be read (non-Linux) or no
    OpenBLAS is loaded (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {parts[5].strip() for parts in
                     (line.split(maxsplit=5) for line in fh)
                     if len(parts) == 6}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in paths
                       if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((getter, setter))
                break
    return controls


class _SingleThreadBlas:
    """Context manager pinning every loaded OpenBLAS to one thread.

    The thread count is process-wide, so overlapping blocks share one pin:
    the first to enter saves each library's count and the last to leave
    restores it, also when the block raises.  The libraries are found by
    one scan of the memory map, on the first entry; numpy and scipy load
    theirs on import, before any factorization.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []
        self._controls: list | None = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                if self._controls is None:
                    self._controls = _openblas_thread_controls()
                self._saved = [(setter, getter()) for getter, setter
                               in self._controls]
                for setter, _ in self._saved:
                    setter(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for setter, count in self._saved:
                    setter(count)
                self._saved = []
        return False


_single_thread_blas = _SingleThreadBlas()


_RESIDUAL_GATE = 1e-10  # relative residual every returned solution meets
_REFINE_TOL = 1e-12     # refinement (and GMRES) stops at this residual
_REFINE_MAX_STEPS = 10
# Preconditioned GMRES: Krylov basis size of one cycle and the number of
# cycles.  scipy holds restart + 1 basis vectors, so the basis is what
# each pool thread adds to the memory of a sample.
_GMRES_RESTART = 24
_GMRES_MAX_CYCLES = 4


def _factor(a: sp.csc_matrix):
    # A is complex-symmetric, so order for the structure of A + A^T
    # (minimum degree): about half the fill of the default COLAMD.
    return spla.splu(a, permc_spec="MMD_AT_PLUS_A")


def _refined_solve(a: sp.csc_matrix, b: np.ndarray, pattern: DofPattern,
                   imag_split: tuple):
    """(x, relative residual, steps, nnz(L+U), rank of U) from a float32 LU
    of Re A, a Woodbury correction for i Im A = U diag(i lam) U^T with
    (U[top], lam) = imag_split and complex128 iterative refinement (Carson &
    Higham, SIAM J. Sci. Comput. 40 (2018) A817); None when Im A leaves the
    top block (the pattern's `dtn_slots`) or the float32 LU fails.

    With R = Re A and Z = R^-1 U (solved with Re b and Im b as one
    multi-column solve), A^-1 r is approximated by y - Z S^-1 U^T y with
    y = R^-1 r (two real solves) and S = diag(1 / (i lam)) + U^T Z.  Each
    step adds that correction of the complex128 residual b - A x;
    refinement stops at relative residual `_REFINE_TOL`, after a step that
    fails to halve it (that step is kept only if it lowered it), or after
    `_REFINE_MAX_STEPS` steps.
    """
    imag = a.data.imag
    if np.count_nonzero(imag) > np.count_nonzero(imag[pattern.dtn_slots]):
        return None
    u, lam = imag_split
    top = pattern.top_dofs
    try:  # the float32 copy of Re A shares the index arrays of A
        lu = _factor(sp.csc_matrix(
            (a.data.real.astype(np.float32), a.indices, a.indptr),
            shape=a.shape))
    except RuntimeError:  # singular in single precision
        return None
    rhs = np.zeros((a.shape[0], 2 + lam.size), dtype=np.float32)
    rhs[:, 0], rhs[:, 1] = b.real, b.imag
    rhs[top, 2:] = u
    first = lu.solve(rhs)
    z = np.array(first[:, 2:], dtype=float)
    try:
        s_inv = np.linalg.inv(np.diag(-1j / lam) + u.T @ z[top])
    except np.linalg.LinAlgError:
        return None

    def woodbury(y_pair):
        """The approximation of A^-1 r from y = R^-1 r, given as the
        (re, im) columns y_pair[:, :2]."""
        y = np.array(y_pair[:, :2], dtype=float, order="C")
        yc = y.view(complex)[:, 0]          # y as complex, same memory
        w = s_inv @ (u.T @ yc[top])
        y -= z @ np.stack([w.real, w.imag], axis=1)
        return yc

    bnorm = np.linalg.norm(b)
    x = woodbury(first)
    r = b - a @ x
    rel = np.linalg.norm(r) / bnorm
    steps = 0
    while rel > _REFINE_TOL and steps < _REFINE_MAX_STEPS:
        x_new = x + woodbury(
            lu.solve(r.view(float).reshape(-1, 2).astype(np.float32)))
        r_new = b - a @ x_new
        rel_new = np.linalg.norm(r_new) / bnorm
        steps += 1
        if not rel_new < rel:  # no gain (or NaN): keep the previous x
            break
        halved = rel_new <= 0.5 * rel
        x, r, rel = x_new, r_new, rel_new
        if not halved:
            break
    return x, rel, steps, lu.nnz, lam.size


def _lu_solve(a: sp.csc_matrix, b: np.ndarray, pattern: DofPattern,
              imag_split: tuple) -> tuple[np.ndarray, dict]:
    """x with A x = b for a nonzero b of a matrix A on the `pattern` whose
    Im A lies on the top dofs, split as imag_split (else the complex128 LU
    solves), and its solver health (the `solve` metadata keys); raises
    SolveError above the residual gate.  OpenBLAS is pinned to one thread."""
    with _single_thread_blas:
        refined = _refined_solve(a, b, pattern, imag_split)
        if refined is not None and refined[1] <= _RESIDUAL_GATE:
            x, rel, steps, nnz_lu, rank = refined
            dtype = "float32"
        else:
            try:
                lu = _factor(a)
            except RuntimeError as exc:  # singular factorization
                raise SolveError(f"factorization failed: {exc}") from exc
            x = lu.solve(b)
            rel = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
            steps, nnz_lu, rank, dtype = 0, lu.nnz, 0, "complex128"
    if rel > _RESIDUAL_GATE:
        raise SolveError(
            f"relative residual {rel:.3e} exceeds {_RESIDUAL_GATE:g} "
            "(possible discrete resonance)")
    return x, {"solver": "lu", "residual": float(rel), "nnz_lu": int(nnz_lu),
               "factor_dtype": dtype, "refinement_steps": steps,
               "imag_rank": rank}


_KL = _KU = 3   # band half-widths of a strip symbol in (row j, component a)


@dataclass(frozen=True)
class StripPreconditioner:
    """The inverse of the x1-average of a strip operator, applied by FFT.

    With the free dofs laid out as 2((j - 1) nx + i) + a (`DofPattern`),
    an operator that does not vary along x1 couples x[j, i, a] to
    x[j', i + d, b] by a matrix that depends on d alone, so a DFT along
    x1 splits it into one 2 ny x 2 ny symbol per wavenumber k, banded in
    (j, a) with 3 sub- and super-diagonals and the DtN block last.  Each
    symbol is reversed, (j, a) -> (ny - j, 1 - a), so that elimination
    starts at the DtN row.  `lower` (unit diagonal) and `upper` are the
    BLAS band storage of the LU factors, without row interchanges, of the
    block-diagonal matrix of all nx reversed symbols, wavenumber-major.
    They are read-only, so threads share one preconditioner.
    """

    nx: int
    ny: int
    lower: np.ndarray      # (kl + 1, 2 nx ny) complex, Fortran order
    upper: np.ndarray      # (ku + 1, 2 nx ny) complex, Fortran order

    def apply(self, r: np.ndarray) -> np.ndarray:
        """The preconditioner's inverse times r: an FFT along x1, the two
        triangular band solves, the inverse FFT, each FFT along a
        contiguous last axis."""
        nx, ny = self.nx, self.ny
        r = np.ascontiguousarray(np.reshape(r, (ny, nx, 2)).transpose(0, 2, 1))
        y = np.fft.fft(r).reshape(2 * ny, nx)[::-1].T.ravel()   # (k, J, 1 - a)
        y = _blas.ztbsv(_KL, self.lower, y, lower=1, diag=1, overwrite_x=1)
        y = _blas.ztbsv(_KU, self.upper, y, overwrite_x=1)
        y = np.fft.ifft(np.ascontiguousarray(y.reshape(nx, 2 * ny)[:, ::-1].T))
        return y.reshape(ny, 2, nx).transpose(0, 2, 1).reshape(-1)


def strip_preconditioner(system: SparseSystem) -> StripPreconditioner | None:
    """The `StripPreconditioner` of a system on a `build_mesh` strip, or
    None when the system couples node rows that are not adjacent or a pivot
    is zero or not finite.

    The entries of row (j, a) and column (j', b) are summed by offset
    d = (i' - i) mod nx; divided by nx, these sums are the x1-average of
    the operator, exact when the mesh does not vary along x1 (a flat
    surface).  An inverse DFT over d gives the symbols, block tridiagonal
    in the 2 x 2 blocks T_JJ' of the reversed node rows J.  They are
    factored in numpy for all k at once, with no BLAS call: the Schur
    complements D_J = T_JJ - C adj(D) B / det(D) of D = D_J-1, C = T_J,J-1
    and B = T_J-1,J one row at a time (C adj(D) B is one 4 x 4 matrix
    times D), then every factor entry from them.
    """
    nx, ny = system.mesh.nx, system.mesh.ny
    a = system.matrix.tocoo()
    # entry (row, col) of dofs 2 (j nx + i) + a, 2 (j' nx + i') + b goes to
    # [3 J + J' - J + 1, 1 - a, 1 - b, nx + i' - i], J = ny - 1 - j
    dof = np.arange(2 * nx * ny)
    node_row, i, comp = ny - 1 - dof // (2 * nx), dof // 2 % nx, 1 - dof % 2
    if np.any(np.abs(node_row[a.col] - node_row[a.row]) > 1):
        return None
    slot = ((8 * node_row + 2 * comp) * 2 * nx + nx - i)[a.row] \
        + ((4 * node_row + 4 + comp) * 2 * nx + i)[a.col]
    sums = np.empty(ny * 24 * nx, dtype=complex)
    sums.real = np.bincount(slot, weights=a.data.real, minlength=sums.size)
    sums.imag = np.bincount(slot, weights=a.data.imag, minlength=sums.size)
    # offsets i' - i and i' - i + nx are one d; t[J, J' - J + 1, a, b, k]
    t = np.fft.ifft(sums.reshape(ny, 3, 2, 2, 2, nx).sum(axis=4))
    sub, sup = t[1:, 0], t[:-1, 2]
    # kmat[J, (a, b), (c, e)] = (-1)^(c + e) C[a, 1 - e] B[1 - c, b]
    kmat = (sub[:, :, None, None, ::-1] * np.array([[1, -1], [-1, 1]])[
        :, :, None] * sup[:, ::-1].transpose(0, 2, 1, 3)[:, None, :, :, None]
            ).reshape(ny - 1, 4, 4, nx)
    schur = np.array(t[:, 1].reshape(ny, 4, nx))       # D_J[c, e] at 2c + e
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, ny):
            v = schur[j - 1]
            schur[j] -= (kmat[j - 1] * v).sum(axis=1) / (v[0] * v[3]
                                                         - v[1] * v[2])
        # [U_JJ U_J,J+1] = L_JJ^-1 [D_J B], [L_JJ; L_J+1,J] = [D_J; C] U_JJ^-1
        urow = np.zeros((ny + 1, 2, 4, nx), dtype=complex)  # J at J + 1
        lcol = np.zeros((ny, 4, 2, nx), dtype=complex)
        urow[1:, :, :2] = lcol[:, :2] = schur.reshape(ny, 2, 2, nx)
        urow[1:-1, :, 2:], lcol[:-1, 2:] = sup, sub
        urow[1:, 1] -= urow[1:, 1, :1] / urow[1:, 0, :1] * urow[1:, 0]
        u00, u01, u11 = urow[1:, 0, 0], urow[1:, 0, 1], urow[1:, 1, 1]
        lcol[:, :, 0] /= u00[:, None]
        lcol[:, :, 1] -= lcol[:, :, 0] * u01[:, None]
        lcol[:, :, 1] /= u11[:, None]
    if not np.all(np.isfinite(u00 * u11) & (u00 * u11 != 0.0)):
        return None
    # band column (k, J, b), rows last: U rows 2J - 2 .. 2J + 1 from band
    # row 1 - b, L rows 2J + b .. 2J + 3 from band row 0
    window = np.concatenate([urow[:-1, :, 2:], urow[1:, :, :2]], axis=1)
    upper = np.zeros((nx, ny, 2, _KU + 1), dtype=complex)
    upper[:, :, 0, 1:] = window[:, :3, 0].transpose(2, 0, 1)
    upper[:, :, 1] = window[:, :, 1].transpose(2, 0, 1)
    lower = np.zeros((nx, ny, 2, _KL + 1), dtype=complex)
    lower[:, :, 0] = lcol[:, :, 0].transpose(2, 0, 1)
    lower[:, :, 1, :3] = lcol[:, 1:, 1].transpose(2, 0, 1)
    lower, upper = (f.reshape(-1, 4).T for f in (lower, upper))
    lower.setflags(write=False)
    upper.setflags(write=False)
    return StripPreconditioner(nx=nx, ny=ny, lower=lower, upper=upper)


def _gmres_solve(a: sp.csc_matrix, b: np.ndarray,
                 pre: StripPreconditioner) -> tuple[np.ndarray, dict]:
    """x from GMRES from x0 = 0, left preconditioned, in complex128, on one
    OpenBLAS thread (the Arnoldi steps call BLAS), and its `solver`,
    `residual` (relative, whether or not it meets the gate) and
    `iterations`."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    m = spla.LinearOperator(a.shape, matvec=pre.apply, dtype=complex)
    with _single_thread_blas:
        x, _ = spla.gmres(a, b, rtol=_REFINE_TOL, restart=_GMRES_RESTART,
                          maxiter=_GMRES_MAX_CYCLES, M=m, callback=count,
                          callback_type="pr_norm")
        rel = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    return x, {"solver": "gmres", "residual": float(rel),
               "iterations": iterations}


def _radiated_power(x: np.ndarray, b: np.ndarray) -> float:
    """-Im(x^H b) / |x^H b|, summed by numpy on the (re, im) float views
    (a BLAS dot would round by the thread count); 0 when x^H b = 0."""
    xf, bf = x.view(float).reshape(-1, 2), b.view(float).reshape(-1, 2)
    re = np.sum(xf[:, 0] * bf[:, 0] + xf[:, 1] * bf[:, 1])
    im = np.sum(xf[:, 0] * bf[:, 1] - xf[:, 1] * bf[:, 0])
    mag = math.hypot(re, im)
    return float(-im / mag) if mag > 0.0 else 0.0


def solve(system: SparseSystem, load: np.ndarray,
          preconditioner: StripPreconditioner | None = None) -> FieldSolution:
    """Sparse solve; the residual must satisfy ||Ax-b|| <= 1e-10 ||b||.

    Without a preconditioner, Re A is factored in float32, i Im A (the
    propagating DtN modes on the top dofs, the system's `imag_split`) is
    corrected for by the Woodbury identity, and the solution is refined
    with complex128 residuals.  When the float32 factorization fails,
    refinement ends above the 1e-10 gate or Im A has an entry off the top
    block, A is factored in complex128 and solved once.

    With a `StripPreconditioner` (of a nearby operator on the same strip),
    GMRES runs first, in complex128 with at most `_GMRES_MAX_CYCLES` cycles
    of `_GMRES_RESTART` steps; its x is kept when its relative residual
    meets the gate, and the LU path above solves otherwise.

    Factorizations, solves and GMRES run on one OpenBLAS thread, so the
    solution does not depend on the BLAS thread setting.

    The solution's metadata holds the system's `omega` and `n_max` (the
    DtN block's modes |n| <= n_max), and the solver health of a nonzero
    load: `solver` ("lu" or "gmres"), `residual` (relative) and
    `radiated_power` (-Im(x^H b) / |x^H b|, positive when the field
    radiates through the top); `iterations` when GMRES ran (also when it
    fell back to LU); and on the LU path `nnz_lu` (fill of the LU factors),
    `factor_dtype` ("float32" or "complex128"), `refinement_steps` and
    `imag_rank` (the rank of `imag_split`; both 0 on the complex128 path).
    """
    b = np.asarray(load, dtype=complex)
    if b.shape != (system.dimension,):
        raise SolveError(
            f"load has shape {b.shape}, expected ({system.dimension},)")
    health = {}
    if np.any(b):
        if preconditioner is not None:
            x, health = _gmres_solve(system.matrix, b, preconditioner)
        # no GMRES, or GMRES above the gate (a NaN residual included)
        if not health.get("residual", math.inf) <= _RESIDUAL_GATE:
            x, lu_health = _lu_solve(system.matrix, b, system.mesh.pattern,
                                     system.imag_split)
            health.update(lu_health)
        health["radiated_power"] = _radiated_power(x, b)
    else:
        x = np.zeros_like(b)

    mesh = system.mesh
    values = np.zeros((mesh.n_nodes, 2), dtype=complex)
    values[mesh.free_nodes] = x.reshape(-1, 2)    # `free_vector`'s inverse
    return FieldSolution(mesh=mesh, values=values,
                         metadata={"omega": system.params.omega,
                                   "n_max": system.n_max,
                                   **health})


def free_vector(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """The free-dof vector of nodal values (n_nodes, 2): free node k
    (`DofPattern`) owns entries 2k and 2k + 1.  `solve` lays its solution
    out on the nodes by the inverse map."""
    return np.asarray(values, dtype=complex)[mesh.free_nodes].reshape(-1)


def solver_record(sol: FieldSolution) -> dict:
    """The solve's `solver` (None for a zero load), GMRES `iterations`
    (0 when GMRES did not run) and the `n_max` of its DtN block."""
    return {"solver": sol.metadata.get("solver"),
            "iterations": sol.metadata.get("iterations", 0),
            "n_max": sol.metadata["n_max"]}


def element_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Per-element constant gradient (nt, 2, 2): [t, a, b] = d u_a / d x_b.

    One product of the mesh's gradient operator with the (re, im) float
    view of the values; the result is a view of the contiguous (nt, b, a)
    array.
    """
    vf = np.ascontiguousarray(values, dtype=complex).view(float)  # (n, 4)
    g = mesh.p1_operators.grad @ vf                    # (2 nt, 4): (t b, a)
    return g.view(complex).reshape(-1, 2, 2).transpose(0, 2, 1)


def norms(sol: FieldSolution) -> dict:
    """Quadrature-exact L2, H1, d2 (=||d u/d x2||) and top-trace L2 norms."""
    mesh = sol.mesh
    ops = mesh.p1_operators
    area = mesh.quadrature.area
    # squares of (re, im) float views weighted and summed by numpy (a BLAS
    # dot product over the triangles would round by the thread count)
    vf = np.ascontiguousarray(sol.values, dtype=complex).view(float)
    # v^H (ones+I) v area/12 per triangle: |sum_k v_k|^2 area/12 plus the
    # nodal part sum_k |v_k|^2 area/12
    s = ops.vertex_sum @ vf
    l2_sq = float(np.sum(area[:, None] * np.square(s)) / 12.0
                  + np.sum(ops.nodal_weights[:, None] * np.square(vf)))
    gf = np.ascontiguousarray(sol.gradients.transpose(0, 2, 1)).view(float)
    gsq = area[:, None, None] * np.square(gf)      # (nt, b, (a, re/im))
    semi_sq = float(np.sum(gsq))
    d2_sq = float(np.sum(gsq[:, 1]))

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


def trace_coefficients(sol: FieldSolution) -> TraceCoefficients:
    """Fourier coefficients of the solution's piecewise-linear top trace,
    |n| <= `nyquist_index(mesh.nx)`, the modes of the mesh's DtN block.

    These are exact coefficients of the P1 interpolant: sinc^2-weighted DFT
    of the nodal values, the same transform the DtN block uses.
    """
    mesh = sol.mesh
    n_max = nyquist_index(mesh.nx)
    top = np.asarray(sol.values, dtype=complex)[mesh.top_nodes]   # (nx, 2)
    hat = np.fft.fft(top, axis=0) / mesh.nx
    ns = np.arange(-n_max, n_max + 1)
    return TraceCoefficients(
        period=mesh.period, ns=ns,
        coef=_sinc2(math.pi * ns / mesh.nx)[:, None] * hat[ns % mesh.nx])
