"""Structured triangulation of one periodic cell of the strip f < x2 < h.

The grid is the shear of a uniform lattice: column i sits at x1 = i*L/nx and
carries ny+1 nodes from the surface height f(x1) (row 0) up to h (row ny).
Columns 0 and nx are identified, so the mesh lives on a cylinder; elements in
the last column reference column-0 node numbers but keep unwrapped
coordinates (x1 = L) for geometry, which keeps all signed areas positive.

Each quad splits into two counterclockwise triangles; with increasing row
heights this yields positive areas for any Lipschitz surface profile.

Every mesh carries its degree-5 quadrature (a `Quadrature`): the P1
geometry of each triangle and its 7-point rule, its free-dof assembly
pattern (a `DofPattern`) and the sparse operators of its P1 gradients and
norms (`P1Operators`).  The rule's points and weights on the whole mesh,
their distinct abscissae, the pattern and the operators are built on first
use, under a lock, so a mesh that is never assembled (or never integrated
over as a whole, or never mapped) does not pay for them: a plain solve
evaluates the rule only on the triangles whose x2 range meets its source's.
Afterwards they are only read, so concurrent ensemble samples can share
them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import MeshError
from .model import SurfaceFn

__all__ = ["Mesh", "Quadrature", "DofPattern", "P1Operators", "build_mesh",
           "nyquist_index", "DEGREE5_RULE"]

SURFACE = "SURFACE"
TOP = "TOP"
PERIODIC_PAIR = "PERIODIC_PAIR"

# Barycentric 7-point rule (points, weights), exact to degree 5; weights
# sum to 1.
_A5 = 0.4701420641051151
_B5 = 0.1012865073234563
_W5A = (155.0 + math.sqrt(15.0)) / 1200.0
_W5B = (155.0 - math.sqrt(15.0)) / 1200.0
DEGREE5_RULE = (
    np.array([
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2 * _A5, _A5, _A5],
        [_A5, 1.0 - 2 * _A5, _A5],
        [_A5, _A5, 1.0 - 2 * _A5],
        [1.0 - 2 * _B5, _B5, _B5],
        [_B5, 1.0 - 2 * _B5, _B5],
        [_B5, _B5, 1.0 - 2 * _B5],
    ]),
    np.array([9.0 / 40.0, _W5A, _W5A, _W5A, _W5B, _W5B, _W5B]),
)


_BUILD_LOCK = threading.RLock()


def _built_once(owner, name, build):
    """owner's attribute `name` (or any other key of its `__dict__`), made
    by build() on first use.  Concurrent first users wait for one build and
    share it; a build may make another attribute on first use (the lock is
    reentrant)."""
    try:
        return owner.__dict__[name]
    except KeyError:
        pass
    with _BUILD_LOCK:
        if name not in owner.__dict__:
            owner.__dict__[name] = build()
        return owner.__dict__[name]


def _weighted_sum(weights: np.ndarray, f) -> complex | float:
    """sum over elements and points of weights (nt, nq) times f (nt, nq, ...),
    with the trailing axes of f summed first."""
    f = np.asarray(f)
    return np.sum(weights * f.reshape(weights.shape + (-1,)).sum(axis=-1))


@dataclass(frozen=True)
class Quadrature:
    """Degree-5 rule on each triangle of a (nt, 3, 2) coordinate array.

    The P1 geometry is formed at once, the rule's `points` and `weights` on
    first use.  The rows of those arrays do not depend on the other
    triangles, so a rule from `take` evaluates the same rows on its
    triangles alone.
    """

    coords: np.ndarray     # (nt, 3, 2) vertex coordinates (not copied)
    area: np.ndarray       # (nt,) signed area
    grads: np.ndarray      # (nt, 3, 2) constant P1 gradients

    @classmethod
    def from_coords(cls, coords) -> Quadrature:
        coords = np.asarray(coords, dtype=float)
        x, y = coords[..., 0], coords[..., 1]
        b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                     axis=1)
        c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                     axis=1)
        area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
        return cls(coords=coords, area=0.5 * area2,
                   grads=np.stack([b, c], axis=2) / area2[:, None, None])

    @property
    def points(self) -> np.ndarray:
        """(nt, 7, 2) rule points, built on first use."""
        return _built_once(self, "_points",
                           lambda: DEGREE5_RULE[0] @ self.coords)

    @property
    def weights(self) -> np.ndarray:
        """(nt, 7) rule weight times area, built on first use."""
        return _built_once(
            self, "_weights",
            lambda: DEGREE5_RULE[1][None, :] * self.area[:, None])

    def x2_range(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (nt,): the x2 range of each triangle's vertices,
        which holds its points (convex combinations of the vertices) up to
        rounding."""
        x2 = self.coords[..., 1]
        return x2.min(axis=1), x2.max(axis=1)

    @property
    def abscissae(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, inverse): the sorted distinct x1 of the points and, shape
        (nt, 7), the position of each point's x1 in xs.  A structured mesh
        has few (the points of one column share them), so functions of x1
        alone are evaluated once per abscissa."""
        def build():
            x1 = self.points[..., 0]
            xs, inverse = np.unique(x1.ravel(), return_inverse=True)
            return xs, inverse.reshape(x1.shape)
        return _built_once(self, "_abscissae", build)

    def take(self, elems) -> Quadrature:
        """The rule on the triangles `elems` only; its points and weights
        are evaluated on those triangles alone."""
        return Quadrature(coords=self.coords[elems], area=self.area[elems],
                          grads=self.grads[elems])

    def interpolate(self, vertex_values) -> np.ndarray:
        """P1 interpolant at the points: (nt, 3, ...) -> (nt, 7, ...)."""
        v = np.asarray(vertex_values)
        out = DEGREE5_RULE[0] @ v.reshape(v.shape[0], 3, -1)
        return out.reshape((v.shape[0], out.shape[1]) + v.shape[2:])

    def integral(self, f):
        """Rule applied to point values f (nt, 7, ...), trailing axes summed."""
        return _weighted_sum(self.weights, f)


def _index_dtype(maxval: int):
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _read_only(a, maxval: int) -> np.ndarray:
    """a as a read-only index array of the smallest type holding maxval."""
    out = np.ascontiguousarray(a, dtype=_index_dtype(maxval))
    out.setflags(write=False)
    return out


# (di, dj) from a node to each node it shares a triangle with, itself
# included; the vertices (di, dj) of build_mesh's two triangles of a quad
# from its lower-left node; and, per triangle parity, the offset index of
# vertex i seen from vertex j, at [parity, i, j].
_COUPLING_OFFSETS = np.array([(-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0),
                              (0, 1), (1, 1)])
_TRIANGLE_VERTICES = np.array([[(0, 0), (1, 0), (1, 1)],
                               [(0, 0), (1, 1), (0, 1)]])
_PAIR_OFFSET = np.array([[[_COUPLING_OFFSETS.tolist().index((p - q).tolist())
                           for q in tri] for p in tri]
                         for tri in _TRIANGLE_VERTICES])


@dataclass(frozen=True)
class DofPattern:
    """Free-dof numbering and the sparsity pattern of the system matrix.

    The free dofs are (node, component) pairs of the non-surface nodes:
    free node k (in node order) owns dofs 2k and 2k+1.  Local element dofs
    follow (vertex i, component a) -> 2i + a.  The pattern holds every
    coupling of a triangle and the top x top clique of the DtN block.  It
    is structurally symmetric, so `indptr` and `indices` are both its CSR
    rows and its CSC columns; the matrices are assembled in CSC.
    `elem_dofs` and `slots` point entries of surface nodes past the end (at
    `n_dofs`, or at `nnz` and `nnz + 1`), where the scatters drop them.
    """

    n_dofs: int
    elem_dofs: np.ndarray  # (nt, 6) free-vector position of each local dof
    top_dofs: np.ndarray   # (2*nx,) dofs of the top nodes, by x1
    indptr: np.ndarray     # (n_dofs + 1,) row (and column) pointers
    indices: np.ndarray    # (nnz,) columns (rows), sorted within each row
    slots: np.ndarray      # (nt, 36) CSC data position of element entry (i, j)
    dtn_slots: np.ndarray  # (2nx, 2nx) CSC data position of top entry (p, q)

    @classmethod
    def for_strip(cls, nx: int, ny: int) -> DofPattern:
        """The pattern of the `build_mesh` strip with nx columns and ny
        rows of quads, in closed form.

        Node (i, j) has id j nx + i; the free ones (rows j >= 1) sit at
        free position (j - 1) nx + i, so the top nodes own the last 2 nx
        dofs.  Every triangle edge joins nodes at one of the offsets
        `_COUPLING_OFFSETS`: a node couples to two nodes of the row below,
        three of its own (two at nx = 2; every top node on the top row) and
        two of the row above, so its row length depends on its grid row.
        """
        n = 2 * nx * ny
        di, dj = _COUPLING_OFFSETS.T
        # rank of an offset's column among the distinct ones of its grid
        # row: the order of (i + di) mod nx, or the column in a top clique
        # or an own row of two columns (nx = 2)
        col = (np.arange(nx)[:, None] + di) % nx                 # (nx, 7)
        within = np.sum((dj[:, None] == dj)
                        & (col[:, None, :] < col[:, :, None]), axis=2)
        jr = np.arange(ny)                                # free grid rows
        top = jr == ny - 1
        size = np.stack([np.where(jr >= 1, 2, 0),        # below, own, above
                         np.where(top, nx, min(nx, 3)),
                         np.where(top, 0, 2)], axis=1)
        row_len = size.sum(axis=1)
        rank = (np.cumsum(size, axis=1) - size)[:, None, dj + 1] + np.where(
            (top[:, None, None] | (nx == 2)) & (dj == 0), col, within)
        indptr = np.concatenate([[0], np.cumsum(np.repeat(2 * row_len,
                                                          2 * nx))])
        node_ptr = indptr[:-1:2].reshape(ny, nx)       # dof row 2r of node r
        nnz = int(indptr[-1])
        itype = _index_dtype(nnz + 1)

        # grid rows (-1 on the surface) and columns of the vertices of
        # triangle 2 (i ny + j) + parity, build_mesh's triangles of quad
        # (i, j); arrays over (i, j, parity, vertex)
        vi, vj = _TRIANGLE_VERTICES[..., 0], _TRIANGLE_VERTICES[..., 1]
        vcol = (np.arange(nx)[:, None, None, None] + vi) % nx   # (nx, 1, 2, 3)
        # The CSC position of element entry (2i + a, 2j + b) is the CSR
        # position of (2j + b, 2i + a): node_ptr[v_j] + 2 rank_j(v_i) + a,
        # plus b times the row length 2 L(v_j); an entry of a surface
        # vertex goes to nnz + a.  Quad rows 2..ny-2 touch middle grid rows
        # alone, so each is quad row 2 shifted by whole middle rows.
        qrows = np.unique([0, 1, min(2, ny - 1), ny - 1])
        vrow = qrows[:, None, None] + vj - 1                    # (R, 2, 3)
        first = (node_ptr[:, :, None] + 2 * rank).astype(itype).ravel()
        first_t = first.take(7 * (np.maximum(vrow, 0) * nx + vcol)[
            ..., None, :] + _PAIR_OFFSET)              # (nx, R, 2, 3, 3)
        drop = (vrow < 0)[..., :, None] | (vrow < 0)[..., None, :]
        first_t[:, drop] = nnz
        step = np.where(drop, 0, 2 * row_len[np.maximum(vrow, 0)][
            :, :, None, :])                          # (R, 2, 3, 3) [.., i, j]
        slots = np.empty((nx, ny, 2, 3, 2, 3, 2), dtype=itype)
        slots[:, qrows] = first_t[..., :, None, :, None] \
            + step[..., :, None, :, None] * np.arange(2) \
            + np.arange(2)[:, None, None]
        flat = slots.reshape(nx, ny, 72)
        np.add(flat[:, 2:3], 4 * nx * row_len[1] * np.arange(1, ny - 3)[
            :, None], out=flat[:, 3:ny - 1])

        pos = 2 * ((np.arange(ny)[:, None, None] + vj - 1) * nx + vcol)
        elem_dofs = np.stack([pos, pos + 1], axis=-1).astype(itype)
        elem_dofs[:, 0, vj == 0] = n                   # the surface vertices
        # a slot holds its entry's row: quad rows qrows fill all grid rows
        # but 2..ny-2, grid row 1 shifted by nx nodes a row; each top
        # column ends with the clique's rows, the last 2 nx dofs
        indices = np.empty(nnz + 2, dtype=itype)
        indices[slots[:, qrows]] = elem_dofs[:, qrows, ..., None, None]
        lo, span = node_ptr[1, 0], 4 * nx * row_len[1]
        np.add(indices[lo:lo + span], 2 * nx * np.arange(1, ny - 2)[:, None],
               out=indices[lo + span:lo + (ny - 2) * span].reshape(-1, span))
        top_dofs = np.arange(n - 2 * nx, n)
        dtn_slots = indptr[top_dofs + 1] - 2 * nx + np.arange(2 * nx)[:, None]
        indices[dtn_slots] = top_dofs[:, None]
        elem_dofs, slots = elem_dofs.reshape(-1, 6), slots.reshape(-1, 36)
        return cls(n_dofs=n,
                   elem_dofs=_read_only(elem_dofs, n),
                   top_dofs=_read_only(top_dofs, n),
                   indptr=_read_only(indptr, nnz),
                   indices=_read_only(indices[:nnz], n),
                   slots=_read_only(slots, nnz + 1),
                   dtn_slots=_read_only(dtn_slots, nnz))


@dataclass(frozen=True)
class P1Operators:
    """Sparse operators on the (n_nodes, k) nodal values of a P1 field.

    Row 2t + b of `grad` gives the constant d/dx_b on triangle t: three
    entries, the triangle's nodes, with the P1 gradients as data.  Row t of
    `vertex_sum` sums the triangle's three vertex values.  The mass of a
    P1 function on a triangle is area/12 (sum_k |v_k|^2 + |sum_k v_k|^2),
    so with `nodal_weights` (sum over the triangles at a node of area/12)
    the L2 norm needs no per-triangle gather.
    """

    grad: sp.csr_matrix         # (2 nt, n_nodes)
    vertex_sum: sp.csr_matrix   # (nt, n_nodes)
    nodal_weights: np.ndarray   # (n_nodes,)

    @classmethod
    def from_quadrature(cls, triangles, quad: Quadrature,
                        n_nodes: int) -> P1Operators:
        tri = np.asarray(triangles)
        nt = tri.shape[0]
        itype = _index_dtype(max(n_nodes, 6 * nt))
        grad = sp.csr_matrix(
            (quad.grads.transpose(0, 2, 1).ravel(),
             np.repeat(tri, 2, axis=0).ravel().astype(itype),
             np.arange(0, 6 * nt + 1, 3, dtype=itype)),
            shape=(2 * nt, n_nodes))
        vertex_sum = sp.csr_matrix(
            (np.ones(3 * nt), tri.ravel().astype(itype),
             np.arange(0, 3 * nt + 1, 3, dtype=itype)),
            shape=(nt, n_nodes))
        weights = np.bincount(tri.ravel(), weights=np.repeat(
            quad.area / 12.0, 3), minlength=n_nodes)
        return cls(grad=grad, vertex_sum=vertex_sum, nodal_weights=weights)


@dataclass(frozen=True)
class Mesh:
    period: float
    h: float
    nx: int
    ny: int
    nodes: np.ndarray          # (n_nodes, 2), x1 in [0, period)
    triangles: np.ndarray      # (n_tri, 3) node indices (periodically wrapped)
    tri_coords: np.ndarray     # (n_tri, 3, 2) unwrapped vertex coordinates
    surface_nodes: np.ndarray  # (nx,) node ids on x2 = f(x1)
    top_nodes: np.ndarray      # (nx,) node ids on x2 = h, ordered by x1
    quadrature: Quadrature     # degree-5 rule on tri_coords

    @property
    def pattern(self) -> DofPattern:
        """Free-dof numbering and assembly pattern, built on first use."""
        return _built_once(self, "_pattern",
                           lambda: DofPattern.for_strip(self.nx, self.ny))

    @property
    def p1_operators(self) -> P1Operators:
        """Sparse P1 gradient and norm operators, built on first use."""
        return _built_once(self, "_p1_operators",
                           lambda: P1Operators.from_quadrature(
                               self.triangles, self.quadrature, self.n_nodes))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def free_nodes(self) -> np.ndarray:
        """All nodes except the essential (surface) ones."""
        mask = np.ones(self.n_nodes, dtype=bool)
        mask[self.surface_nodes] = False
        return np.nonzero(mask)[0]

    def areas(self) -> np.ndarray:
        """Signed triangle areas from the unwrapped coordinates."""
        return self.quadrature.area

    def meshsize(self) -> float:
        """Longest edge over all triangles."""
        tc = self.tri_coords
        e = np.concatenate([tc[:, 1] - tc[:, 0],
                            tc[:, 2] - tc[:, 1],
                            tc[:, 0] - tc[:, 2]])
        return float(np.max(np.hypot(e[:, 0], e[:, 1])))

    def top_edge_triangles(self) -> np.ndarray:
        """Triangle index adjacent to the top edge of column i, for each i."""
        # quad (i, ny-1) contributes triangles 2*(i*ny + ny-1) and +1; the
        # second one (a, c, d) owns the top edge d-c.
        i = np.arange(self.nx)
        return 2 * (i * self.ny + (self.ny - 1)) + 1

    def node_text(self) -> np.ndarray:
        """(n_nodes, 2) object array of the shortest repr of each node
        coordinate: the text of the node records.  Every row of nodes has
        the same nx abscissae, so those are formatted once."""
        x1 = list(map(repr, self.nodes[:self.nx, 0].tolist()))
        x2 = list(map(repr, self.nodes[:, 1].tolist()))
        return np.array([x1 * (self.ny + 1), x2], dtype=object).T

    def dump(self, node_text: np.ndarray | None = None) -> str:
        """Tab-separated plain-text listing: nodes, triangles, tagged edges.

        Lateral boundaries are identified, so each PERIODIC_PAIR record names
        the single node that represents both the x1=0 and x1=period sides of
        its row.  A caller that has `node_text()` already passes it.
        """
        nx, ny = self.nx, self.ny
        s, t = self.surface_nodes, self.top_nodes
        rows = np.arange(ny + 1) * nx
        xy = self.node_text() if node_text is None else node_text
        return (_records("node\t%d\t%s\t%s", np.arange(self.n_nodes), *xy.T)
                + _records("tri\t%d\t%d\t%d\t%d",
                           np.arange(len(self.triangles)), *self.triangles.T)
                + _records("edge\t%s\t%d\t%d", [SURFACE, TOP] * nx,
                           np.stack([s, t], axis=1).ravel(),
                           np.stack([np.roll(s, -1), np.roll(t, -1)],
                                    axis=1).ravel())
                + _records("edge\t%s\t%d\t%d", [PERIODIC_PAIR] * (ny + 1),
                           rows, rows))


def _records(fmt: str, *columns) -> str:
    """One line `fmt % row` per row of the columns, in one formatting pass.

    The cells become Python scalars first, so `%r` prints a float as its
    plain shortest repr (a numpy scalar would print as `np.float64(...)`).
    """
    table = np.empty((len(columns[0]), len(columns)), dtype=object)
    for j, col in enumerate(columns):
        table[:, j] = col
    return ((fmt + "\n") * len(table)) % tuple(table.ravel().tolist())


def nyquist_index(nx: int) -> int:
    """The largest mode |n| that nx equispaced top nodes resolve,
    (nx - 1) // 2: past it the DFT of the trace aliases."""
    return (nx - 1) // 2


def build_mesh(f: SurfaceFn, h: float, nx: int, ny: int) -> Mesh:
    """Mesh one periodic cell of the strip between f and x2 = h."""
    if nx < 2 or ny < 2:
        raise MeshError(f"nx, ny must be >= 2, got ({nx}, {ny})")
    if h <= f.f_max:
        raise MeshError(f"h={h} must exceed the surface bound M={f.f_max}")
    per = f.period
    x1 = np.arange(nx) * (per / nx)
    fv = np.asarray(f.f(x1), dtype=float)
    s = np.arange(ny + 1) / ny
    # node id = j*nx + i; force surface and top rows exact
    x2 = fv[None, :] + s[:, None] * (h - fv[None, :])
    x2[0, :] = fv
    x2[-1, :] = h
    nodes = np.empty(((ny + 1) * nx, 2))
    nodes[:, 0] = np.tile(x1, ny + 1)
    nodes[:, 1] = x2.reshape(-1)

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ip = (ii + 1) % nx
    na = jj * nx + ii
    nb = jj * nx + ip
    nc = (jj + 1) * nx + ip
    nd = (jj + 1) * nx + ii
    # quad (i, j) -> triangles 2*(i*ny+j) = (a,b,c) and +1 = (a,c,d)
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = np.stack([na, nb, nc], axis=-1).reshape(-1, 3)
    tris[1::2] = np.stack([na, nc, nd], axis=-1).reshape(-1, 3)

    xl = x1[ii]
    xr = xl + per / nx  # unwrapped right column abscissa
    pa = np.stack([xl, x2[jj, ii]], axis=-1)
    pb = np.stack([xr, x2[jj, ip]], axis=-1)
    pc = np.stack([xr, x2[jj + 1, ip]], axis=-1)
    pd = np.stack([xl, x2[jj + 1, ii]], axis=-1)
    coords = np.empty((2 * nx * ny, 3, 2))
    coords[0::2] = np.stack([pa, pb, pc], axis=-2).reshape(-1, 3, 2)
    coords[1::2] = np.stack([pa, pc, pd], axis=-2).reshape(-1, 3, 2)

    surface_nodes = np.arange(nx, dtype=np.int64)
    top_nodes = ny * nx + np.arange(nx, dtype=np.int64)
    mesh = Mesh(
        period=per, h=float(h), nx=nx, ny=ny,
        nodes=nodes,
        triangles=tris,
        tri_coords=coords,
        surface_nodes=surface_nodes,
        top_nodes=top_nodes,
        quadrature=Quadrature.from_coords(coords),
    )
    areas = mesh.areas()
    if np.any(areas <= 0.0):
        raise MeshError(f"degenerate element: min signed area {areas.min():.3g}")
    return mesh
