"""Seeded ensemble runs of the random problem on the reference mesh.

Each sample draws a surface, builds the vertical domain map, assembles the
pulled-back form and load, solves, and records both the reference-strip norm
of the transformed solution (the quantity the mean-square bound controls)
and the physical-strip norm of the pushforward, obtained by change of
variables on the same quadrature points.  Samples are pure functions of
(seed, index), so ensembles are reproducible bit for bit at any parallelism.

Every sample is a small perturbation of the reference operator, so its
system is solved by GMRES preconditioned with the reference strip operator
(`fem.StripPreconditioner`), built once per ensemble and shared read-only
by the samples; `fem.solve` falls back to its LU when GMRES misses the
residual gate.

The sample loop runs under `fem`'s OpenBLAS pin (one thread), held once
for the whole pool: the sample threads then do not oversubscribe the cores,
and every solve inside nests in the same pin.  The reference system is
assembled once, by the first task of the pool, which builds the
preconditioner from it and then runs a caller's extra solve on it (the
CLI's deterministic anchor); the samples map and assemble meanwhile and
wait for the preconditioner only before their solve.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ElastoDtnError, EnsembleError, ParameterError
from .fem import (
    FieldSolution,
    MappedQuadrature,
    SparseSystem,
    _single_thread_blas,
    assemble_B,
    assemble_B_transformed,
    assemble_load_transformed,
    map_quadrature,
    solve,
    solver_record,
    strip_preconditioner,
)
from .mesh import Mesh
from .model import (
    DomainMap,
    ElasticParams,
    RandomSurfaceModel,
    SourceSpec,
    check_invertibility,
    make_cutoff,
    make_source,
    sample_surface,
)
from .verify import BoundProfile

__all__ = [
    "EnsembleResult",
    "run_sample",
    "run_ensemble",
    "meansquare_envelope_check",
]


def _norm_equivalence_kappa(mq: MappedQuadrature) -> float:
    """kappa over the quadrature points: both H1 norms of a sample are sums
    over these points, so kappa dominates both directions of the
    norm-equivalence sandwich."""
    j1, d = mq.j1, mq.detj
    tr_fwd = 1.0 + j1 ** 2 + d ** 2
    lmax_fwd = 0.5 * (tr_fwd + np.sqrt(tr_fwd ** 2 - 4.0 * d ** 2))
    kappa_a = np.max(np.maximum(lmax_fwd, 1.0) / d)
    tr_inv = 1.0 + (1.0 + j1 ** 2) / d ** 2
    lmax_inv = 0.5 * (tr_inv + np.sqrt(tr_inv ** 2 - 4.0 / d ** 2))
    kappa_b = np.max(np.maximum(lmax_inv, 1.0) * d)
    return float(max(kappa_a, kappa_b))


def pushforward_h1_sq(sol: FieldSolution, mq: MappedQuadrature) -> float:
    """||u*||^2_{H1} on the image strip by change of variables:
    int [sum_a |invJ^T grad u~_a|^2 + |u~|^2] det J dy.  With the moments
    of `mq.moments` and the constant P1 gradients `sol.gradients`, the
    semi-norm sums m1 |d1 u|^2 + 2 m12 Re(d1 u conj d2 u) + (m1212 + m2222)
    |d2 u|^2 over triangles and components; the L2 part is u^H mm u."""
    (m1, m12, _, m1212, _, m2222), mm = mq.moments
    # (nt, b, (a, re/im)): the contiguous array `sol.gradients` views
    gf = np.ascontiguousarray(sol.gradients.transpose(0, 2, 1)).view(float)
    s11, s12, s22 = (np.einsum("tk,tk->t", gf[:, b], gf[:, c])
                     for b, c in ((0, 0), (0, 1), (1, 1)))
    u = np.asarray(sol.values, dtype=complex)
    v = u[sol.mesh.triangles].view(float)              # (nt, 3, (a, re/im))
    mass = np.sum(v * (np.ascontiguousarray(mm.transpose(2, 0, 1)) @ v))
    return float(np.sum(m1 * s11 + 2.0 * m12 * s12 + (m1212 + m2222) * s22)
                 + mass)


def pullback_source_h1_sq(g, mq: MappedQuadrature, values) -> float:
    """||g o H||^2_{H1} on the reference strip (g has analytic .grad), with
    values = g(mq.points) evaluated by the caller (shared with the load).
    `mq` may cover only the triangles where g does not vanish."""
    gv = np.asarray(values, dtype=complex)
    dg = mq.pullback_gradient(np.asarray(g.grad(mq.points), dtype=complex))
    return float(mq.quad.integral(np.abs(gv) ** 2)
                 + mq.quad.integral(np.abs(dg) ** 2))


def run_sample(model: RandomSurfaceModel, src: SourceSpec, p: ElasticParams,
               mesh_ref: Mesh, index: int, *, preconditioner,
               delta: float | None = None,
               epsilon_margin: float = 0.05) -> dict:
    """Solve one draw of the random problem; returns the per-sample record.

    The source enters (load and norm) only through the triangles where it
    does not vanish.  The system is solved with `preconditioner`: a
    `fem.StripPreconditioner` (`run_ensemble` shares the reference
    system's), a `Future` of one, waited for just before the solve, or None
    for the LU (see `fem.solve`).  The record's `solver` and `iterations`
    are `fem.solver_record`'s (the DtN keeps every mode the mesh resolves).
    delta None is `make_cutoff`'s default."""
    if index < 0:
        raise ParameterError("sample index must be >= 0")
    h = mesh_ref.h
    gap = h - model.f0.sup()
    f_eta = sample_surface(model, index)
    cutoff = make_cutoff(delta, gap)
    dmap = DomainMap(f0=model.f0, f_eta=f_eta, cutoff=cutoff,
                     epsilon_margin=epsilon_margin)
    min_detj = check_invertibility(dmap, 64, h=h)
    mq = map_quadrature(mesh_ref.quadrature, dmap)

    g_eta = make_source(src, index, f_max=model.f0.f_max, h=h)
    elems = g_eta.support_elements(mq)
    near = mq.take(elems)
    g_values = g_eta(near.points)
    system = assemble_B_transformed(mesh_ref, p, mq)
    load = assemble_load_transformed(mesh_ref, g_values, near, elems)
    if isinstance(preconditioner, Future):
        preconditioner = preconditioner.result()
    sol = solve(system, load, preconditioner=preconditioner)
    return {
        "index": index,
        "u_h1_sq": sol.norms["h1"] ** 2,
        "u_ref_h1_sq": pushforward_h1_sq(sol, mq),
        "g_h1_sq": pullback_source_h1_sq(g_eta, near, g_values),
        "min_detJ": min_detj,
        "kappa": _norm_equivalence_kappa(mq),
        **solver_record(sol),
    }


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated per-sample records; a pure function of its inputs."""

    sample_count: int
    per_sample: list[dict]
    mean_u_sq: float
    mean_g_sq: float
    se_u_sq: float
    anchor: Any = None     # value of run_ensemble's `anchor`, if any


def run_ensemble(model: RandomSurfaceModel, src: SourceSpec, p: ElasticParams,
                 mesh_ref: Mesh, N: int, parallelism: int = 1,
                 anchor: Callable[[SparseSystem], Any] | None = None,
                 **sample_kwargs) -> EnsembleResult:
    """N independent samples with indices 0..N-1; aggregation is an ordered
    reduction, so the result is independent of scheduling.  The samples run
    with OpenBLAS pinned to one thread and share one strip preconditioner
    of the reference system (see the module docstring).

    `anchor`, a function of the reference system (the one the
    preconditioner is built from), runs in the pool's first task, after
    the preconditioner is built, so it overlaps the samples while at most
    `parallelism` tasks (and factorizations) are alive; its value is the
    result's `anchor`, and an error it raises propagates unchanged.
    Tasks wait only for the first, which was started before them, so no
    worker count deadlocks.
    """
    if N < 1:
        raise ParameterError("N must be >= 1")
    results: dict[int, dict] = {}
    failures: dict[int, str] = {}
    pre: Future = Future()

    def reference():
        try:
            system = assemble_B(mesh_ref, p)
            pre.set_result(strip_preconditioner(system))
        except BaseException as exc:   # the samples waiting on pre raise it
            pre.set_exception(exc)
            raise
        return anchor(system) if anchor is not None else None

    with _single_thread_blas, \
            ThreadPoolExecutor(max_workers=max(1, parallelism)) as pool:
        first = pool.submit(reference)
        futs = {i: pool.submit(run_sample, model, src, p, mesh_ref, i,
                               preconditioner=pre, **sample_kwargs)
                for i in range(N)}
        for i, fut in futs.items():
            try:
                results[i] = fut.result()
            except ElastoDtnError as exc:
                failures[i] = str(exc)
    anchored = first.result()   # its error first: the samples wait on it
    if failures:
        detail = "; ".join(f"{i}: {msg}" for i, msg in sorted(failures.items()))
        raise EnsembleError(f"samples failed: {detail}")

    per_sample = [results[i] for i in range(N)]
    u_sq = np.array([r["u_h1_sq"] for r in per_sample])
    g_sq = np.array([r["g_h1_sq"] for r in per_sample])
    mean_u = float(np.mean(u_sq))
    se = float(np.std(u_sq, ddof=1) / math.sqrt(N)) if N > 1 else 0.0
    return EnsembleResult(sample_count=N, per_sample=per_sample,
                          mean_u_sq=mean_u, mean_g_sq=float(np.mean(g_sq)),
                          se_u_sq=se,
                          anchor=anchored)


def meansquare_envelope_check(res: EnsembleResult, profile: BoundProfile,
                    calibrated_C: float) -> dict:
    """Mean-square envelope: mean ||u~||^2 <= C (H-m+1)^2 (c4+c5+c6)^2 mean ||g~||^2.

    The profile must be evaluated at the envelope Lipschitz constant
    L0 = L + M0 of the random family.
    """
    rhs = calibrated_C * profile.envelope_factor * res.mean_g_sq
    lhs = res.mean_u_sq
    return {"lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs)}
