"""Seeded ensembles: determinism, per-sample invariants, mean-square bound."""

import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from elastodtn import cli, fem, montecarlo
from elastodtn.errors import EnsembleError, ParameterError, SolveError
from elastodtn.fem import (
    FieldSolution,
    assemble_B,
    assemble_load,
    assemble_load_transformed,
    map_quadrature,
    solve,
    strip_preconditioner,
)
from elastodtn.mesh import build_mesh
from elastodtn.model import (
    DomainMap,
    RandomSurfaceModel,
    SourceSpec,
    flat_surface,
    make_cutoff,
    make_source,
    sample_surface,
)
from elastodtn.montecarlo import (
    pullback_source_h1_sq,
    pushforward_h1_sq,
    run_ensemble,
    run_sample,
    meansquare_envelope_check,
)
from elastodtn.verify import bound_profile, source_norms


@pytest.fixture
def mesh_ref(flat_geom):
    return build_mesh(flat_geom.surface, flat_geom.h, 24, 32)


def _shared_pre(mesh, p):
    """The strip preconditioner `run_ensemble` shares: the reference
    system's."""
    return strip_preconditioner(assemble_B(mesh, p))


def _det_model():
    return RandomSurfaceModel(f0=flat_surface(0.3, 0.2, 0.4, 1.0),
                              mode_count=0, amplitudes=(), phases=(),
                              M0=0.1, seed=1)


class TestRunSample:
    def test_deterministic_model_reduces_to_plain_solve(
            self, source_spec, params2, mesh_ref):
        rec = run_sample(_det_model(), source_spec, params2, mesh_ref, 0,
                         preconditioner=_shared_pre(mesh_ref, params2))
        src = make_source(source_spec, 0, f_max=0.4, h=1.4)
        system = assemble_B(mesh_ref, params2)
        sol = solve(system, assemble_load(mesh_ref, src))
        assert rec["u_h1_sq"] == pytest.approx(sol.norms["h1"] ** 2,
                                               rel=1e-12)
        assert rec["min_detJ"] == 1.0
        assert rec["u_ref_h1_sq"] == pytest.approx(rec["u_h1_sq"], rel=1e-12)

    def test_same_index_identical_records(self, surface_model, source_spec,
                                          params2, mesh_ref):
        pre = _shared_pre(mesh_ref, params2)
        a = run_sample(surface_model, source_spec, params2, mesh_ref, 2,
                       preconditioner=pre)
        b = run_sample(surface_model, source_spec, params2, mesh_ref, 2,
                       preconditioner=pre)
        assert a == b
        c = run_sample(surface_model, source_spec, params2, mesh_ref, 3,
                       preconditioner=pre)
        assert a != c

    def test_norm_equivalence_sandwich(self, surface_model, source_spec,
                                       params2, mesh_ref):
        pre = _shared_pre(mesh_ref, params2)
        for idx in range(4):
            rec = run_sample(surface_model, source_spec, params2, mesh_ref,
                             idx, preconditioner=pre)
            k = rec["kappa"]
            assert rec["u_h1_sq"] <= k * rec["u_ref_h1_sq"] * (1 + 1e-12)
            assert rec["u_ref_h1_sq"] <= k * rec["u_h1_sq"] * (1 + 1e-12)

    def test_element_gradients_once_per_sample(
            self, surface_model, source_spec, params2, mesh_ref,
            monkeypatch):
        calls = []
        gradients = fem.element_gradients

        def counting(*args, **kwargs):
            calls.append(1)
            return gradients(*args, **kwargs)

        monkeypatch.setattr(fem, "element_gradients", counting)
        run_sample(surface_model, source_spec, params2, mesh_ref, 1,
                   preconditioner=_shared_pre(mesh_ref, params2))
        assert len(calls) == 1

    def test_records_requested_and_effective_n_max(
            self, surface_model, source_spec, params2, mesh_ref,
            monkeypatch):
        # nx = 24 resolves modes up to (24 - 1) // 2 = 11: the sample's
        # system keeps them all and its record says so
        seen = []
        real_solve = montecarlo.solve

        def spy(system, load, **kwargs):
            sol = real_solve(system, load, **kwargs)
            seen.append(sol.metadata)
            return sol

        monkeypatch.setattr(montecarlo, "solve", spy)
        rec = run_sample(surface_model, source_spec, params2, mesh_ref, 1,
                         preconditioner=_shared_pre(mesh_ref, params2))
        assert seen[0]["n_max"] == rec["n_max"] == 11

    def test_ensemble_keeps_every_resolved_mode(
            self, surface_model, source_spec, params2, flat_geom,
            monkeypatch):
        # nx = 64 resolves modes up to 31: by default the reference system
        # and every sample keep them all, as every per-sample record says,
        # and nothing warns
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 64, 8)
        systems = []
        for name in ("assemble_B", "assemble_B_transformed"):
            def spy(*args, real=getattr(montecarlo, name), **kwargs):
                systems.append(real(*args, **kwargs))
                return systems[-1]
            monkeypatch.setattr(montecarlo, name, spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_ensemble(surface_model, source_spec, params2, mesh, 3)
        assert [s.n_max for s in systems] == [31] * 4
        assert [r["n_max"] for r in res.per_sample] == [31] * 3

    def test_negative_index_rejected(self, surface_model, source_spec,
                                     params2, mesh_ref):
        with pytest.raises(ParameterError):
            run_sample(surface_model, source_spec, params2, mesh_ref, -1,
                       preconditioner=None)


def _sampled_mq(surface_model, mesh, index=1):
    dmap = DomainMap(f0=surface_model.f0,
                     f_eta=sample_surface(surface_model, index),
                     cutoff=make_cutoff(1.1 / 8.0, 1.1))
    return map_quadrature(mesh.quadrature, dmap)


class TestSampleKernels:
    """The per-sample norms and load against their point-wise forms."""

    def test_pushforward_blocks_equal_pointwise(self, surface_model,
                                                mesh_ref):
        mq = _sampled_mq(surface_model, mesh_ref)
        gen = np.random.default_rng(3)
        vals = gen.standard_normal((mesh_ref.n_nodes, 2)) \
            + 1j * gen.standard_normal((mesh_ref.n_nodes, 2))
        sol = FieldSolution(mesh=mesh_ref, values=vals)
        # the point-wise form: interpolate, transform the gradients, sum
        uh = mq.quad.interpolate(vals[mesh_ref.triangles])
        g = mq.physical_gradient(fem.element_gradients(mesh_ref, vals)[:, None])
        ref = float(mq.integral(np.abs(g) ** 2)
                    + mq.integral(np.abs(uh) ** 2))
        assert np.min(mq.detj) < 0.999    # the map is not the identity
        assert abs(pushforward_h1_sq(sol, mq) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("center", [(0.5, 0.8), (0.03, 0.8),
                                        (0.97, 0.9)])
    def test_support_restricted_load_and_norm(self, surface_model, mesh_ref,
                                              center):
        # the last two disks straddle the seam x1 = 0
        g = make_source(SourceSpec(center=center, radius=0.15,
                                   amplitude=(1.0, 0.5j)), None,
                        f_max=0.4, h=1.4)
        mq = _sampled_mq(surface_model, mesh_ref)
        elems = g.support_elements(mq)
        assert 0 < elems.size < mq.weights.shape[0] // 4
        near = mq.take(elems)
        values = g(near.points)
        full = g(mq.points)
        load = assemble_load_transformed(mesh_ref, values, near, elems)
        assert np.array_equal(load, assemble_load_transformed(mesh_ref, full,
                                                              mq))
        ref = pullback_source_h1_sq(g, mq, full)
        assert abs(pullback_source_h1_sq(g, near, values) - ref) \
            <= 1e-14 * ref


class TestRunEnsemble:
    def test_single_sample_wraps_run_sample(self, surface_model, source_spec,
                                            params2, mesh_ref):
        res = run_ensemble(surface_model, source_spec, params2, mesh_ref, 1)
        rec = run_sample(surface_model, source_spec, params2, mesh_ref, 0,
                         preconditioner=_shared_pre(mesh_ref, params2))
        assert res.per_sample == [rec]
        assert res.mean_u_sq == rec["u_h1_sq"]
        assert res.se_u_sq == 0.0

    def test_parallelism_reproducibility(self, surface_model, source_spec,
                                         params2, mesh_ref):
        serial = run_ensemble(surface_model, source_spec, params2, mesh_ref,
                              8, parallelism=1)
        parallel = run_ensemble(surface_model, source_spec, params2,
                                mesh_ref, 8, parallelism=8)
        assert serial == parallel

    def test_spread_sanity(self, surface_model, source_spec, params2,
                           flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 16)
        res = run_ensemble(surface_model, source_spec, params2, mesh, 64,
                           parallelism=8)
        assert res.se_u_sq / res.mean_u_sq < 0.5

    def test_failed_sample_aborts_with_indices(self, surface_model,
                                               source_spec, params2,
                                               mesh_ref):
        with pytest.raises(EnsembleError) as err:
            run_ensemble(surface_model, source_spec, params2, mesh_ref, 3,
                         epsilon_margin=0.999999)
        assert "0" in str(err.value)

    def test_n_validated(self, surface_model, source_spec, params2,
                         mesh_ref):
        with pytest.raises(ParameterError):
            run_ensemble(surface_model, source_spec, params2, mesh_ref, 0)


ROOT = Path(__file__).resolve().parent.parent

# The ensemble of the determinism contract: 64x96, omega 8, two samples of a
# two-mode surface with a jittered source.
ENSEMBLE_CFG = """\
[physics]
omega = 8.0

[surface_model]
mode_count = 2
amplitudes = 0.02, 0.01
phases = 0.0, 1.3
M0 = 0.3
seed = 7

[source]
jitter_center = 0.05
jitter_amplitude = 0.1
jitter_seed = 7

[discretization]
nx = 64
ny = 96

[run]
N = {n}
"""


def _ensemble_subprocess(tmp_path, blas_threads: str) -> dict:
    """ensemble.csv and checks.csv of a CLI run with the given
    OPENBLAS_NUM_THREADS."""
    cfg = tmp_path / "ens.cfg"
    cfg.write_text(ENSEMBLE_CFG.format(n=2))
    out = tmp_path / f"blas{blas_threads}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-m", "elastodtn.cli", "ensemble", "--config",
         str(cfg), "--out", str(out), "--parallelism", "1"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {name: (out / name).read_bytes()
            for name in ("ensemble.csv", "checks.csv")}


def _blas_threads(controls) -> list:
    return [get() for get, _ in controls]


class TestDeterminismContract:
    """ensemble.csv and checks.csv are byte-identical at any parallelism and
    any OpenBLAS thread setting: the samples and the anchor solve run with
    OpenBLAS pinned to one thread."""

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        one = _ensemble_subprocess(tmp_path, "1")
        two = _ensemble_subprocess(tmp_path, "2")
        assert one["ensemble.csv"].count(b"\n") == 3
        assert one["ensemble.csv"] == two["ensemble.csv"]
        assert one["checks.csv"].count(b"\n") == 2
        assert one["checks.csv"] == two["checks.csv"]

    def test_bytes_independent_of_parallelism(self, tmp_path):
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(ENSEMBLE_CFG.format(n=4).replace(
            "nx = 64\nny = 96", "nx = 32\nny = 48"))
        out = {}
        for workers in (1, 2, 4):
            d = tmp_path / f"p{workers}"
            assert cli.main(["ensemble", "--config", str(cfg), "--out",
                             str(d), "--parallelism", str(workers)]) == 0
            out[workers] = [(d / name).read_bytes()
                            for name in ("ensemble.csv", "checks.csv")]
        assert out[1][0].count(b"\n") == 5
        assert out[1][1].count(b"\n") == 2
        assert out[1] == out[2] == out[4]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_anchor_task_runs_pinned_in_pool(
            self, openblas_at_two, surface_model, source_spec, params2,
            mesh_ref, parallelism):
        controls = openblas_at_two
        seen = []

        def anchor(system):
            seen.append((_blas_threads(controls),
                         threading.current_thread() is threading.main_thread(),
                         system.mesh is mesh_ref))
            return 0.25

        res = run_ensemble(surface_model, source_spec, params2, mesh_ref, 2,
                           parallelism=parallelism, anchor=anchor)
        assert res.anchor == 0.25
        assert seen == [([1] * len(controls), False, True)]
        assert _blas_threads(controls) == [2] * len(controls)

    def test_anchor_error_propagates(self, surface_model, source_spec,
                                     params2, mesh_ref):
        def anchor(system):
            raise SolveError("anchor failed")

        with pytest.raises(SolveError, match="anchor failed"):
            run_ensemble(surface_model, source_spec, params2, mesh_ref, 1,
                         anchor=anchor)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_samples_pinned_and_counts_restored(
            self, openblas_at_two, monkeypatch, surface_model, source_spec,
            params2, mesh_ref, parallelism):
        controls = openblas_at_two
        seen = []
        sample = montecarlo.run_sample

        def recording_sample(*args, **kwargs):
            seen.append(_blas_threads(controls))
            return sample(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_sample", recording_sample)
        run_ensemble(surface_model, source_spec, params2, mesh_ref, 2,
                     parallelism=parallelism)
        assert seen == [[1] * len(controls)] * 2
        assert _blas_threads(controls) == [2] * len(controls)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_reference_error_propagates(self, monkeypatch, surface_model,
                                        source_spec, params2, mesh_ref,
                                        parallelism):
        # the samples wait on the reference task's preconditioner: its
        # error reaches them and the caller, and nothing deadlocks
        def failing(*args):
            raise SolveError("reference failed")

        monkeypatch.setattr(montecarlo, "assemble_B", failing)
        raised = []

        def run():
            try:
                run_ensemble(surface_model, source_spec, params2, mesh_ref,
                             3, parallelism=parallelism,
                             anchor=lambda system: 0.0)
            except SolveError as exc:
                raised.append(str(exc))

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert raised == ["reference failed"]

    def test_more_workers_than_cores_with_fast_switching(
            self, surface_model, source_spec, params2, mesh_ref):
        serial = run_ensemble(surface_model, source_spec, params2, mesh_ref,
                              6, anchor=lambda system: system.dimension)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: results.append(
                run_ensemble(surface_model, source_spec, params2, mesh_ref,
                             6, parallelism=2 * os.cpu_count(),
                             anchor=lambda system: system.dimension)),
                daemon=True)
            worker.start()
            worker.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert results[0].per_sample == serial.per_sample
        assert results[0].anchor == serial.anchor == 2 * mesh_ref.nx \
            * mesh_ref.ny

    def test_counts_restored_after_failed_ensemble(
            self, openblas_at_two, surface_model, source_spec, params2,
            mesh_ref):
        with pytest.raises(EnsembleError):
            run_ensemble(surface_model, source_spec, params2, mesh_ref, 2,
                         parallelism=2, epsilon_margin=0.999999)
        assert _blas_threads(openblas_at_two) == [2] * len(openblas_at_two)

    def test_nested_pins_restore_once(self, openblas_at_two):
        controls = openblas_at_two
        with fem._single_thread_blas:
            with fem._single_thread_blas:
                assert _blas_threads(controls) == [1] * len(controls)
            assert _blas_threads(controls) == [1] * len(controls)
        assert _blas_threads(controls) == [2] * len(controls)

    def test_unreadable_memory_map_pins_nothing(self, openblas_at_two,
                                                monkeypatch):
        def unreadable(*args, **kwargs):
            raise PermissionError("memory map not readable")

        monkeypatch.setattr(fem, "open", unreadable, raising=False)
        # forget the handles of the process's one scan, so the pin scans
        # the unreadable map again
        monkeypatch.setattr(fem._single_thread_blas, "_controls", None)
        assert fem._openblas_thread_controls() == []
        with fem._single_thread_blas:
            assert _blas_threads(openblas_at_two) == [2] * len(
                openblas_at_two)
        assert _blas_threads(openblas_at_two) == [2] * len(openblas_at_two)


class TestMeansquareEnvelope:
    def test_zero_source(self, surface_model, params2, mesh_ref):
        from elastodtn.model import SourceSpec
        spec0 = SourceSpec(center=(0.5, 0.8), radius=0.15,
                           amplitude=(0.0, 0.0), period=1.0)
        res = run_ensemble(surface_model, spec0, params2, mesh_ref, 2)
        prof = bound_profile(2.0, 1.4, 0.2, surface_model.lipschitz_envelope)
        chk = meansquare_envelope_check(res, prof, 1.0)
        assert chk["lhs"] == 0.0 and chk["ok"]

    def test_deterministic_reduces_to_squared_bound(self, source_spec,
                                                    params2, mesh_ref):
        model = _det_model()
        res = run_ensemble(model, source_spec, params2, mesh_ref, 1)
        prof = bound_profile(2.0, 1.4, 0.2, model.f0.lipschitz)
        src = make_source(source_spec, 0, f_max=0.4, h=1.4)
        gn = source_norms(mesh_ref, src)["h1"]
        anchor = res.mean_u_sq / ((prof.h + 2 - prof.m) ** 2
                                  * (prof.c4 + prof.c5 + prof.c6) ** 2
                                  * gn ** 2)
        chk = meansquare_envelope_check(res, prof, anchor * 1.000001)
        assert chk["ok"]
        chk_tight = meansquare_envelope_check(res, prof, anchor * 0.999)
        assert not chk_tight["ok"]


def surface_distance_1inf(fa, fb, period: float) -> float:
    """Dense-grid sup|fa - fb| + sup|fa' - fb'|."""
    x = np.linspace(0.0, period, 10000, endpoint=False)
    return float(np.max(np.abs(fa.f(x) - fb.f(x)))
                 + np.max(np.abs(fa.df(x) - fb.df(x))))


def _f_second_moment(model, n):
    """Sample mean of ||f(eta) - f0||^2_{1,inf} over the draws 0..n-1."""
    return float(np.mean([
        surface_distance_1inf(sample_surface(model, i), model.f0,
                              model.f0.period) ** 2 for i in range(n)]))


class TestRandomInputMoments:
    """The second moments of the random inputs: E||f - f0||^2_{1,inf} of the
    drawn surfaces, and E||g~||^2_H1, the ensemble's `mean_g_sq`."""

    def test_deterministic_model_zero_f_moment(self, source_spec, params2,
                                               mesh_ref):
        model = _det_model()
        assert _f_second_moment(model, 4) == 0.0
        res = run_ensemble(model, source_spec, params2, mesh_ref, 4)
        assert res.mean_g_sq > 0.0
        assert res.mean_g_sq == float(np.mean(
            [r["g_h1_sq"] for r in res.per_sample]))

    def test_halved_amplitudes_quarter_moment(self, surface_model):
        half = RandomSurfaceModel(
            f0=surface_model.f0, mode_count=surface_model.mode_count,
            amplitudes=tuple(a / 2 for a in surface_model.amplitudes),
            phases=surface_model.phases, M0=surface_model.M0,
            seed=surface_model.seed)
        assert _f_second_moment(half, 32) == pytest.approx(
            _f_second_moment(surface_model, 32) / 4.0, rel=0.2)

    def test_stability_under_doubling(self, surface_model):
        n = 64
        vals = np.array([
            surface_distance_1inf(sample_surface(surface_model, i),
                                  surface_model.f0, 1.0) ** 2
            for i in range(2 * n)])
        m_n = float(np.mean(vals[:n]))
        m_2n = float(np.mean(vals))
        se = float(np.std(vals[:n], ddof=1) / math.sqrt(n))
        assert abs(m_2n - m_n) <= 2.0 * se
