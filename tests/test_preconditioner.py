"""The reference strip preconditioner, the GMRES path of `fem.solve` with
its LU fallback, and the radiated power every solve records."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from elastodtn import cli, fem, montecarlo
from elastodtn.config import RunConfig
from elastodtn.fem import (
    assemble_B,
    assemble_load,
    solve,
    strip_preconditioner,
)
from elastodtn.mesh import build_mesh
from elastodtn.model import (
    Geometry,
    RandomSurfaceModel,
    cosine_surface,
    flat_surface,
    make_params,
    make_source,
    sawtooth_surface,
)
from elastodtn.montecarlo import run_ensemble, run_sample
from elastodtn.verify import SweepConfig, omega_sweep

FLAT = flat_surface(0.3, 0.2, 0.4, 1.0)
WAVY = cosine_surface(0.3, [0.04], [1], [0.0], 0.2, 0.4, 1.0)
SAWTOOTH = sawtooth_surface(0.3, 0.05, 0.2, 0.4, 1.0)
OMEGAS = (2.0, 2 * np.pi - 1e-3, 2 * np.pi + 1e-3, 8.0, 16.75, 24.0)


def _model(f0):
    return RandomSurfaceModel(f0=f0, mode_count=2, amplitudes=(0.02, 0.01),
                              phases=(0.0, 1.3), M0=0.3, seed=42)


def _random(n, seed=0):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _reference_pre(mesh, p):
    """The strip preconditioner `run_ensemble` shares: the reference
    system's."""
    return strip_preconditioner(assemble_B(mesh, p))


def _captured_sample(model, spec, p, mesh, index, monkeypatch):
    """(system, load, solution) of run_sample's solve, preconditioned with
    the reference system's strip operator."""
    seen = []
    real_solve = montecarlo.solve

    def spy(system, load, **kw):
        sol = real_solve(system, load, **kw)
        seen.append((system, load, sol))
        return sol

    monkeypatch.setattr(montecarlo, "solve", spy)
    run_sample(model, spec, p, mesh, index,
               preconditioner=_reference_pre(mesh, p))
    monkeypatch.undo()
    return seen[0]


class TestSymbols:
    """On a flat strip the x1-average is the operator itself, so the
    preconditioner inverts it."""

    # the first seven ids end in the DtN n_max each case used to request
    # (0: auto); every request already kept all the modes its mesh
    # resolves, as every block now does.  The cases after them take the
    # frequencies of OMEGAS (2 pi +- 1e-3 beside the first shear Wood
    # frequency) on three more strips.
    @pytest.mark.parametrize("nx, ny, omega", [
        (2, 3, 2.0), (3, 4, 8.0), (3, 5, 2.0), (8, 6, 2.0), (8, 12, 24.0),
        (64, 8, 8.0), (64, 12, 24.0)] + [
        (nx, ny, omega) for nx, ny in ((8, 8), (32, 32), (64, 96))
        for omega in OMEGAS],
        ids=["2-3-2.0-4", "3-4-8.0-4", "3-5-2.0-0", "8-6-2.0-16",
             "8-12-24.0-3", "64-8-8.0-0", "64-12-24.0-40"] + [
            f"{nx}-{ny}-{omega:.4f}" for nx, ny in ((8, 8), (32, 32), (64, 96))
            for omega in OMEGAS])
    def test_inverts_flat_reference(self, nx, ny, omega):
        # nx = 2 and 3 make the offsets -1 and +1 (and 0 at nx = 2) alias
        p = make_params(1.0, 1.0, omega)
        system = assemble_B(build_mesh(FLAT, 1.4, nx, ny), p)
        pre = strip_preconditioner(system)
        assert pre is not None
        for seed in range(3):
            x = _random(system.dimension, seed)
            assert _rel(pre.apply(system.matrix @ x), x) <= 1e-12

    def test_factors_read_only(self, params2):
        pre = strip_preconditioner(assemble_B(build_mesh(FLAT, 1.4, 8, 6),
                                              params2))
        for f in (pre.lower, pre.upper):
            assert not f.flags.writeable
            assert f.flags.f_contiguous
            assert f.shape == (4, 2 * 8 * 6)

    def test_zero_pivot_leaves_none(self, params2):
        # every (row 1, component 0) column zero: each symbol's first
        # column vanishes
        system = assemble_B(build_mesh(FLAT, 1.4, 8, 6), params2)
        keep = np.ones(system.dimension)
        keep[0:16:2] = 0.0
        system = replace(system, matrix=sp.csc_matrix(
            system.matrix @ sp.diags(keep)))
        assert strip_preconditioner(system) is None

    def test_entry_outside_band_leaves_none(self, params2):
        # a coupling between the first and the last row of nodes
        system = assemble_B(build_mesh(FLAT, 1.4, 8, 6), params2)
        n = system.dimension
        extra = sp.csc_matrix(([1.0 + 0j], ([0], [n - 2])), shape=(n, n))
        system = replace(system, matrix=sp.csc_matrix(system.matrix + extra))
        assert strip_preconditioner(system) is None


def _lapack_strip_solve(system, r):
    """The preconditioner's inverse times r by the LAPACK pivoted band LU
    (zgbtrf, zgbtrs) of the same symbols, in (row j, component a) order,
    unreversed: the factorization the strip preconditioner once used."""
    mesh = system.mesh
    nx, ny = mesh.nx, mesh.ny
    kl = ku = 3
    nb, rows = 2 * ny, 2 * kl + ku + 1
    a = system.matrix.tocoo()
    row, col = a.row.astype(np.int64), a.col.astype(np.int64)
    sr, sc = 2 * (row // (2 * nx)) + row % 2, 2 * (col // (2 * nx)) + col % 2
    d = (col // 2 - row // 2) % nx
    slot = (d * rows + kl + ku + sr - sc) * nb + sc
    sums = np.empty(nx * rows * nb, dtype=complex)
    sums.real = np.bincount(slot, weights=a.data.real, minlength=sums.size)
    sums.imag = np.bincount(slot, weights=a.data.imag, minlength=sums.size)
    symbols = np.fft.ifft(sums.reshape(nx, rows, nb), axis=0)
    ab = np.asfortranarray(symbols.transpose(1, 0, 2).reshape(rows, nx * nb))
    factors, pivots, info = lapack.zgbtrf(ab, kl, ku)
    assert info == 0
    rhat = np.fft.fft(np.reshape(r, (ny, nx, 2)), axis=1)
    yhat, info = lapack.zgbtrs(factors, kl, ku,
                               rhat.transpose(1, 0, 2).reshape(-1, 1), pivots)
    assert info == 0
    y = np.fft.ifft(yhat.reshape(nx, ny, 2), axis=0)
    return y.transpose(1, 0, 2).reshape(-1)


def _relative_pivot(pre) -> float:
    """The smallest pivot of the top-down elimination relative to the
    largest entry of its column at its step, 1 / max(1, |l_ic|)."""
    return 1.0 / max(1.0, float(np.max(np.abs(pre.lower[1:]))))


class TestTopDownFactors:
    """The strip symbols are factored from the DtN row down without row
    interchanges."""

    @pytest.mark.parametrize("surface", [FLAT, WAVY, SAWTOOTH],
                             ids=["flat", "cosine", "sawtooth"])
    def test_pivot_floor(self, surface):
        mesh = build_mesh(surface, 1.4, 32, 48)
        for omega in (0.5, 2.0, 2 * np.pi - 1e-3, 2 * np.pi + 1e-3, 8.0,
                      12.0, 16.75, 20.0, 24.0):
            pre = strip_preconditioner(
                assemble_B(mesh, make_params(1.0, 1.0, omega)))
            assert _relative_pivot(pre) >= 0.1, omega

    @pytest.mark.parametrize("surface, nx, ny", [
        (FLAT, 3, 4), (WAVY, 16, 24), (SAWTOOTH, 32, 48)],
        ids=["flat", "cosine", "sawtooth"])
    @pytest.mark.parametrize("omega", [2.0, 2 * np.pi + 1e-3, 16.75])
    def test_equals_pivoted_lapack_solve(self, surface, nx, ny, omega):
        system = assemble_B(build_mesh(surface, 1.4, nx, ny),
                            make_params(1.0, 1.0, omega))
        pre = strip_preconditioner(system)
        for seed in range(2):
            r = _random(system.dimension, seed)
            assert _rel(pre.apply(r), _lapack_strip_solve(system, r)) \
                <= 1e-12

    def test_non_finite_pivot_leaves_none(self, params2):
        system = assemble_B(build_mesh(FLAT, 1.4, 8, 6), params2)
        data = system.matrix.data.copy()
        data[0] = np.nan
        system = replace(system, matrix=sp.csc_matrix(
            (data, system.matrix.indices, system.matrix.indptr),
            shape=system.matrix.shape))
        assert strip_preconditioner(system) is None


class TestGmresPath:
    @pytest.mark.parametrize("f0", [FLAT, WAVY], ids=["flat", "cosine"])
    @pytest.mark.parametrize("omega", [2.0, 8.0, 24.0])
    def test_matches_lu_on_samples(self, f0, omega, source_spec,
                                   monkeypatch):
        p = make_params(1.0, 1.0, omega)
        mesh = build_mesh(f0, 1.4, 32, 48)
        system, load, sol = _captured_sample(_model(f0), source_spec, p,
                                             mesh, 1, monkeypatch)
        lu = solve(system, load)
        meta = sol.metadata
        assert meta["solver"] == "gmres"
        assert 1 <= meta["iterations"] <= (fem._GMRES_RESTART
                                           * fem._GMRES_MAX_CYCLES)
        assert meta["residual"] <= 1e-10
        assert "nnz_lu" not in meta and "factor_dtype" not in meta
        assert lu.metadata["solver"] == "lu"
        assert "iterations" not in lu.metadata
        assert _rel(sol.values, lu.values) <= 1e-11
        assert abs(meta["radiated_power"]
                   - lu.metadata["radiated_power"]) <= 1e-10

    def test_sample_without_preconditioner_takes_lu(self, source_spec,
                                                    params2):
        mesh = build_mesh(FLAT, 1.4, 24, 32)
        rec = run_sample(_model(FLAT), source_spec, params2, mesh, 1,
                         preconditioner=None)
        assert (rec["solver"], rec["iterations"]) == ("lu", 0)
        shared = run_sample(_model(FLAT), source_spec, params2, mesh, 1,
                            preconditioner=_reference_pre(mesh, params2))
        assert shared["solver"] == "gmres" and shared["iterations"] > 0
        assert shared["u_h1_sq"] == pytest.approx(rec["u_h1_sq"], rel=1e-11)


class TestReferenceSystem:
    def test_one_assembly_per_ensemble_command(self, tmp_path, monkeypatch):
        # the anchor and the preconditioner share the reference system
        calls = []
        real = montecarlo.assemble_B

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(montecarlo, "assemble_B", counting)
        monkeypatch.setattr(cli, "assemble_B", counting)
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(ENSEMBLE_CFG)
        for workers in (1, 2):
            calls.clear()
            assert cli.main(["ensemble", "--config", str(cfg), "--out",
                             str(tmp_path / f"p{workers}"), "--parallelism",
                             str(workers)]) == 0
            assert len(calls) == 1


class TestRoughSurfaces:
    """The sweep on rough surfaces, each frequency preconditioned with its
    own strip operator (an x1-average, no longer the exact inverse): GMRES
    meets the residual gate with no LU fallback."""

    @pytest.mark.parametrize("surface", [
        WAVY, SAWTOOTH],
        ids=["cosine", "sawtooth"])
    def test_sweep_takes_gmres(self, surface, bump, record_property):
        sweep = omega_sweep(SweepConfig(
            lam=1.0, mu=1.0, omegas=(2.0, 8.0, 16.0, 24.0),
            geom=Geometry(surface=surface, h=1.4), source=bump,
            nx=32, ny=48))
        iterations = [s["iterations"] for s in sweep.solves]
        record_property("gmres_iterations", iterations)
        assert [s["solver"] for s in sweep.solves] == ["gmres"] * 4
        assert all(3 <= n <= 2 * fem._GMRES_RESTART for n in iterations)


class TestFallback:
    """A GMRES solve that misses the gate ends on the unchanged LU path."""

    def _plain_and_preconditioned(self, source_spec, omega, pre):
        p = make_params(1.0, 1.0, omega)
        mesh = build_mesh(FLAT, 1.4, 32, 48)
        src = make_source(source_spec, None, f_max=0.4, h=1.4)
        system = assemble_B(mesh, p)
        load = assemble_load(mesh, src)
        return solve(system, load), solve(system, load,
                                          preconditioner=pre(mesh, p))

    def test_preconditioner_of_another_omega(self, source_spec):
        plain, sol = self._plain_and_preconditioned(
            source_spec, 24.0, lambda mesh, p: strip_preconditioner(
                assemble_B(mesh, make_params(1.0, 1.0, 2.0))))
        assert sol.metadata["solver"] == "lu"
        assert sol.metadata["iterations"] == (fem._GMRES_RESTART
                                              * fem._GMRES_MAX_CYCLES)
        assert sol.values.tobytes() == plain.values.tobytes()
        for key in ("residual", "nnz_lu", "factor_dtype",
                    "refinement_steps", "radiated_power"):
            assert sol.metadata[key] == plain.metadata[key]

    def test_one_iteration_cap(self, source_spec, monkeypatch):
        monkeypatch.setattr(fem, "_GMRES_RESTART", 1)
        monkeypatch.setattr(fem, "_GMRES_MAX_CYCLES", 1)
        plain, sol = self._plain_and_preconditioned(
            source_spec, 8.0, lambda mesh, p: strip_preconditioner(
                assemble_B(mesh, make_params(1.0, 1.0, 2.0))))
        assert (sol.metadata["solver"], sol.metadata["iterations"]) \
            == ("lu", 1)
        assert sol.values.tobytes() == plain.values.tobytes()


ENSEMBLE_CFG = """\
[physics]
omega = 8.0

[surface_model]
mode_count = 2
amplitudes = 0.02, 0.01
phases = 0.0, 1.3
M0 = 0.3
seed = 2024

[source]
jitter_center = 0.05
jitter_amplitude = 0.1
jitter_seed = 7

[discretization]
nx = 32
ny = 48

[run]
N = 4
"""


class TestDeterminism:
    def test_cli_bytes_on_gmres_path(self, tmp_path, monkeypatch):
        solvers = []
        real_solve = montecarlo.solve

        def spy(system, load, **kw):
            sol = real_solve(system, load, **kw)
            solvers.append(sol.metadata["solver"])
            return sol

        monkeypatch.setattr(montecarlo, "solve", spy)
        cfg = tmp_path / "ens.cfg"
        cfg.write_text(ENSEMBLE_CFG)
        out = {}
        for workers in (1, 2, 4):
            d = tmp_path / f"p{workers}"
            assert cli.main(["ensemble", "--config", str(cfg), "--out",
                             str(d), "--parallelism", str(workers)]) == 0
            out[workers] = (d / "ensemble.csv").read_bytes()
        assert solvers == ["gmres"] * 12
        assert out[1].count(b"\n") == 5
        assert out[1] == out[2] == out[4]

    def test_records_independent_of_blas_threads(self, openblas_at_two,
                                                 source_spec):
        p = make_params(1.0, 1.0, 8.0)
        mesh = build_mesh(FLAT, 1.4, 32, 48)
        runs = [run_ensemble(_model(FLAT), source_spec, p, mesh, 3,
                             parallelism=w).per_sample for w in (1, 2)]
        for _, set_threads in openblas_at_two:
            set_threads(1)
        runs.append(run_ensemble(_model(FLAT), source_spec, p, mesh, 3,
                                 parallelism=2).per_sample)
        assert all(r["solver"] == "gmres" for r in runs[0])
        assert runs[0] == runs[1] == runs[2]

    def test_gmres_pinned_and_counts_restored(self, openblas_at_two,
                                              source_spec, params2):
        controls = openblas_at_two
        mesh = build_mesh(FLAT, 1.4, 16, 24)
        system = assemble_B(mesh, params2)
        pre = strip_preconditioner(
            assemble_B(mesh, make_params(1.0, 1.0, 2.5)))
        seen = []

        class Recording:
            def apply(self, r):
                seen.append(_blas_threads(controls))
                return pre.apply(r)

        src = make_source(source_spec, None, f_max=0.4, h=1.4)
        sol = solve(system, assemble_load(mesh, src),
                    preconditioner=Recording())
        assert sol.metadata["solver"] == "gmres"
        assert len(seen) > 2
        assert seen == [[1] * len(controls)] * len(seen)
        assert _blas_threads(controls) == [2] * len(controls)

    @pytest.mark.parametrize("command", ["mms", "sweep-omega"])
    def test_strip_solved_commands_independent_of_blas_threads(
            self, openblas_at_two, tmp_path, command):
        # on a rough surface, where GMRES iterates
        cfg = replace(RunConfig(), command=command, f0_kind="cosine",
                      f0_amplitudes=(0.04,), f0_modes=(1,), f0_phases=(0.0,),
                      omega_list=(2.0, 8.0, 16.0))
        outs = []
        for threads in (2, 1):
            for _, set_threads in openblas_at_two:
                set_threads(threads)
            out = tmp_path / f"blas{threads}"
            assert cli.run_command(cfg, str(out)) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(outs[0]) >= 3
        assert outs[0] == outs[1]

    def test_verify_all_checks_independent_of_blas_threads(
            self, openblas_at_two, tmp_path):
        outs = []
        for threads in (2, 1):
            for _, set_threads in openblas_at_two:
                set_threads(threads)
            out = tmp_path / f"blas{threads}"
            assert cli.run_command(replace(RunConfig(),
                                           command="verify-all"),
                                   str(out)) == 0
            outs.append((out / "checks.csv").read_bytes())
        assert outs[0].count(b"\n") == 12
        assert outs[0] == outs[1]

    def test_reference_preconditioner_built_without_blas(
            self, openblas_at_two, params2):
        # the factorization runs in numpy and calls no BLAS, so its bytes
        # cannot depend on the thread setting (the apply runs inside the
        # pinned GMRES)
        system = assemble_B(build_mesh(WAVY, 1.4, 16, 24), params2)
        factors = []
        for threads in (2, 1):
            for _, set_threads in openblas_at_two:
                set_threads(threads)
            pre = strip_preconditioner(system)
            factors.append((pre.lower.tobytes(), pre.upper.tobytes()))
            assert _blas_threads(openblas_at_two) == [threads] * len(
                openblas_at_two)
        assert factors[0] == factors[1]


def _blas_threads(controls) -> list:
    return [get() for get, _ in controls]


def _default_solve(omega):
    """The default flat config at 64 x 96, source amplitude (1, 0)."""
    cfg = replace(RunConfig(), omega=omega, nx=64, ny=96)
    assert cfg.amplitude_re == (1.0, 0.0) and cfg.amplitude_im == (0.0, 0.0)
    p = cfg.make_params()
    geom = cfg.make_geometry()
    mesh = build_mesh(geom.surface, geom.h, cfg.nx, cfg.ny)
    src = cfg.make_source()
    return solve(assemble_B(mesh, p),
                 assemble_load(mesh, src))


class TestRadiatedPower:
    @pytest.mark.parametrize("omega, expected", [(2.0, 0.80), (8.0, 0.43),
                                                 (16.0, 0.76)])
    def test_positive_with_the_dtn(self, omega, expected):
        rp = _default_solve(omega).metadata["radiated_power"]
        assert rp == pytest.approx(expected, abs=0.01)

    def test_zero_without_the_dtn(self, monkeypatch):
        def no_block(*args):                      # and so no Im A
            block, u, lam = fem_dtn_block(*args)
            return np.zeros_like(block), u[:, :0], lam[:0]

        fem_dtn_block = fem._dtn_block
        monkeypatch.setattr(fem, "_dtn_block", no_block)
        assert abs(_default_solve(8.0).metadata["radiated_power"]) <= 1e-12

    def test_negative_with_incoming_dtn(self, monkeypatch):
        def incoming(*args):                      # Im A changes sign
            block, u, lam = fem_dtn_block(*args)
            return np.conj(block), u, -lam

        fem_dtn_block = fem._dtn_block
        monkeypatch.setattr(fem, "_dtn_block", incoming)
        for omega in (2.0, 8.0):
            assert _default_solve(omega).metadata["radiated_power"] < -0.1

    def test_not_recorded_for_zero_load(self, params2):
        system = assemble_B(build_mesh(FLAT, 1.4, 8, 6), params2)
        sol = solve(system, np.zeros(system.dimension))
        assert "radiated_power" not in sol.metadata
