"""Mesh construction, element integrals, assembly, DtN block, solve, norms."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg as spla

from elastodtn import fem
from elastodtn import mesh as mesh_module
from elastodtn.dtn import symbol_matrices
from elastodtn.errors import MeshError, SolveError
from elastodtn.fem import (
    FieldSolution,
    assemble_B,
    assemble_B_transformed,
    assemble_load,
    assemble_load_transformed,
    free_vector,
    map_quadrature,
    norms,
    solve,
    trace_coefficients,
)
from elastodtn.mesh import (
    DEGREE5_RULE,
    DofPattern,
    P1Operators,
    Quadrature,
    _index_dtype,
    _read_only,
    build_mesh,
)
from elastodtn.model import (
    DomainMap,
    RandomSurfaceModel,
    SourceField,
    SourceSpec,
    cosine_surface,
    flat_surface,
    make_cutoff,
    make_params,
    make_source,
    sample_surface,
    sawtooth_surface,
)


def _stiffness_and_mass(gij, mm, lam, mu):
    """Reference element (stiffness, mass), shape (nt, 6, 6), from the
    gradient products gij (nt, 6, 6) and the scalar mass blocks mm
    (3, 3, nt): the pair the assembly combines into k - omega^2 m."""
    nt = gij.shape[0]
    k = (lam + mu) * gij.reshape(nt, 3, 2, 3, 2)
    gg = gij[:, 0::2, 0::2] + gij[:, 1::2, 1::2]      # grad_i . grad_j
    m = np.zeros((nt, 3, 2, 3, 2))
    for a in range(2):
        k[:, :, a, :, a] += mu * gg
        m[:, :, a, :, a] = mm.transpose(2, 0, 1)
    return k.reshape(nt, 6, 6), m.reshape(nt, 6, 6)


def _gradient_products(grads, moments):
    """gij (nt, 6, 6) = sum_q w G_i[a] G_j[b] at [2i + a, 2j + b] from the
    six moments (6, nt) of the assembly, formed triangle by triangle: the
    operation order of each entry the assembly keeps."""
    nt = grads.shape[0]
    m1, m12, m22, m1212, m1222, m2222 = moments[:, :, None, None]
    gx, gy = grads[..., 0], grads[..., 1]
    xx = gx[:, :, None] * gx[:, None, :]
    xy = gx[:, :, None] * gy[:, None, :]
    yy = gy[:, :, None] * gy[:, None, :]
    gij = np.empty((nt, 3, 2, 3, 2))
    gij[:, :, 0, :, 0] = m1 * xx + m12 * (xy + xy.transpose(0, 2, 1)) \
        + m1212 * yy
    gij[:, :, 0, :, 1] = m22 * xy + m1222 * yy
    gij[:, :, 1, :, 0] = gij[:, :, 0, :, 1].transpose(0, 2, 1)
    gij[:, :, 1, :, 1] = m2222 * yy
    return gij.reshape(nt, 6, 6)


def _moments_of(quad_or_mq):
    """(grads, moments, mm) the assembly forms its entries from: the exact
    plain moments of a `Quadrature`, or the moments of a mapped rule."""
    if isinstance(quad_or_mq, Quadrature):
        (m1, m22, m2222), mm = fem._plain_moments(quad_or_mq)
        zero = np.zeros_like(m1)
        return (quad_or_mq.grads,
                np.stack([m1, zero, m22, zero, zero, m2222]), mm)
    return (quad_or_mq.quad.grads, *quad_or_mq.moments)


def element_matrices(quad, lam, mu):
    """(stiffness, mass) of the plain form from the assembly's moments."""
    grads, moments, mm = _moments_of(quad)
    return _stiffness_and_mass(_gradient_products(grads, moments), mm,
                               lam, mu)


def transformed_element_matrices(mq, lam, mu):
    """(stiffness, mass) of the pulled-back form from the assembly's
    moments."""
    grads, moments, mm = _moments_of(mq)
    return _stiffness_and_mass(_gradient_products(grads, moments), mm,
                               lam, mu)


def _combined(k, m, omega):
    """k - omega^2 m formed as the assembly once did: -omega^2 m, plus k."""
    out = m * -omega ** 2
    out += k
    return out


class TestMesh:
    def test_counting_example(self):
        mesh = build_mesh(flat_surface(0.5, 0.4, 0.6, 1.0), 1.5, 2, 2)
        assert mesh.n_nodes == 6
        assert mesh.triangles.shape == (8, 3)
        assert mesh.free_nodes.size == 4

    def test_sawtooth_positive_areas(self):
        surf = sawtooth_surface(0.5, 0.125, 0.3, 0.7, 1.0)  # L = 0.5
        mesh = build_mesh(surf, 1.5, 16, 12)
        assert np.all(mesh.areas() > 0.0)

    def test_boundary_node_heights_exact(self):
        surf = sawtooth_surface(0.5, 0.125, 0.3, 0.7, 1.0)
        mesh = build_mesh(surf, 1.5, 16, 12)
        x1 = mesh.nodes[mesh.surface_nodes, 0]
        assert np.array_equal(mesh.nodes[mesh.surface_nodes, 1], surf.f(x1))
        assert np.all(mesh.nodes[mesh.top_nodes, 1] == 1.5)

    def test_top_nodes_equispaced(self):
        mesh = build_mesh(flat_surface(0.5, 0.4, 0.6, 2.0), 1.5, 8, 4)
        x1 = mesh.nodes[mesh.top_nodes, 0]
        assert np.allclose(np.diff(x1), 0.25)

    def test_degenerate_params_rejected(self):
        surf = flat_surface(0.5, 0.4, 0.6, 1.0)
        with pytest.raises(MeshError):
            build_mesh(surf, 1.5, 1, 4)
        with pytest.raises(MeshError):
            build_mesh(surf, 0.55, 4, 4)

    def test_dump_format(self):
        mesh = build_mesh(flat_surface(0.5, 0.4, 0.6, 1.0), 1.5, 2, 2)
        lines = mesh.dump().splitlines()
        kinds = {ln.split("\t")[0] for ln in lines}
        assert kinds == {"node", "tri", "edge"}
        assert sum(ln.startswith("node\t") for ln in lines) == 6
        assert sum(ln.startswith("tri\t") for ln in lines) == 8
        assert any("PERIODIC_PAIR" in ln for ln in lines)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (24, 16), (128, 192)])
    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_node_text_equals_per_node_repr(self, flat_geom, wavy_geom,
                                            kind, nx, ny):
        geom = flat_geom if kind == "flat" else wavy_geom
        mesh = build_mesh(geom.surface, geom.h, nx, ny)
        expect = list(map(repr, mesh.nodes.ravel().tolist()))
        text = mesh.node_text()
        assert text.shape == mesh.nodes.shape
        assert text.ravel().tolist() == expect


def _monomial_integral(verts, a: int, b: int) -> Fraction:
    """Exact int_T x^a y^b over a triangle with rational vertices, via
    x = x0 + (x1-x0) s + (x2-x0) t and int s^i t^j = i! j! / (i+j+2)!."""
    (x0, y0), (x1, y1), (x2, y2) = verts

    def mul(poly, c0, c1, c2):
        out = {}
        for (i, j), c in poly.items():
            for (di, dj), d in (((0, 0), c0), ((1, 0), c1 - c0),
                                ((0, 1), c2 - c0)):
                out[i + di, j + dj] = out.get((i + di, j + dj), 0) + c * d
        return out

    poly = {(0, 0): Fraction(1)}
    for _ in range(a):
        poly = mul(poly, x0, x1, x2)
    for _ in range(b):
        poly = mul(poly, y0, y1, y2)
    jac = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    return jac * sum(c * Fraction(math.factorial(i) * math.factorial(j),
                                  math.factorial(i + j + 2))
                     for (i, j), c in poly.items())


class TestQuadrature:
    def test_weights_sum_to_one(self):
        assert float(np.sum(DEGREE5_RULE[1])) == pytest.approx(1.0, abs=1e-15)

    def test_degree5_monomials_exact_on_skewed_triangle(self):
        # dyadic vertices, so the float coordinates equal the rationals
        verts = [(Fraction(1, 4), Fraction(-1, 2)), (Fraction(2), Fraction(3, 8)),
                 (Fraction(3, 4), Fraction(5, 4))]
        quad = Quadrature.from_coords(
            np.array([[[float(x), float(y)] for x, y in verts]]))
        x, y = quad.points[..., 0], quad.points[..., 1]
        for a in range(6):
            for b in range(6 - a):
                exact = float(_monomial_integral(verts, a, b))
                got = float(quad.integral(x ** a * y ** b))
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-15), (a, b)


    def test_rule_built_on_first_use_from_the_mesh_coords(self, wavy_geom):
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 12, 8)
        quad = mesh.quadrature
        assert quad.coords is mesh.tri_coords
        assert "_points" not in vars(quad) and "_weights" not in vars(quad)
        bary, wts = DEGREE5_RULE
        assert _same_bits(quad.points, bary @ mesh.tri_coords)
        assert _same_bits(quad.weights, wts[None, :] * quad.area[:, None])
        assert quad.points is quad.points and quad.weights is quad.weights

    def test_take_on_unbuilt_rule_equals_full_rows(self, wavy_geom):
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 24, 16)
        full = build_mesh(wavy_geom.surface, wavy_geom.h, 24, 16).quadrature
        nt = mesh.triangles.shape[0]
        gen = np.random.default_rng(7)
        for elems in (np.arange(nt), gen.choice(nt, 37, replace=False),
                      np.array([nt - 1, 0, 5, 5]), np.array([], dtype=int),
                      np.arange(3, nt, 11)):
            for rule in (mesh.quadrature, full):   # unbuilt, then built
                part = rule.take(elems)
                assert _same_bits(part.points, full.points[elems])
                assert _same_bits(part.weights, full.weights[elems])
                assert _same_bits(part.area, full.area[elems])
                assert _same_bits(part.grads, full.grads[elems])
            assert "_points" not in vars(mesh.quadrature)
            assert "_weights" not in vars(mesh.quadrature)

    def test_abscissae_of_unbuilt_points_built_once(self, flat_geom,
                                                    monkeypatch):
        # the abscissae build makes the points on first use, a build
        # inside a build: each runs once, and no thread waits on itself
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 8)
        quad = mesh.quadrature
        assert "_points" not in vars(quad)
        built = []
        built_once = mesh_module._built_once

        def counting(owner, name, build):
            def counted():
                built.append(name)
                return build()
            return built_once(owner, name, counted)

        monkeypatch.setattr(mesh_module, "_built_once", counting)
        calls, seen, _ = _race_first_use(
            monkeypatch, np, "unique", lambda: quad.abscissae)
        assert len(calls) == 1 and built == ["_abscissae", "_points"]
        assert len(seen) == 4 and all(a is seen[0] for a in seen)
        xs, inverse = seen[0]
        assert _same_bits(xs[inverse], quad.points[..., 0])


def _same_bits(a, b) -> bool:
    """a and b hold the same values bit for bit (zeros' signs included)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


class TestElementMatrices:
    def test_stiffness_matches_symbolic_integration(self):
        import sympy as sp
        x, y = sp.symbols("x y")
        phi = [1 - x - y, x, y]
        lam = mu = 1.0
        expect = np.zeros((6, 6))
        for i in range(3):
            for a in range(2):
                for j in range(3):
                    for b in range(2):
                        gi = [sp.diff(phi[i], x), sp.diff(phi[i], y)]
                        gj = [sp.diff(phi[j], x), sp.diff(phi[j], y)]
                        term = (lam + mu) * gi[a] * gj[b]
                        if a == b:
                            term += mu * (gi[0] * gj[0] + gi[1] * gj[1])
                        val = sp.integrate(sp.integrate(term, (y, 0, 1 - x)),
                                           (x, 0, 1))
                        expect[2 * i + a, 2 * j + b] = float(val)
        coords = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        k, m = element_matrices(Quadrature.from_coords(coords), 1.0, 1.0)
        assert np.max(np.abs(k[0] - expect)) < 1e-14
        # scalar mass block: area/6 diagonal, area/12 off-diagonal
        assert m[0, 0, 0] == pytest.approx(0.5 / 6)
        assert m[0, 0, 2] == pytest.approx(0.5 / 12)
        assert m[0, 0, 1] == 0.0

    def test_translation_invariance(self):
        coords = np.array([[[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]])
        shifted = coords + np.array([2.0, -1.0])
        k1, m1 = element_matrices(Quadrature.from_coords(coords), 1.3, 0.8)
        k2, m2 = element_matrices(Quadrature.from_coords(shifted), 1.3, 0.8)
        assert np.allclose(k1, k2, atol=1e-13)
        assert np.allclose(m1, m2, atol=1e-14)

    def test_closed_forms_equal_degree5_quadrature(self):
        # the degree-5 rule must reproduce both the (constant-integrand)
        # stiffness and the (quadratic) mass exactly
        bary, _ = DEGREE5_RULE
        coords = np.array([[[0.2, 0.1], [1.1, 0.3], [0.4, 1.2]]])
        lam, mu = 1.7, 0.6
        quad = Quadrature.from_coords(coords)
        grads = quad.grads
        k_q = np.zeros((3, 2, 3, 2))
        m_q = np.zeros((3, 2, 3, 2))
        for q, w in enumerate(quad.weights[0]):
            phi = bary[q]
            for i in range(3):
                for a in range(2):
                    for j in range(3):
                        for b in range(2):
                            val = (lam + mu) * grads[0, i, a] * grads[0, j, b]
                            if a == b:
                                val += mu * float(grads[0, i] @ grads[0, j])
                                m_q[i, a, j, b] += w * phi[i] * phi[j]
                            k_q[i, a, j, b] += w * val
        k, m = element_matrices(quad, lam, mu)
        assert np.allclose(k[0], k_q.reshape(6, 6), atol=1e-13)
        assert np.allclose(m[0], m_q.reshape(6, 6), atol=1e-14)


# 2 pi and 4 pi are Rayleigh-Wood frequencies (xi_n = k_s for n = 1, 2;
# 2 pi +- 1e-3 straddle the first), and at 2 pi sqrt(3) xi_1 = k_p
BRANCH_OMEGAS = [2.0, 8.0, 2 * math.pi, 2 * math.pi - 1e-3,
                 2 * math.pi + 1e-3, 2 * math.sqrt(3.0) * math.pi,
                 4 * math.pi, 16.0]


class TestAssembly:
    def test_domain_block_conjugate_symmetric(self, flat_geom, params2):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 16)
        a = _domain_part(mesh, params2)
        assert abs(a - a.conj().T).max() < 1e-12 * abs(a).max()

    @pytest.mark.parametrize("mapped", [False, True])
    def test_domain_part_bitwise_symmetric(self, wavy_geom, surface_model,
                                           mapped):
        # entries (r, c) and (c, r) sum mirrored element entries of the
        # same triangles in the same order
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 24, 16)
        p = make_params(1.0, 1.0, 8.0)
        if mapped:
            model = dataclasses.replace(surface_model, f0=wavy_geom.surface)
            system = assemble_B_transformed(
                mesh, p, _sampled_map_quadrature(wavy_geom, model, mesh))
        else:
            system = assemble_B(mesh, p)
        a = system.matrix.copy()
        a.data[mesh.pattern.dtn_slots] = 0.0
        assert (a != a.T).nnz == 0

    def test_elastostatic_limit_positive_energy(self, flat_geom):
        p = make_params(1.0, 1.0, 1e-3)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 16)
        a = assemble_B(mesh, p).matrix
        gen = np.random.default_rng(3)
        for _ in range(10):
            v = gen.standard_normal(a.shape[0]) \
                + 1j * gen.standard_normal(a.shape[0])
            assert float(np.real(np.vdot(v, a @ v))) > 0.0

    def test_identity_map_equivalence(self, flat_geom, params2):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 20)
        f0 = flat_geom.surface
        ident = DomainMap(f0=f0, f_eta=f0, cutoff=make_cutoff(0.1, 1.1))
        sys_a = assemble_B(mesh, params2)
        sys_b = assemble_B_transformed(
            mesh, params2, map_quadrature(mesh.quadrature, ident))
        a, b = sys_a.matrix, sys_b.matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.max(np.abs(a.data - b.data)) <= 1e-15 * np.max(
            np.abs(a.data))
        assert sys_a.n_max == sys_b.n_max    # so the same DtN block

    def test_flat_shift_element_against_hand_factors(self):
        # map factors inside the ramp band: J1 = 0, J2 = -delta_f * slope
        f0 = flat_surface(0.4, 0.0, 1.0, 1.0)
        f1 = flat_surface(0.6, 0.0, 1.0, 1.0)
        cutoff = make_cutoff(0.2, 2.0)
        dmap = DomainMap(f0=f0, f_eta=f1, cutoff=cutoff)
        coords = np.array([[[0.1, 1.0], [0.2, 1.0], [0.1, 1.1]]])  # in band
        quad = Quadrature.from_coords(coords)
        lam = mu = 1.0
        k, m = transformed_element_matrices(map_quadrature(quad, dmap),
                                            lam, mu)
        j2 = -0.2 / 1.7
        d = 1.0 + j2
        grads = np.array([[-10.0, -10.0], [10.0, 0.0], [0.0, 10.0]])
        area = 0.005
        expect_k = np.zeros((6, 6))
        for i in range(3):
            for a in range(2):
                for j in range(3):
                    for b in range(2):
                        gi = np.array([grads[i, 0], grads[i, 1] / d])
                        gj = np.array([grads[j, 0], grads[j, 1] / d])
                        val = (lam + mu) * gi[a] * gj[b]
                        if a == b:
                            val += mu * float(gi @ gj)
                        expect_k[2 * i + a, 2 * j + b] = val * area * d
        assert np.max(np.abs(k[0] - expect_k)) < 1e-12
        # mass block scales by det J
        _, m_plain = element_matrices(quad, lam, mu)
        assert np.allclose(m[0], d * m_plain[0], atol=1e-15)

    @pytest.mark.parametrize("omega", BRANCH_OMEGAS)
    @pytest.mark.parametrize("mapped", [False, True])
    def test_system_structure(self, flat_geom, surface_model, omega, mapped):
        _assert_system_structure(flat_geom, surface_model, 24, 16, omega,
                                 mapped)

    @pytest.mark.parametrize("omega", BRANCH_OMEGAS)
    @pytest.mark.parametrize("mapped", [False, True])
    def test_wavy_system_structure(self, wavy_geom, surface_model, omega,
                                   mapped):
        model = dataclasses.replace(surface_model, f0=wavy_geom.surface)
        _assert_system_structure(wavy_geom, model, 24, 16, omega, mapped)

    # random meshes and frequencies (test_system_structure has the fixed
    # grid); k_s = omega and k_p = omega / sqrt(3) meet xi_n = 2 pi n at
    # the Rayleigh-Wood values
    @given(nx=st.integers(4, 40), ny=st.integers(2, 24),
           omega=st.one_of(
               st.sampled_from([2 * math.pi, 4 * math.pi, 6 * math.pi,
                                2 * math.sqrt(3.0) * math.pi]),
               st.floats(0.25, 20.0)),
           mapped=st.booleans())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_system_structure_property(self, flat_geom, surface_model, nx,
                                       ny, omega, mapped):
        _assert_system_structure(flat_geom, surface_model, nx, ny, omega,
                                 mapped)

    def test_dtn_block_equals_per_mode_kron_sum(self, flat_geom):
        # reference: the mode-by-mode Kronecker sum the block realizes,
        # over every mode the 128 top nodes resolve; the vectorized sum
        # only reorders floating-point additions
        p = make_params(1.0, 1.0, 8.0)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 128, 4)
        n_max = assemble_B(mesh, p).n_max
        assert n_max == 63
        xk = mesh.nodes[mesh.top_nodes, 0]
        expect = np.zeros((2 * mesh.nx, 2 * mesh.nx), dtype=complex)
        for n in range(-n_max, n_max + 1):
            xi = 2.0 * math.pi * n / mesh.period
            beta = (math.sin(math.pi * n / mesh.nx) / (math.pi * n / mesh.nx)
                    ) ** 2 if n else 1.0
            w = np.exp(1j * xi * xk)
            outer = np.outer(w, np.conj(w)) * (mesh.period * beta ** 2
                                               / mesh.nx ** 2)
            expect += np.kron(outer, symbol_matrices(xi, p))
        block, _, _ = fem._dtn_block(mesh, p, n_max)
        assert np.max(np.abs(block - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_dtn_block_built_once_per_mesh_and_params(
            self, flat_geom, surface_model, monkeypatch):
        # the map fixes the top line, so the reference system and every
        # sample on one mesh share one read-only block
        calls = []
        real = fem.symbol_matrices
        monkeypatch.setattr(fem, "symbol_matrices",
                            lambda *a: calls.append(1) or real(*a))
        p = make_params(1.0, 1.0, 8.0)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 12)
        ref = assemble_B(mesh, p)
        gap = flat_geom.h - flat_geom.surface.sup()
        for index in range(4):
            dmap = DomainMap(f0=flat_geom.surface,
                             f_eta=sample_surface(surface_model, index),
                             cutoff=make_cutoff(gap / 8.0, gap))
            assemble_B_transformed(mesh, p,
                                   map_quadrature(mesh.quadrature, dmap))
        assert len(calls) == 1
        built = mesh.__dict__[("_dtn_block", p)]
        assert ref.imag_split == built[1:]
        for got, expect in zip(built, fem._dtn_block(mesh, p, ref.n_max)):
            assert not got.flags.writeable
            assert got.tobytes() == expect.tobytes()
        assemble_B(mesh, make_params(1.0, 1.0, 2.0))
        assert len(calls) == 3

    def test_dtn_block_touches_only_top_dofs(self, flat_geom, params2):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 6)
        system = assemble_B(mesh, params2)
        entries = fem._element_entries(*_moments_of(mesh.quadrature),
                                       params2)
        domain = _scatter(_pattern_from_topology(mesh), entries)
        full = (domain - system.matrix).toarray()
        mask = np.zeros(system.dimension, dtype=bool)
        mask[mesh.pattern.top_dofs] = True
        assert np.all(full[~mask, :] == 0.0)
        assert np.all(full[:, ~mask] == 0.0)
        assert np.any(full[np.ix_(mask, mask)] != 0.0)

    def test_default_block_keeps_every_resolved_mode(self):
        # a source disk whose top is 0.06 below the top line: 8 modes (what
        # a frequency-only rule kept at omega 2) leave a relative H1 error
        # of about 6e-6 against the 15 modes that nx = 32 resolves, which
        # the assembled block keeps
        p = make_params(1.0, 1.0, 2.0)
        mesh = build_mesh(flat_surface(0.3, 0.2, 0.4, 1.0), 0.6, 32, 24)
        src = make_source(SourceSpec(center=(0.5, 0.49), radius=0.05,
                                     amplitude=(1.0, 0.5j)),
                          None, f_max=0.4, h=0.6)
        load = assemble_load(mesh, src)
        system = assemble_B(mesh, p)
        assert system.n_max == mesh_module.nyquist_index(32) == 15
        # the same system with the block of |n| <= 8 in its slots
        truncated = system.matrix.copy()
        truncated.data[mesh.pattern.dtn_slots] += (
            fem._dtn_block(mesh, p, 15)[0] - fem._dtn_block(mesh, p, 8)[0])
        h1 = solve(system, load).norms["h1"]
        h1_8 = solve(dataclasses.replace(system, matrix=truncated, n_max=8),
                     load).norms["h1"]
        assert abs(h1_8 - h1) > 1e-7 * h1

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 2), (2, 5), (4, 3),
                                        (24, 16), (64, 96)])
    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_matrix_equals_csr_minus_coo_oracle(self, flat_geom, wavy_geom,
                                                kind, nx, ny):
        # the exact P1 entries by einsum, in another operation order than
        # the moments: equal to 1e-15 of the largest entry
        geom = flat_geom if kind == "flat" else wavy_geom
        p = make_params(1.0, 1.0, 8.0)
        mesh = build_mesh(geom.surface, geom.h, nx, ny)
        system = assemble_B(mesh, p)
        _assert_same_csc(system.matrix,
                         _csr_minus_coo_oracle(system, _domain_part(mesh, p)),
                         rtol=1e-15)

    def test_transformed_matrix_equals_csr_minus_coo_oracle(
            self, flat_geom, surface_model):
        p = make_params(1.0, 1.0, 8.0)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 24, 16)
        mq = _sampled_map_quadrature(flat_geom, surface_model, mesh)
        system = assemble_B_transformed(mesh, p, mq)
        # bitwise: the entries from the moments in the assembly's order
        k, m = transformed_element_matrices(mq, p.lam, p.mu)
        domain = _scatter(_pattern_from_topology(mesh),
                          _combined(k, m, p.omega))
        _assert_same_csc(system.matrix, _csr_minus_coo_oracle(system, domain))
        # the three-operand einsum rule: to 1e-15 of the largest entry
        _assert_same_csc(system.matrix,
                         _csr_minus_coo_oracle(system,
                                               _domain_part(mesh, p, mq)),
                         rtol=1e-15)

    @pytest.mark.parametrize("nx, ny, nnz", [(128, 192, 750_080),
                                             (64, 96, 186_624),
                                             (32, 48, 46_208)])
    def test_benchmark_configs_nnz(self, nx, ny, nnz):
        # the solve-49k, ensemble-12k and verify-battery meshes: the union
        # of the triangles' couplings and the top clique
        pat = DofPattern.for_strip(nx, ny)
        assert pat.indices.size == pat.indptr[-1] == nnz


def _scatter(pat, elem):
    """The complex CSC matrix of the pattern `pat` holding the element
    entries elem (nt, 36 or 6, 6) summed at its slots (the surface entries
    dropped); slots no triangle reaches hold zero."""
    data = fem._sum_at(pat.slots, np.asarray(elem).reshape(-1, 36),
                       pat.indices.size).astype(complex)
    return sp.csc_matrix((data, pat.indices, pat.indptr),
                         shape=(pat.n_dofs, pat.n_dofs))


def _domain_part(mesh, p, mq=None):
    """The CSC domain matrix (stiffness - omega^2 mass) of assemble_B, or
    of the form pulled back through mq: the einsum element matrices summed
    through the topology oracle's pattern."""
    k, m = (_einsum_plain_element_matrices(mesh.quadrature, p.lam, p.mu)
            if mq is None else _einsum_element_matrices(mq, p.lam, p.mu))
    return _scatter(_pattern_from_topology(mesh), _combined(k, m, p.omega))


def _csr_minus_coo_oracle(system, domain):
    """The system matrix built the way it was before the assembly wrote
    the DtN block into fixed slots: the CSR domain part minus the DtN block
    as COO, converted to CSC."""
    mesh = system.mesh
    top = mesh.pattern.top_dofs
    block, _, _ = fem._dtn_block(mesh, system.params, system.n_max)
    dtn = sp.coo_matrix((block.ravel(),
                         (np.repeat(top, top.size), np.tile(top, top.size))),
                        shape=(system.dimension, system.dimension))
    return (domain.tocsr() - dtn).tocsc()


def _assert_same_csc(a, b, rtol=0.0):
    """Same CSC structure, and data equal (bitwise at rtol 0) to rtol of
    the largest entry."""
    assert a.format == b.format == "csc" and a.shape == b.shape
    for name in ("indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if rtol == 0.0:
        assert np.array_equal(a.data, b.data)
    else:
        assert np.max(np.abs(a.data - b.data)) <= rtol * np.max(
            np.abs(b.data))


def _imag_rank(p, n_max: int, period: float) -> int:
    """The rank of Im A: 2 for mode 0, plus 2 for each n in 1..n_max with
    xi_n < k_s and 2 more for each with xi_n < k_p."""
    xis = 2.0 * math.pi * np.arange(1, n_max + 1) / period
    return int(2 + 2 * np.sum(xis < p.k_s) + 2 * np.sum(xis < p.k_p))


def _assert_system_structure(geom, model, nx, ny, omega, mapped):
    """The assembled system is complex-symmetric and the Im part of its DtN
    block is positive semidefinite (outgoing energy flux), for the plain
    form or the form pulled back through a sampled map.

    Im A is zero off the top x top block, has the rank `_imag_rank`
    there, and Re A + U diag(i lam) U^T (the system's `imag_split`, which
    the float32 solve corrects for) reproduces A."""
    p = make_params(1.0, 1.0, omega)
    mesh = build_mesh(geom.surface, geom.h, nx, ny)
    if mapped:
        gap = geom.h - geom.surface.sup()
        dmap = DomainMap(f0=geom.surface, f_eta=sample_surface(model, 0),
                         cutoff=make_cutoff(gap / 8.0, gap))
        system = assemble_B_transformed(
            mesh, p, map_quadrature(mesh.quadrature, dmap))
    else:
        system = assemble_B(mesh, p)
    a = system.matrix
    assert abs(a - a.T).max() <= 1e-14 * abs(a).max()
    b, _, _ = fem._dtn_block(mesh, p, system.n_max)
    eigs = np.linalg.eigvalsh((b - b.conj().T) / 2j)
    assert eigs.min() >= -1e-12 * eigs.max()

    top = mesh.pattern.top_dofs
    in_top = np.zeros(system.dimension, dtype=bool)
    in_top[top] = True
    coo = a.tocoo()
    assert np.all(coo.data.imag[~(in_top[coo.row] & in_top[coo.col])] == 0.0)
    u, lam = system.imag_split
    assert lam.size == _imag_rank(p, system.n_max, mesh.period)
    assert np.allclose(u.T @ u, np.eye(lam.size), rtol=0.0, atol=1e-14)
    block = a[top][:, top].toarray()
    split = block.real + 1j * (u * lam) @ u.T
    assert np.max(np.abs(split - block)) <= 1e-14 * np.max(np.abs(block))


def _sampled_map_quadrature(geom, model, mesh):
    gap = geom.h - geom.surface.sup()
    dmap = DomainMap(f0=geom.surface, f_eta=sample_surface(model, 0),
                     cutoff=make_cutoff(gap / 8.0, gap))
    return map_quadrature(mesh.quadrature, dmap)


def _einsum_element_matrices(mq, lam, mu):
    """Reference: transformed element matrices by three-operand einsums."""
    bary, _ = DEGREE5_RULE
    g = mq.physical_gradient(mq.quad.grads[:, None])    # (nt, 7, 3, 2)
    w = mq.weights
    nt = w.shape[0]
    gg = np.einsum("tq,tqia,tqja->tij", w, g, g)
    k = (lam + mu) * np.einsum("tq,tqia,tqjb->tiajb", w, g, g)
    mm = np.einsum("tq,qi,qj->tij", w, bary, bary)
    m = np.zeros((nt, 3, 2, 3, 2))
    for a in range(2):
        k[:, :, a, :, a] += mu * gg
        m[:, :, a, :, a] = mm
    return k.reshape(nt, 6, 6), m.reshape(nt, 6, 6)


def _einsum_plain_element_matrices(quad, lam, mu):
    """Reference: plain element matrices by two-operand einsum outer
    products scaled by the area."""
    area, g = quad.area, quad.grads
    nt = area.shape[0]
    gg = np.einsum("tia,tja->tij", g, g)
    k = np.zeros((nt, 3, 2, 3, 2))
    for a in range(2):
        k[:, :, a, :, a] += mu * gg
    k += (lam + mu) * np.einsum("tia,tjb->tiajb", g, g)
    k *= area[:, None, None, None, None]
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m = np.zeros((nt, 3, 2, 3, 2))
    for a in range(2):
        m[:, :, a, :, a] = area[:, None, None] * m_scalar
    return k.reshape(nt, 6, 6), m.reshape(nt, 6, 6)


def _sampled_element_array(geom, model, mesh):
    """k - 8^2 m of the form pulled back through a sampled map."""
    k, m = transformed_element_matrices(
        _sampled_map_quadrature(geom, model, mesh), 1.0, 1.0)
    return k - 8.0 ** 2 * m


def _coo_oracle(mesh, elem):
    """The free-dof COO matrix of the element entries, surface dofs
    dropped."""
    dofs = _reference_dofs(mesh)
    rows = np.repeat(dofs[:, :, None], 6, axis=2)
    cols = np.repeat(dofs[:, None, :], 6, axis=1)
    keep = (rows >= 0) & (cols >= 0)
    n = 2 * mesh.free_nodes.size
    return sp.coo_matrix((elem[keep], (rows[keep], cols[keep])),
                         shape=(n, n))


def _triangle_part(mesh, a):
    """a on the mesh's pattern without the top clique's entries that no
    triangle reaches."""
    slots = mesh.pattern.slots
    keep = np.zeros(a.nnz + 2, dtype=bool)
    keep[slots] = True
    keep = keep[:a.nnz]
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    return sp.csc_matrix((a.data[keep], (a.indices[keep], cols[keep])),
                         shape=a.shape)


def _reference_dofs(mesh):
    """(nt, 6) free-vector dof of local dof 2i + a, -1 on surface nodes."""
    pos = -np.ones(mesh.n_nodes, dtype=np.int64)
    pos[mesh.free_nodes] = np.arange(mesh.free_nodes.size)
    p = pos[mesh.triangles]
    dofs = np.stack([2 * p, 2 * p + 1], axis=-1).reshape(-1, 6)
    return np.where(np.repeat(p, 2, axis=1) >= 0, dofs, -1)


def _rel_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestAssemblyPattern:
    """The mesh's assembly pattern and the matmul kernels against their
    element-by-element references on a sampled (non-affine) map."""

    @pytest.fixture
    def mesh(self, flat_geom):
        return build_mesh(flat_geom.surface, flat_geom.h, 24, 16)

    def test_matmul_element_matrices_equal_einsum(self, flat_geom,
                                                  surface_model, mesh):
        mq = _sampled_map_quadrature(flat_geom, surface_model, mesh)
        k, m = transformed_element_matrices(mq, 1.3, 0.7)
        k_ref, m_ref = _einsum_element_matrices(mq, 1.3, 0.7)
        assert _rel_gap(k, k_ref) <= 1e-14
        assert _rel_gap(m, m_ref) <= 1e-14

    def test_matmul_plain_element_matrices_equal_einsum(self, wavy_geom):
        quad = build_mesh(wavy_geom.surface, wavy_geom.h, 24, 16).quadrature
        k, m = element_matrices(quad, 1.3, 0.7)
        k_ref, m_ref = _einsum_plain_element_matrices(quad, 1.3, 0.7)
        assert _rel_gap(k, k_ref) <= 1e-14
        assert _rel_gap(m, m_ref) <= 1e-14

    def test_scatter_equals_coo_to_csr(self, flat_geom, surface_model,
                                       mesh):
        elem = _sampled_element_array(flat_geom, surface_model, mesh)
        ref = _coo_oracle(mesh, elem).tocsr()
        a = _triangle_part(mesh, _scatter(mesh.pattern, elem)).tocsr()
        assert a.shape == ref.shape
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert _rel_gap(a.data, ref.data) <= 1e-14

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 2), (24, 16)])
    def test_scatter_equals_coo_to_csc(self, flat_geom, surface_model, nx,
                                       ny):
        # a non-symmetric element array, so a transposed slot would show
        mesh = build_mesh(flat_geom.surface, flat_geom.h, nx, ny)
        elem = _sampled_element_array(flat_geom, surface_model, mesh)
        elem = elem + np.arange(36.0).reshape(6, 6) * 1e-3
        ref = _coo_oracle(mesh, elem).tocsc()
        a = _triangle_part(mesh, _scatter(mesh.pattern, elem))
        assert a.format == "csc" and a.shape == ref.shape
        assert np.array_equal(a.indptr, ref.indptr)
        assert np.array_equal(a.indices, ref.indices)
        assert _rel_gap(a.data, ref.data) <= 1e-14

    @pytest.mark.parametrize("omega", [0.0, 2.0, 8.0, 4 * math.pi])
    @pytest.mark.parametrize("mapped", [False, True])
    def test_element_array_equals_stiffness_minus_mass(
            self, flat_geom, surface_model, mesh, omega, mapped):
        # one array, bitwise the (k, m) pair of the moments, formed
        # triangle by triangle, combined; k itself at omega 0
        grads, moments, mm = _moments_of(
            _sampled_map_quadrature(flat_geom, surface_model, mesh)
            if mapped else mesh.quadrature)
        # make_params refuses omega 0, which only the element array reads
        p = dataclasses.replace(make_params(1.3, 0.7, 1.0), omega=omega)
        k, m = _stiffness_and_mass(_gradient_products(grads, moments), mm,
                                   p.lam, p.mu)
        got = fem._element_entries(grads, moments, mm, p).reshape(-1, 6, 6)
        assert np.array_equal(got, _combined(k, m, omega))
        if omega == 0.0:
            assert np.array_equal(got, k)

    def test_top_dofs_are_top_node_components(self, mesh):
        free_pos = np.searchsorted(mesh.free_nodes, mesh.top_nodes)
        expect = np.stack([2 * free_pos, 2 * free_pos + 1], axis=1).ravel()
        assert np.array_equal(mesh.pattern.top_dofs, expect)

    def test_load_equals_add_at(self, flat_geom, surface_model, mesh,
                                bump):
        mq = _sampled_map_quadrature(flat_geom, surface_model, mesh)
        gv = bump(mq.points)
        contrib = -np.einsum("tq,tqa,qi->tia", mq.weights, gv,
                             DEGREE5_RULE[0]).reshape(-1, 6)
        dofs = _reference_dofs(mesh)
        keep = dofs >= 0
        expect = np.zeros(2 * mesh.free_nodes.size, dtype=complex)
        np.add.at(expect, dofs[keep], contrib[keep])
        load = assemble_load_transformed(mesh, gv, mq)
        assert _rel_gap(load, expect) <= 1e-14


    def test_pattern_built_once_on_first_use(self, flat_geom, monkeypatch):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 8)
        assert "_pattern" not in vars(mesh)   # build_mesh does not build it
        calls, seen, _ = _race_first_use(
            monkeypatch, DofPattern, "for_strip", lambda: mesh.pattern)
        assert len(calls) == 1
        assert len(seen) == 4 and all(pat is seen[0] for pat in seen)
        _assert_same_pattern(seen[0], _pattern_from_topology(mesh))

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 2), (2, 5), (4, 3),
                                        (24, 16), (64, 96)])
    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_closed_form_equals_topology_oracle(self, flat_geom, wavy_geom,
                                                kind, nx, ny):
        geom = flat_geom if kind == "flat" else wavy_geom
        mesh = build_mesh(geom.surface, geom.h, nx, ny)
        _assert_same_pattern(mesh.pattern, _pattern_from_topology(mesh))


def _pattern_from_topology(mesh) -> DofPattern:
    """Oracle: the pattern of any triangulation with a DtN block on its top
    nodes, from the sorted distinct node pairs of its triangles and of the
    top x top clique (one global sort)."""
    triangles, surface_nodes = mesh.triangles, mesh.surface_nodes
    # free-node position of each node, -1 on the surface
    pos = np.ones(mesh.n_nodes, dtype=np.int64)
    pos[surface_nodes] = 0
    pos = np.cumsum(pos) - 1
    pos[surface_nodes] = -1
    nf = int(pos.max() + 1)
    n = 2 * nf

    def dofs_of(nodes):
        d = np.stack([2 * pos[nodes], 2 * pos[nodes] + 1], axis=-1)
        return np.where(d >= 0, d, n).reshape(nodes.shape[:-1] + (-1,))

    # Couplings of free nodes (r, c), sorted; each is a 2x2 block whose
    # entries (2r + a, 2c + b) sit in dof row 2r + a, which holds two
    # columns for every node coupled to r.
    pt = pos[triangles]                              # (nt, 3)
    nt = pt.shape[0]
    keep = (pt[:, :, None] >= 0) & (pt[:, None, :] >= 0)
    top = pos[mesh.top_nodes]
    pairs, inverse = np.unique(np.concatenate([
        (pt[:, :, None] * nf + pt[:, None, :])[keep],
        (top[:, None] * nf + top).ravel()]), return_inverse=True)
    inverse = inverse[:np.count_nonzero(keep)]      # the triangles' pairs
    r, c = np.divmod(pairs, nf)
    row_len = np.bincount(r, minlength=nf)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.repeat(2 * row_len, 2), out=indptr[1:])
    nnz = int(indptr[-1])
    rank = np.arange(pairs.size) - (np.cumsum(row_len) - row_len)[r]
    first = indptr[2 * r] + 2 * rank                 # slot of (2r, 2c)
    stride = 2 * row_len[r]                          # to (2r + 1, 2c)

    # the same per node pair of each triangle; dropped pairs point at
    # nnz and nnz + 1.  The CSC position of element entry (2i + a, 2j + b)
    # is the CSR position of (2j + b, 2i + a) in this symmetric pattern.
    itype = _index_dtype(nnz + 1)
    first_t = np.full((nt, 3, 3), nnz, dtype=itype)
    stride_t = np.zeros((nt, 3, 3), dtype=itype)
    first_t[keep] = first[inverse]
    stride_t[keep] = stride[inverse]
    indices = np.empty(nnz, dtype=itype)
    slots = np.empty((nt, 3, 2, 3, 2), dtype=itype)
    for a in range(2):
        for b in range(2):
            indices[first + a * stride + b] = 2 * c + b
            slots[:, :, b, :, a] = (first_t + (a * stride_t + b)
                                    ).transpose(0, 2, 1)
    # the CSC position of (top_dofs[p], top_dofs[q]): row top_dofs[p] in
    # the sorted rows of column top_dofs[q]
    top_dofs = dofs_of(mesh.top_nodes[:, None]).ravel()
    dtn_slots = np.stack([indptr[c] + np.searchsorted(
        indices[indptr[c]:indptr[c + 1]], top_dofs) for c in top_dofs],
        axis=1)
    return DofPattern(n_dofs=n,
                      elem_dofs=_read_only(dofs_of(triangles), n),
                      top_dofs=_read_only(top_dofs, n),
                      indptr=_read_only(indptr, nnz),
                      indices=_read_only(indices, n),
                      slots=_read_only(slots.reshape(nt, 36), nnz + 1),
                      dtn_slots=_read_only(dtn_slots, nnz))


def _assert_same_pattern(got: DofPattern, expect: DofPattern):
    assert got.n_dofs == expect.n_dofs
    for name in ("elem_dofs", "top_dofs", "indptr", "indices", "slots",
                 "dtn_slots"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _race_first_use(monkeypatch, cls, builder, first_use):
    """Call first_use() on 4 threads released together by a barrier while
    cls.builder, patched to count its calls, holds its build until all
    have arrived.  Returns (calls, the values seen, the real builder)."""
    calls = []
    build = getattr(cls, builder)

    def slow_build(*args, **kwargs):
        calls.append(1)
        barrier_passed.wait(1.0)  # hold the build while others arrive
        return build(*args, **kwargs)

    monkeypatch.setattr(cls, builder, slow_build)
    barrier_passed = threading.Event()
    barrier = threading.Barrier(4, action=barrier_passed.set)
    seen = []

    def run():
        barrier.wait()
        seen.append(first_use())

    # daemon threads, so a thread left deadlocked cannot block the exit
    threads = [threading.Thread(target=run, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return calls, seen, build


def _map_family(kind):
    f0 = flat_surface(0.3, 0.2, 0.4, 1.0) if kind == "flat" else \
        cosine_surface(0.3, [0.04], [1], [0.4], 0.2, 0.4, 1.0)
    return RandomSurfaceModel(f0=f0, mode_count=2, amplitudes=(0.02, 0.01),
                              phases=(0.0, 1.3), M0=0.3, seed=11)


class TestMapQuadrature:
    """map_quadrature evaluates the surfaces once per distinct abscissa;
    DomainMap.apply and jacobian on every point are the oracle."""

    @pytest.mark.parametrize("kind,index", [("flat", 0), ("flat", 1),
                                            ("cosine", 0), ("cosine", 1)])
    def test_equals_pointwise_map(self, kind, index):
        model = _map_family(kind)
        mesh = build_mesh(model.f0, 1.4, 24, 16)
        gap = 1.4 - model.f0.sup()
        dmap = DomainMap(f0=model.f0, f_eta=sample_surface(model, index),
                         cutoff=make_cutoff(gap / 8.0, gap))
        quad = mesh.quadrature
        mq = map_quadrature(quad, dmap)
        j1, j2 = dmap.jacobian(quad.points)
        assert np.array_equal(mq.points, dmap.apply(quad.points))
        assert np.array_equal(mq.j1, j1)
        assert np.array_equal(mq.detj, 1.0 + j2)
        assert np.any(j2 != 0.0) and np.any(j1 != 0.0)
        xs, inverse = quad.abscissae
        assert np.array_equal(xs[inverse], quad.points[..., 0])
        assert xs.size <= 12 * mesh.nx    # a column's points share them


def _support_rules(model):
    """(plain rule with its points unbuilt, the same rule built, the rule
    pulled back through the map of sample 1 of the model) on a 24 x 16
    mesh."""
    h = 1.4
    mesh = build_mesh(model.f0, h, 24, 16)
    built = build_mesh(model.f0, h, 24, 16).quadrature
    built.points, built.weights
    gap = h - model.f0.sup()
    dmap = DomainMap(f0=model.f0, f_eta=sample_surface(model, 1),
                     cutoff=make_cutoff(gap / 8.0, gap))
    return mesh.quadrature, built, map_quadrature(built, dmap)


def _disk(cx, cy, r):
    return SourceField(center=(cx, cy), radius=r, amplitude=(1.0, 0.0),
                       period=1.0)


def _assert_support_equals_all_points_form(src, rules):
    """support_elements equals the rows of the rule's points with one
    inside the disk (its form on every point), on each rule, and leaves
    the plain rule's points unbuilt."""
    unbuilt = rules[0]
    for rule in rules:
        r2, _, _ = src._r2(rule.points if rule is not unbuilt
                           else rules[1].points)
        expect = np.flatnonzero(np.any(r2 < 1.0, axis=-1))
        assert np.array_equal(src.support_elements(rule), expect)
    assert "_points" not in vars(unbuilt)


class TestSupportElements:
    """The support triangles from the rule's x2 ranges and the points of
    the triangles they keep, against the test of every point."""

    @pytest.mark.parametrize("kind", ["flat", "cosine"])
    def test_disk_inside_a_triangle(self, kind):
        rules = _support_rules(_map_family(kind))
        coords = rules[1].coords
        for t in (5, 123, 400):
            cx, cy = coords[t].mean(axis=0)
            for r in (1e-3, 0.02, 0.07):   # the centre point, then more
                src = _disk(cx, cy, r)
                assert src.support_elements(rules[1]).size > 0
                _assert_support_equals_all_points_form(src, rules)

    @pytest.mark.parametrize("kind", ["flat", "cosine"])
    @pytest.mark.parametrize("cx, cy, r", [(0.01, 0.8, 0.1),
                                           (0.995, 0.7, 0.05),
                                           (0.0, 1.0, 0.2)])
    def test_disk_straddling_the_seam(self, kind, cx, cy, r):
        src = _disk(cx, cy, r)
        rules = _support_rules(_map_family(kind))
        x1 = rules[1].points[src.support_elements(rules[1]), :, 0]
        assert np.any(x1 < 0.1) and np.any(x1 > 0.9)
        _assert_support_equals_all_points_form(src, rules)

    @pytest.mark.parametrize("kind", ["flat", "cosine"])
    def test_disk_edge_through_a_vertex_row(self, kind):
        rules = _support_rules(_map_family(kind))
        x2 = np.unique(rules[1].coords[..., 1])
        r = 0.125
        found = 0
        for y in x2[(x2 > 0.5) & (x2 < 1.2)]:
            for cy in (y + r, y - r):       # lowest point, then highest
                if cy - r == y or cy + r == y:
                    found += 1
                    for cx in (0.3, 0.5 + 1.0 / 48):
                        _assert_support_equals_all_points_form(
                            _disk(cx, cy, r), rules)
        assert found > 0

    def test_mapped_point_outside_its_reference_vertex_range(self):
        # a map that moves a point above its reference triangle's vertices:
        # the mapped rule's candidates come from its own points
        model = RandomSurfaceModel(
            f0=flat_surface(0.3, 0.2, 0.4, 1.0), mode_count=2,
            amplitudes=(0.06, 0.03), phases=(0.0, 1.3), M0=1.0, seed=11)
        rules = _support_rules(model)
        above = rules[2].points[..., 1] - rules[1].x2_range()[1][:, None]
        t, q = np.unravel_index(np.argmax(above), above.shape)
        assert above[t, q] > 0.0
        src = _disk(*rules[2].points[t, q], 0.5 * above[t, q])
        assert t in src.support_elements(rules[2])
        _assert_support_equals_all_points_form(src, rules)

    @given(cx=st.floats(0.0, 1.0, exclude_max=True),
           cy=st.floats(0.2, 1.5), r=st.floats(1e-4, 0.4))
    @settings(max_examples=40, deadline=None)
    def test_random_disks(self, cx, cy, r):
        for kind in ("flat", "cosine"):
            _assert_support_equals_all_points_form(
                _disk(cx, cy, r), _SUPPORT_RULES[kind])


_SUPPORT_RULES = {kind: _support_rules(_map_family(kind))
                  for kind in ("flat", "cosine")}


class TestLoads:
    def test_zero_source(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        load = assemble_load(mesh, lambda pts: np.zeros(pts.shape[:-1] + (2,)))
        assert np.array_equal(load, np.zeros_like(load))

    def test_identity_map_equals_plain(self, flat_geom, bump):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 20)
        f0 = flat_geom.surface
        ident = DomainMap(f0=f0, f_eta=f0, cutoff=make_cutoff(0.1, 1.1))
        plain = assemble_load(mesh, bump)
        mapped = assemble_load_transformed(
            mesh, bump(mesh.quadrature.points),
            map_quadrature(mesh.quadrature, ident))
        assert np.allclose(plain, mapped, atol=1e-15)

    def test_constant_source_nodal_entries(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        c = 2.0 - 0.5j

        def g(pts):
            out = np.zeros(pts.shape[:-1] + (2,), dtype=complex)
            out[..., 0] = c
            return out

        load = assemble_load(mesh, g)
        # entry of an interior node = -c/3 * total area of adjacent elements
        node = mesh.free_nodes[mesh.free_nodes.size // 2]
        adjacent = np.nonzero(np.any(mesh.triangles == node, axis=1))[0]
        expect = -c / 3.0 * float(np.sum(mesh.areas()[adjacent]))
        free_pos = int(np.searchsorted(mesh.free_nodes, node))
        assert load[2 * free_pos] == pytest.approx(expect, rel=1e-12)
        assert load[2 * free_pos + 1] == 0.0

    @pytest.mark.parametrize("center", [(0.5, 0.8), (0.02, 0.8)])
    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_support_restricted_load_and_norms(self, flat_geom, wavy_geom,
                                               kind, center):
        # (0.02, 0.8): the disk straddles the seam x1 = 0
        from elastodtn.verify import source_norms
        geom = flat_geom if kind == "flat" else wavy_geom
        mesh = build_mesh(geom.surface, geom.h, 32, 48)
        src = make_source(SourceSpec(center=center, radius=0.15,
                                     amplitude=(1.0, 0.5j), period=1.0),
                          None, f_max=0.4, h=geom.h)
        elems = src.support_elements(mesh.quadrature)
        assert 0 < elems.size < mesh.triangles.shape[0] // 4
        x1 = mesh.quadrature.points[elems, :, 0]
        assert (np.any(x1 < 0.1) and np.any(x1 > 0.9)) == (center[0] < 0.1)
        full = assemble_load(mesh, src)
        assert np.array_equal(assemble_load(mesh, src, elems), full)
        assert np.count_nonzero(full) < full.size // 4   # a local source
        expect = source_norms(mesh, src)
        for key, value in source_norms(mesh, src, elems).items():
            assert value == pytest.approx(expect[key], rel=1e-14, abs=0.0)


class TestSolve:
    def test_zero_load_zero_solution(self, flat_geom, params2):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        system = assemble_B(mesh, params2)
        sol = solve(system, np.zeros(system.dimension, dtype=complex))
        assert np.array_equal(sol.values, np.zeros_like(sol.values))
        assert sol.norms["h1"] == 0.0

    def test_linearity_exact(self, flat_geom, params2, bump):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 24)
        system = assemble_B(mesh, params2)
        load = assemble_load(mesh, bump)
        u1 = solve(system, load)
        u2 = solve(system, 2.0 * load)
        assert np.array_equal(u2.values, 2.0 * u1.values)

    def test_residual_enforced(self, flat_geom, params2, bump):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 24, 32)
        system = assemble_B(mesh, params2)
        load = assemble_load(mesh, bump)
        sol = solve(system, load)
        a = system.matrix
        x = np.empty(system.dimension, dtype=complex)
        x[0::2] = sol.values[mesh.free_nodes, 0]
        x[1::2] = sol.values[mesh.free_nodes, 1]
        rel = np.linalg.norm(a @ x - load) / np.linalg.norm(load)
        assert rel <= 1e-10
        assert np.array_equal(free_vector(mesh, sol.values), x)

    def test_shape_mismatch_raises(self, flat_geom, params2):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        system = assemble_B(mesh, params2)
        with pytest.raises(SolveError):
            solve(system, np.zeros(3, dtype=complex))

    def test_galerkin_orthogonality(self, flat_geom, params2, bump):
        from elastodtn.verify import source_norms
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 24, 32)
        system = assemble_B(mesh, params2)
        load = assemble_load(mesh, bump)
        sol = solve(system, load)
        a = system.matrix
        x = np.empty(system.dimension, dtype=complex)
        x[0::2] = sol.values[mesh.free_nodes, 0]
        x[1::2] = sol.values[mesh.free_nodes, 1]
        gl2 = source_norms(mesh, bump)["l2"]
        assert float(np.max(np.abs(a @ x - load))) <= 1e-9 * gl2

    def test_symmetric_ordering_halves_fill(self, flat_geom, bump):
        # reference: SuperLU's default (COLAMD) ordering of the same matrix
        p = make_params(1.0, 1.0, 8.0)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 64, 96)
        system = assemble_B(mesh, p)
        load = assemble_load(mesh, bump)
        sol = solve(system, load)
        lu = spla.splu(system.matrix)
        assert sol.metadata["nnz_lu"] < 0.7 * lu.nnz
        x = lu.solve(load)
        values = np.zeros((mesh.n_nodes, 2), dtype=complex)
        values[mesh.free_nodes, 0] = x[0::2]
        values[mesh.free_nodes, 1] = x[1::2]
        expect = norms(FieldSolution(mesh=mesh, values=values))
        for key, value in expect.items():
            assert sol.norms[key] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("omega", [2 * math.pi, 4 * math.pi])
    def test_rayleigh_wood_frequencies_solve(self, wavy_geom, bump, omega):
        # xi_n = k_s for n = 1, 2: a mode grazes the top line
        p = make_params(1.0, 1.0, omega)
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 48, 64)
        system = assemble_B(mesh, p)
        load = assemble_load(mesh, bump)
        sol = solve(system, load)
        x = np.empty(system.dimension, dtype=complex)
        x[0::2] = sol.values[mesh.free_nodes, 0]
        x[1::2] = sol.values[mesh.free_nodes, 1]
        a = system.matrix
        rel = np.linalg.norm(a @ x - load) / np.linalg.norm(load)
        assert rel <= 1e-10
        assert sol.metadata["omega"] == omega
        assert sol.metadata["residual"] == pytest.approx(rel, rel=1e-9)
        assert sol.norms["h1"] > 0.0


def _double_solve(system, load):
    """Oracle: one plain complex128 LU solve, as a FieldSolution."""
    mesh = system.mesh
    x = spla.splu(system.matrix, permc_spec="MMD_AT_PLUS_A").solve(load)
    values = np.zeros((mesh.n_nodes, 2), dtype=complex)
    values[mesh.free_nodes, 0] = x[0::2]
    values[mesh.free_nodes, 1] = x[1::2]
    return FieldSolution(mesh=mesh, values=values)


# the top block of a real system: no dofs, no slots, and an empty split
NO_DOFS = SimpleNamespace(top_dofs=np.arange(0),
                          dtn_slots=np.zeros((0, 0), dtype=int))
NO_SPLIT = (np.zeros((0, 0)), np.zeros(0))


def _near_singular(eps):
    """A = [[1, 1], [1, 1 + eps]] as CSC, with b = (1, 2)."""
    a = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + eps]],
                               dtype=complex))
    return a, np.array([1.0, 2.0], dtype=complex)


class TestRefinedSolve:
    """The float32 factorization of Re A with the Woodbury correction for
    Im A and complex128 refinement against a complex128 solve, and its
    fallback to the complex128 factorization."""

    @pytest.mark.parametrize("omega", [2.0, 8.0, 2 * math.pi, 4 * math.pi])
    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_matches_double_solve(self, flat_geom, wavy_geom, bump, kind,
                                  omega):
        geom = flat_geom if kind == "flat" else wavy_geom
        p = make_params(1.0, 1.0, omega)
        mesh = build_mesh(geom.surface, geom.h, 32, 48)
        system = assemble_B(mesh, p)
        load = assemble_load(mesh, bump)
        sol = solve(system, load)
        assert sol.metadata["factor_dtype"] == "float32"
        assert 1 <= sol.metadata["refinement_steps"] <= 10
        assert sol.metadata["residual"] <= 1e-10
        expect = _double_solve(system, load)
        for key, value in norms(expect).items():
            assert sol.norms[key] == pytest.approx(value, rel=1e-12), key
        scale = float(np.max(np.abs(expect.values)))
        assert float(np.max(np.abs(sol.values - expect.values))) \
            <= 1e-11 * scale

    def test_single_precision_singular_falls_back(self):
        # 1 + 1e-9 rounds to 1 in float32: the float32 LU is singular
        a, b = _near_singular(1e-9)
        x, health = fem._lu_solve(a, b, NO_DOFS, NO_SPLIT)
        assert health["factor_dtype"] == "complex128"
        assert health["refinement_steps"] == 0
        assert health["residual"] <= 1e-10
        # the complex128 path is the plain solve: same factor, same x
        expect = spla.splu(a, permc_spec="MMD_AT_PLUS_A").solve(b)
        assert np.array_equal(x, expect)

    def test_ill_conditioned_system_refines(self):
        # kappa about 4e6: the first float32 solve is off by about
        # kappa * 6e-8, and the refinement recovers double accuracy
        a, b = _near_singular(1e-6)
        x, health = fem._lu_solve(a, b, NO_DOFS, NO_SPLIT)
        assert health["factor_dtype"] == "float32"
        assert health["refinement_steps"] == 7
        assert health["residual"] <= 1e-12
        rel = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert health["residual"] == pytest.approx(rel, rel=1e-9, abs=0.0)

    def test_refinement_short_of_gate_falls_back(self, monkeypatch):
        # with no refinement steps the first float32 solve misses the
        # gate, so the complex128 factorization answers
        monkeypatch.setattr(fem, "_REFINE_MAX_STEPS", 0)
        a, b = _near_singular(1e-6)
        _, health = fem._lu_solve(a, b, NO_DOFS, NO_SPLIT)
        assert health["factor_dtype"] == "complex128"
        assert health["residual"] <= 1e-10

    def test_float32_matrix_shares_index_arrays(self, monkeypatch,
                                                wavy_geom, params2, bump):
        seen = []
        factor = fem._factor

        def recording_factor(a):
            seen.append(a)
            return factor(a)

        monkeypatch.setattr(fem, "_factor", recording_factor)
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 16, 24)
        system = assemble_B(mesh, params2)
        sol = solve(system, assemble_load(mesh, bump))
        assert sol.metadata["factor_dtype"] == "float32"
        [a32] = seen
        a = system.matrix
        assert a32.dtype == np.float32 and a32.nnz == a.nnz
        assert np.shares_memory(a32.indices, a.indices)
        assert np.shares_memory(a32.indptr, a.indptr)
        assert np.array_equal(a32.data, a.data.real.astype(np.float32))


class TestFloat32Path:
    """The float32 LU of Re A with the Woodbury correction answers every
    solve of a dense frequency sweep; an imaginary entry off the top block
    sends a solve to the complex128 LU."""

    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_dense_sweep_without_fallback(self, flat_geom, wavy_geom, bump,
                                          kind):
        geom = flat_geom if kind == "flat" else wavy_geom
        mesh = build_mesh(geom.surface, geom.h, 16, 24)
        load = assemble_load(mesh, bump)
        n_max = mesh_module.nyquist_index(mesh.nx)
        for omega in 0.5 + 0.05 * np.arange(471):          # 0.5, ..., 24
            p = make_params(1.0, 1.0, float(omega))
            meta = solve(assemble_B(mesh, p), load).metadata
            assert meta["factor_dtype"] == "float32", omega
            assert meta["residual"] <= 1e-10, omega
            assert meta["imag_rank"] == _imag_rank(p, n_max,
                                                   mesh.period), omega

    @pytest.mark.parametrize("kind", ["flat", "wavy"])
    def test_imag_rank_equals_dense_eigh_rank(self, flat_geom, wavy_geom,
                                              kind):
        # oracle: the rank the solver used to find, the eigenvalues of the
        # gathered top block of Im A above 1e-13 of the largest |eigenvalue|
        geom = flat_geom if kind == "flat" else wavy_geom
        mesh = build_mesh(geom.surface, geom.h, 16, 24)
        for omega in 0.5 + 0.05 * np.arange(471):          # 0.5, ..., 24
            system = assemble_B(mesh, make_params(1.0, 1.0, float(omega)))
            lam = np.linalg.eigvalsh(
                system.matrix.data.imag[mesh.pattern.dtn_slots])
            rank = np.count_nonzero(np.abs(lam) > 1e-13 * np.abs(lam).max())
            assert system.imag_split[1].size == rank, omega

    def test_imag_entry_off_top_block_falls_back(self, wavy_geom, params2,
                                                 bump):
        mesh = build_mesh(wavy_geom.surface, wavy_geom.h, 16, 24)
        system = assemble_B(mesh, params2)
        assert 0 not in mesh.pattern.top_dofs
        a = system.matrix.copy()
        diag = np.flatnonzero(a.indices[a.indptr[0]:a.indptr[1]] == 0)[0]
        a.data[diag] += 1e-3j * abs(a.data[diag])          # A[0, 0]
        load = assemble_load(mesh, bump)
        planted = solve(dataclasses.replace(system, matrix=a), load)
        meta = planted.metadata
        assert meta["factor_dtype"] == "complex128"
        assert meta["imag_rank"] == 0 and meta["refinement_steps"] == 0
        assert meta["residual"] <= 1e-10
        x = free_vector(mesh, planted.values)
        assert np.linalg.norm(a @ x - load) <= 1e-10 * np.linalg.norm(load)
        assert solve(system, load).metadata["factor_dtype"] == "float32"


def _blas_threads(controls) -> list:
    return [get() for get, _ in controls]


def _solve_subprocess(tmp_path, blas_threads: str) -> dict:
    """solution.csv and norms.csv of a CLI solve at 64x96 (omega 2) with
    the given OPENBLAS_NUM_THREADS."""
    root = Path(__file__).resolve().parent.parent
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[discretization]\nnx = 64\nny = 96\n")
    out = tmp_path / f"blas{blas_threads}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-m", "elastodtn.cli", "solve", "--config",
         str(cfg), "--out", str(out)],
        env=env, cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {name: (out / name).read_bytes()
            for name in ("solution.csv", "norms.csv")}


class TestBlasPin:
    """Every factorization and triangular solve runs with OpenBLAS pinned
    to one thread, so a solve's bytes do not depend on the BLAS setting."""

    def test_solve_bytes_independent_of_blas_threads(self, tmp_path):
        one = _solve_subprocess(tmp_path, "1")
        two = _solve_subprocess(tmp_path, "2")
        assert one["solution.csv"].count(b"\n") == 64 * 97 + 1
        assert one["solution.csv"] == two["solution.csv"]
        assert one["norms.csv"].count(b"\n") == 2
        assert one["norms.csv"] == two["norms.csv"]

    def test_factor_pinned_and_counts_restored(self, openblas_at_two,
                                               monkeypatch, flat_geom,
                                               params2, bump):
        controls = openblas_at_two
        seen = []
        factor = fem._factor

        def recording_factor(a):
            seen.append(("factor", _blas_threads(controls)))
            return factor(a)

        monkeypatch.setattr(fem, "_factor", recording_factor)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 24)
        system = assemble_B(mesh, params2)
        sol = solve(system, assemble_load(mesh, bump))
        assert sol.metadata["factor_dtype"] == "float32"
        assert seen == [("factor", [1] * len(controls))]
        assert _blas_threads(controls) == [2] * len(controls)

    def test_dtn_block_pinned_and_bytes_independent_of_blas_threads(
            self, openblas_at_two, monkeypatch, flat_geom, params2):
        # the pin is held around the block's product, which the mode
        # weights (from fem._sinc2) start
        controls = openblas_at_two
        seen = []
        sinc2 = fem._sinc2

        def recording(t):
            seen.append(_blas_threads(controls))
            return sinc2(t)

        monkeypatch.setattr(fem, "_sinc2", recording)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 64, 8)
        blocks = [fem._dtn_block(mesh, params2, 31)]
        assert seen == [[1] * len(controls)]
        assert _blas_threads(controls) == [2] * len(controls)
        for _, set_threads in controls:
            set_threads(1)
        blocks.append(fem._dtn_block(mesh, params2, 31))
        for two, one in zip(*blocks):                 # block, u and lam
            assert two.tobytes() == one.tobytes()

    def test_counts_restored_when_factorization_raises(
            self, openblas_at_two, monkeypatch, flat_geom, params2, bump):
        controls = openblas_at_two
        seen = []

        def failing_factor(a):
            seen.append((a.dtype, _blas_threads(controls)))
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fem, "_factor", failing_factor)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        system = assemble_B(mesh, params2)
        with pytest.raises(SolveError, match="factorization failed"):
            solve(system, assemble_load(mesh, bump))
        # the float32 attempt and the complex128 fallback, both pinned
        assert seen == [(np.float32, [1] * len(controls)),
                        (np.complex128, [1] * len(controls))]
        assert _blas_threads(controls) == [2] * len(controls)

    def test_handles_scanned_once(self, monkeypatch, flat_geom, params2,
                                  bump):
        scans = []
        scan = fem._openblas_thread_controls

        def counting_scan():
            scans.append(1)
            return scan()

        monkeypatch.setattr(fem, "_openblas_thread_controls", counting_scan)
        monkeypatch.setattr(fem._single_thread_blas, "_controls", None)
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        system = assemble_B(mesh, params2)
        load = assemble_load(mesh, bump)
        for _ in range(3):
            solve(system, load)
        with fem._single_thread_blas:
            with fem._single_thread_blas:
                pass
        assert scans == [1]


class TestNorms:
    def test_constant_field_l2(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 16)
        c = 1.5 - 0.5j
        vals = np.full((mesh.n_nodes, 2), 0.0, dtype=complex)
        vals[:, 0] = c
        n = norms(FieldSolution(mesh=mesh, values=vals))
        area = float(np.sum(mesh.areas()))
        assert n["l2"] == pytest.approx(abs(c) * math.sqrt(area), rel=1e-12)
        assert n["d2"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_field(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 8, 8)
        n = norms(FieldSolution(mesh=mesh,
                                values=np.zeros((mesh.n_nodes, 2), complex)))
        assert n["l2"] == 0.0 and n["h1"] == 0.0
        assert n["d2"] == 0.0 and n["trace_l2_top"] == 0.0

    def test_trace_parseval_single_mode(self, flat_geom):
        # exact L2 of the PL interpolant vs its own retained coefficient
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 1024, 2)
        vals = np.zeros((mesh.n_nodes, 2), dtype=complex)
        x1 = mesh.nodes[mesh.top_nodes, 0]
        vals[mesh.top_nodes, 0] = np.exp(2j * math.pi * x1)
        sol = FieldSolution(mesh=mesh, values=vals)
        n = norms(sol)
        tr = trace_coefficients(sol)
        mode1 = tr.coef[tr.ns == 1]
        parseval = mesh.period * float(np.sum(np.abs(mode1) ** 2))
        assert abs(n["trace_l2_top"] ** 2 - parseval) < 1e-10

    def test_linear_vertical_field_h1(self, flat_geom):
        # u = (x2 - f, 0) has exact nodal representation on each column...
        # use u = (x2, 0): l2^2 = int x2^2, semi = area
        mesh = build_mesh(flat_surface(0.0, -0.1, 0.1, 1.0), 1.0, 8, 8)
        vals = np.zeros((mesh.n_nodes, 2), dtype=complex)
        vals[:, 0] = mesh.nodes[:, 1]
        n = norms(FieldSolution(mesh=mesh, values=vals))
        assert n["l2"] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert n["d2"] == pytest.approx(1.0, rel=1e-12)
        assert n["h1"] == pytest.approx(math.sqrt(1.0 / 3.0 + 1.0), rel=1e-12)


def _einsum_gradients(mesh, values):
    """Reference: element gradients by an einsum over the vertex values."""
    vals = np.asarray(values, dtype=complex)[mesh.triangles]
    return np.einsum("tka,tkb->tab", vals, mesh.quadrature.grads)


def _complex_abs_norms(mesh, values):
    """Reference: (l2, h1, d2) from complex abs values of the vertex values
    and the einsum gradients, summed over the triangles."""
    area = mesh.quadrature.area
    vals = np.asarray(values, dtype=complex)[mesh.triangles]
    ssum = np.abs(np.sum(vals, axis=1)) ** 2
    ssq = np.sum(np.abs(vals) ** 2, axis=1)
    l2_sq = float(np.sum(area[:, None] / 12.0 * (ssum + ssq)))
    gu = _einsum_gradients(mesh, values)
    semi_sq = float(np.sum(area[:, None, None] * np.abs(gu) ** 2))
    d2_sq = float(np.sum(area[:, None] * np.abs(gu[:, :, 1]) ** 2))
    return {"l2": math.sqrt(l2_sq), "h1": math.sqrt(l2_sq + semi_sq),
            "d2": math.sqrt(d2_sq)}


class TestP1Operators:
    """Gradients and norms from the mesh's sparse operators against the
    per-triangle einsum and complex-abs forms."""

    @pytest.fixture(params=["flat", "wavy"])
    def mesh(self, request, flat_geom, wavy_geom):
        geom = flat_geom if request.param == "flat" else wavy_geom
        return build_mesh(geom.surface, geom.h, 24, 32)

    @staticmethod
    def _fields(mesh):
        """Random complex fields, zero on the surface rows."""
        gen = np.random.default_rng(mesh.n_nodes)
        for _ in range(3):
            vals = gen.standard_normal((mesh.n_nodes, 2)) \
                + 1j * gen.standard_normal((mesh.n_nodes, 2))
            vals[mesh.surface_nodes] = 0.0
            yield vals

    def test_gradients_equal_einsum(self, mesh):
        ops = mesh.p1_operators
        assert np.all(np.diff(ops.grad.indptr) == 3)
        for vals in self._fields(mesh):
            got = fem.element_gradients(mesh, vals)
            assert _rel_gap(got, _einsum_gradients(mesh, vals)) <= 1e-14

    def test_norms_equal_complex_abs(self, mesh):
        for vals in self._fields(mesh):
            got = norms(FieldSolution(mesh=mesh, values=vals))
            expect = _complex_abs_norms(mesh, vals)
            for key, value in expect.items():
                assert abs(got[key] - value) <= 1e-14 * value, key

    def test_built_once_on_first_use(self, flat_geom, monkeypatch):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 12, 8)
        assert "_p1_operators" not in vars(mesh)
        calls, seen, build = _race_first_use(
            monkeypatch, P1Operators, "from_quadrature",
            lambda: mesh.p1_operators)
        assert len(calls) == 1
        assert len(seen) == 4 and all(ops is seen[0] for ops in seen)
        ref = build(mesh.triangles, mesh.quadrature, mesh.n_nodes)
        for name in ("grad", "vertex_sum"):
            got, want = getattr(seen[0], name), getattr(ref, name)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part))
        assert np.array_equal(seen[0].nodal_weights, ref.nodal_weights)


class TestTraceCoefficients:
    def test_matches_direct_formula(self, flat_geom):
        mesh = build_mesh(flat_geom.surface, flat_geom.h, 16, 4)
        gen = np.random.default_rng(5)
        vals = np.zeros((mesh.n_nodes, 2), dtype=complex)
        vals[mesh.top_nodes] = gen.standard_normal((16, 2)) \
            + 1j * gen.standard_normal((16, 2))
        tr = trace_coefficients(FieldSolution(mesh=mesh, values=vals))
        x1 = mesh.nodes[mesh.top_nodes, 0]
        for n in (-3, 0, 2):
            xi = 2 * math.pi * n / mesh.period
            t = math.pi * n / 16
            sinc2 = 1.0 if n == 0 else (math.sin(t) / t) ** 2
            direct = sinc2 * np.mean(
                vals[mesh.top_nodes] * np.exp(-1j * xi * x1)[:, None], axis=0)
            assert np.allclose(tr.coef[tr.ns == n][0], direct, atol=1e-14)
        assert np.array_equal(tr.ns, np.arange(-7, 8))
        assert tr.coef.shape == (15, 2)

    @pytest.mark.parametrize("nx", [2, 3, 16, 17])
    def test_modes_are_the_dtn_blocks(self, flat_geom, nx):
        # the mesh, not a solution's metadata, sets the modes: those of
        # the DtN block its system assembles
        mesh = build_mesh(flat_geom.surface, flat_geom.h, nx, 2)
        n = assemble_B(mesh, make_params(1.0, 1.0, 2.0)).n_max
        tr = trace_coefficients(FieldSolution(
            mesh=mesh, values=np.zeros((mesh.n_nodes, 2), complex)))
        assert np.array_equal(tr.ns, np.arange(-n, n + 1))
