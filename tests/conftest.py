"""Shared builders for the default verification geometry.

One periodic cell of width 1 with a surface near x2 = 0.3 (declared envelope
0.2 < f < 0.4), measured height 1.4, and a bump source in the clear band.
"""

import pytest

from elastodtn import fem
from elastodtn.model import (
    Geometry,
    RandomSurfaceModel,
    SourceSpec,
    cosine_surface,
    flat_surface,
    make_params,
    make_source,
)


H_DEFAULT = 1.4


@pytest.fixture
def flat_geom():
    return Geometry(surface=flat_surface(0.3, 0.2, 0.4, 1.0), h=H_DEFAULT)


@pytest.fixture
def wavy_geom():
    surf = cosine_surface(0.3, [0.04], [1], [0.0], 0.2, 0.4, 1.0)
    return Geometry(surface=surf, h=H_DEFAULT)


@pytest.fixture
def source_spec():
    return SourceSpec(center=(0.5, 0.8), radius=0.15,
                      amplitude=(1.0, 0.5j), period=1.0)


@pytest.fixture
def bump(source_spec):
    return make_source(source_spec, None, f_max=0.4, h=H_DEFAULT)


@pytest.fixture
def params2():
    return make_params(1.0, 1.0, 2.0)


@pytest.fixture
def surface_model():
    return RandomSurfaceModel(
        f0=flat_surface(0.3, 0.2, 0.4, 1.0), mode_count=2,
        amplitudes=(0.02, 0.01), phases=(0.0, 1.3), M0=0.3, seed=42)


@pytest.fixture
def openblas_at_two():
    """Every loaded OpenBLAS at 2 threads, so a missing pin or a missing
    restore is visible; the original counts are restored afterwards."""
    controls = fem._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    assert [get() for get, _ in controls] == [2] * len(controls)
    yield controls
    for (_, set_threads), count in zip(controls, before):
        set_threads(count)
