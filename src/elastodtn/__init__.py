"""Elastic scattering by periodized rough surfaces: FEM + Fourier-symbol DtN
transparent boundary, a vertical domain map for random surfaces, Monte Carlo
ensembles, and a verification harness for frequency-explicit bounds."""

from .errors import (
    ConfigError,
    CutoffError,
    ElastoDtnError,
    EnsembleError,
    GeometryError,
    InternalError,
    MapSingularError,
    MeshError,
    MmsError,
    ParameterError,
    SolveError,
    SourceSupportError,
    SurfaceBoundError,
    SweepError,
    SymbolSingularError,
)
from .model import (
    CutoffFn,
    DomainMap,
    ElasticParams,
    Geometry,
    RandomSurfaceModel,
    SourceField,
    SourceJitter,
    SourceSpec,
    SurfaceFn,
    check_invertibility,
    cosine_surface,
    flat_surface,
    height_condition,
    make_cutoff,
    make_params,
    make_source,
    sample_surface,
    sawtooth_surface,
)
from .dtn import (
    TraceCoefficients,
    apply_dtn,
    gamma,
    projection_matrices,
    symbol_bound_check,
    symbol_matrices,
    traction,
)
from .mesh import Mesh, Quadrature, build_mesh
from .fem import (
    FieldSolution,
    MappedQuadrature,
    SparseSystem,
    assemble_B,
    assemble_B_transformed,
    assemble_load,
    assemble_load_transformed,
    map_quadrature,
    norms,
    solve,
    trace_coefficients,
)
from .verify import (
    BoundProfile,
    SweepConfig,
    SweepResult,
    bound_profile,
    manufactured_source,
    mms_convergence,
    omega_sweep,
    poincare_check,
    pullback_identity_check,
    rellich_residual,
)
from .montecarlo import (
    EnsembleResult,
    run_ensemble,
    run_sample,
    meansquare_envelope_check,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"
