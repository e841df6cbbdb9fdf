"""Physical parameters, surfaces, the cutoff, and the vertical domain map.

Geometry convention: the scatterer is the graph x2 = f(x1) of a Lipschitz
function, laterally periodized with period L (one cell is meshed and the DtN
integral becomes a Fourier series over xi_n = 2*pi*n/L).  The strip of
interest is f(x1) < x2 < h for a measured height h above the surface.

The map H sends the reference strip (surface f0) onto a perturbed strip
(surface f_eta) by a vertical shift localized near the surface:

    H(y) = y + alpha(y2 - f0(y1)) * (f_eta(y1) - f0(y1)) * e2

with a piecewise-linear cutoff alpha that equals 1 at the surface and 0 at
distance >= gap - delta/2, so H fixes the top line x2 = h pointwise and
carries the graph of f0 onto the graph of f_eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CutoffError,
    GeometryError,
    MapSingularError,
    ParameterError,
    SourceSupportError,
    SurfaceBoundError,
)

__all__ = [
    "ElasticParams",
    "make_params",
    "SurfaceFn",
    "flat_surface",
    "cosine_surface",
    "sawtooth_surface",
    "Geometry",
    "height_condition",
    "CutoffFn",
    "make_cutoff",
    "keyed_generator",
    "DomainMap",
    "check_invertibility",
    "RandomSurfaceModel",
    "sample_surface",
    "SourceJitter",
    "SourceSpec",
    "SourceField",
    "make_source",
]

# Dense-grid resolution used whenever a sup over one period is needed.
_SUP_GRID = 4096


@dataclass(frozen=True)
class ElasticParams:
    """Lame constants, angular frequency and the derived wavenumbers."""

    lam: float
    mu: float
    omega: float
    k_p: float
    k_s: float


def make_params(lam: float, mu: float, omega: float) -> ElasticParams:
    """Build ElasticParams with k_p = omega/sqrt(lam+2*mu), k_s = omega/sqrt(mu)."""
    if lam <= 0 or mu <= 0 or omega <= 0:
        raise ParameterError(
            f"lam, mu, omega must all be positive, got ({lam}, {mu}, {omega})"
        )
    k_p = omega / math.sqrt(lam + 2.0 * mu)
    k_s = omega / math.sqrt(mu)
    return ElasticParams(lam=float(lam), mu=float(mu), omega=float(omega),
                         k_p=k_p, k_s=k_s)


@dataclass(frozen=True)
class SurfaceFn:
    """Periodic Lipschitz graph with a declared envelope f_min < f < f_max.

    f and df are vectorized callables of x1; df may be an a.e. derivative for
    merely Lipschitz profiles.  f_min/f_max are envelope bounds for the whole
    family the surface belongs to (not necessarily tight for this member).
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    f_min: float
    f_max: float
    lipschitz: float
    period: float

    def validate(self, n_samples: int = _SUP_GRID) -> None:
        """Check the envelope and the Lipschitz bound on a dense grid."""
        x = np.linspace(0.0, self.period, n_samples, endpoint=False)
        vals = np.asarray(self.f(x), dtype=float)
        if not (np.all(vals > self.f_min) and np.all(vals < self.f_max)):
            raise SurfaceBoundError(
                f"surface leaves ({self.f_min}, {self.f_max}): "
                f"range [{vals.min()}, {vals.max()}]"
            )
        # Pairwise Lipschitz check on adjacent samples; tolerate roundoff.
        dx = self.period / n_samples
        slopes = np.abs(np.diff(vals)) / dx
        if slopes.size and slopes.max() > self.lipschitz * (1.0 + 1e-8) + 1e-12:
            raise SurfaceBoundError(
                f"sampled slope {slopes.max():.6g} exceeds declared "
                f"Lipschitz constant {self.lipschitz:.6g}"
            )

    def sup(self, n_samples: int = _SUP_GRID) -> float:
        """Dense-grid supremum of f over one period."""
        x = np.linspace(0.0, self.period, n_samples, endpoint=False)
        return float(np.max(self.f(x)))


def flat_surface(level: float, f_min: float, f_max: float,
                 period: float = 1.0) -> SurfaceFn:
    """Constant-height surface; envelope bounds are for the enclosing family."""
    lvl = float(level)
    return SurfaceFn(
        f=lambda x: np.full_like(np.asarray(x, dtype=float), lvl),
        df=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        f_min=float(f_min), f_max=float(f_max),
        lipschitz=0.0, period=float(period),
    )


def cosine_surface(offset: float, amplitudes, modes, phases,
                   f_min: float, f_max: float, period: float = 1.0) -> SurfaceFn:
    """offset + sum_j a_j cos(2*pi*m_j*x/period + theta_j)."""
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    mods = np.atleast_1d(np.asarray(modes, dtype=float))
    phas = np.atleast_1d(np.asarray(phases, dtype=float))
    if not (amps.shape == mods.shape == phas.shape):
        raise ParameterError("amplitudes, modes, phases must have equal length")
    ks = 2.0 * math.pi * mods / period

    def f(x):
        x = np.asarray(x, dtype=float)
        return offset + np.sum(
            amps * np.cos(np.multiply.outer(x, ks) + phas), axis=-1)

    def df(x):
        x = np.asarray(x, dtype=float)
        return -np.sum(
            amps * ks * np.sin(np.multiply.outer(x, ks) + phas), axis=-1)

    lip = float(np.sum(np.abs(amps) * ks))
    return SurfaceFn(f=f, df=df, f_min=float(f_min), f_max=float(f_max),
                     lipschitz=lip, period=float(period))


def sawtooth_surface(offset: float, amplitude: float, f_min: float,
                     f_max: float, period: float = 1.0) -> SurfaceFn:
    """Triangle wave: Lipschitz but not C^1, slope +-4*amplitude/period."""
    amp = float(amplitude)
    per = float(period)

    def f(x):
        t = np.mod(np.asarray(x, dtype=float) / per, 1.0)
        return offset + amp * (4.0 * np.abs(t - 0.5) - 1.0)

    def df(x):
        t = np.mod(np.asarray(x, dtype=float) / per, 1.0)
        return np.where(t < 0.5, -4.0 * amp / per, 4.0 * amp / per)

    return SurfaceFn(f=f, df=df, f_min=float(f_min), f_max=float(f_max),
                     lipschitz=abs(4.0 * amp / per), period=per)


@dataclass(frozen=True)
class Geometry:
    """Reference strip: surface f0 and measured height h.

    gap is h - sup(f0); the random problem additionally requires the envelope
    condition (f_max - f_min)/gap < 1 so the domain map stays invertible.
    """

    surface: SurfaceFn
    h: float
    gap: float = field(init=False)

    def __post_init__(self):
        if self.h <= self.surface.f_max:
            raise GeometryError(
                f"measured height h={self.h} must exceed the surface bound "
                f"M={self.surface.f_max}"
            )
        object.__setattr__(self, "gap", self.h - self.surface.sup())


def height_condition(geom: Geometry) -> tuple[float, bool]:
    """Return (gap, ok) with ok iff (f_max - f_min)/gap < 1 strictly."""
    s = geom.surface
    ratio = (s.f_max - s.f_min) / geom.gap
    return geom.gap, bool(ratio < 1.0)


@dataclass(frozen=True)
class CutoffFn:
    """Piecewise-linear cutoff: 1 on (-inf, delta], 0 on [ramp_end, inf).

    ramp_end = gap - delta/2, so max_slope = 1/(gap - 1.5*delta) which is
    strictly below the admissible limit 1/(gap - 2*delta).
    """

    delta: float
    gap: float
    ramp_end: float
    max_slope: float

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ramp = (self.ramp_end - x) * self.max_slope
        return np.clip(ramp, 0.0, 1.0)

    def slope(self, x) -> np.ndarray:
        """a.e. derivative of the cutoff."""
        x = np.asarray(x, dtype=float)
        inside = (x > self.delta) & (x < self.ramp_end)
        return np.where(inside, -self.max_slope, 0.0)


def make_cutoff(delta: float | None, gap: float) -> CutoffFn:
    """Build the default ramp; requires 0 < delta < gap/4 for the slope
    margin.  delta None takes gap/8."""
    if delta is None:
        delta = gap / 8.0
    if not (0.0 < delta < gap / 4.0):
        raise CutoffError(
            f"delta={delta} must lie in (0, gap/4)=(0, {gap / 4.0}) to keep "
            "the ramp slope strictly inside the admissible bound"
        )
    ramp_end = gap - delta / 2.0
    return CutoffFn(delta=float(delta), gap=float(gap),
                    ramp_end=float(ramp_end),
                    max_slope=1.0 / (gap - 1.5 * delta))


def keyed_generator(seed: int, stream: int) -> np.random.Generator:
    """The counter-based generator of one (seed, stream) pair: Philox keyed
    by the seed modulo 2^64 and the stream, so any integer seed (negative
    ones included) names one reproducible sequence."""
    key = np.array([seed % (1 << 64), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DomainMap:
    """Vertical shift map from the reference strip onto a perturbed strip.

    Construction rejects configurations whose analytic envelope for |J2|
    (max_slope * sup|f_eta - f0|) reaches 1 - epsilon_margin; that keeps
    det J = 1 + J2 bounded away from zero by a fixed, checkable margin.
    """

    f0: SurfaceFn
    f_eta: SurfaceFn
    cutoff: CutoffFn
    epsilon_margin: float = 0.05

    def __post_init__(self):
        x = np.linspace(0.0, self.f0.period, _SUP_GRID, endpoint=False)
        dsup = float(np.max(np.abs(self.f_eta.f(x) - self.f0.f(x))))
        j2_envelope = self.cutoff.max_slope * dsup
        if j2_envelope > 1.0 - self.epsilon_margin:
            raise MapSingularError(
                f"sup|J2| envelope {j2_envelope:.6g} exceeds "
                f"1 - epsilon = {1.0 - self.epsilon_margin:.6g}"
            )

    def surface_terms(self, y1) -> tuple:
        """(f0, f_eta - f0, f0', f_eta' - f0') at abscissae y1: everything
        H takes from the two surfaces."""
        f0 = self.f0.f(y1)
        df0 = self.f0.df(y1)
        return f0, self.f_eta.f(y1) - f0, df0, self.f_eta.df(y1) - df0

    def apply(self, pts: np.ndarray, surface=None) -> np.ndarray:
        """Map points (..., 2) from the reference strip into the image strip.
        `surface` holds `surface_terms` at the points' x1, when the caller
        has them."""
        pts = np.asarray(pts, dtype=float)
        y1, y2 = pts[..., 0], pts[..., 1]
        if surface is None:
            f0 = self.f0.f(y1)
            diff = self.f_eta.f(y1) - f0
        else:
            f0, diff = surface[:2]
        out = pts.copy()
        out[..., 1] = y2 + self.cutoff(y2 - f0) * diff
        return out

    def jacobian(self, pts: np.ndarray,
                 surface=None) -> tuple[np.ndarray, np.ndarray]:
        """Return (J1, J2) at points (..., 2); the Jacobi matrix is
        [[1, 0], [J1, 1 + J2]].  `surface` is as for `apply`."""
        pts = np.asarray(pts, dtype=float)
        y1, y2 = pts[..., 0], pts[..., 1]
        f0, diff, df0, ddiff = (self.surface_terms(y1) if surface is None
                                else surface)
        s = y2 - f0
        a = self.cutoff(s)
        da = self.cutoff.slope(s)
        j1 = a * ddiff - da * df0 * diff
        j2 = da * diff
        return j1, j2


def check_invertibility(dmap: DomainMap, grid_resolution: int,
                        h: float | None = None) -> float:
    """Min of det J over a tensor grid of the reference strip.

    Raises MapSingularError if any grid value of det J is <= 0.
    """
    if grid_resolution < 2:
        raise ParameterError("grid_resolution must be >= 2 per axis")
    per = dmap.f0.period
    top = h if h is not None else dmap.f0.sup() + dmap.cutoff.gap
    x1 = np.linspace(0.0, per, grid_resolution, endpoint=False)
    f0 = dmap.f0.f(x1)
    s = np.linspace(0.0, 1.0, grid_resolution)
    pts = np.empty((grid_resolution, grid_resolution, 2))
    pts[..., 0] = x1[:, None]
    pts[..., 1] = f0[:, None] + s[None, :] * (top - f0[:, None])
    _, j2 = dmap.jacobian(pts)
    detj = 1.0 + j2
    min_detj = float(detj.min())
    if min_detj <= 0.0:
        raise MapSingularError(f"det J = {min_detj:.6g} <= 0 on the check grid")
    return min_detj


@dataclass(frozen=True)
class RandomSurfaceModel:
    """Truncated random cosine perturbation of a reference surface.

    f(eta; x1) = f0(x1) + sum_j a_j * xi_j * cos(2*pi*j*x1/period + theta_j)
    with xi_j iid uniform on [-1, 1] drawn from a counter-based generator
    keyed by (seed, sample index).  The triangle inequality
    sum_j |a_j| (1 + 2*pi*j/period) <= M0 guarantees the 1,inf-norm bound
    for every draw.
    """

    f0: SurfaceFn
    mode_count: int
    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]
    M0: float
    seed: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        phas = np.asarray(self.phases, dtype=float)
        if len(amps) != self.mode_count or len(phas) != self.mode_count:
            raise ParameterError(
                "amplitudes and phases must both have mode_count entries")
        per = self.f0.period
        j = np.arange(1, self.mode_count + 1)
        bound = float(np.sum(np.abs(amps) * (1.0 + 2.0 * math.pi * j / per)))
        if bound > self.M0:
            raise ParameterError(
                f"sum |a_j| (1 + 2*pi*j/period) = {bound:.6g} exceeds "
                f"M0 = {self.M0}; the 1,inf bound would not be guaranteed"
            )
        object.__setattr__(self, "_norm_bound", bound)

    @property
    def norm_bound(self) -> float:
        """Tight triangle-inequality bound on ||f(eta) - f0||_{1,inf}."""
        return self._norm_bound

    @property
    def lipschitz_envelope(self) -> float:
        """Lipschitz constant valid for every draw: L0 = L + sup|df - df0|."""
        per = self.f0.period
        j = np.arange(1, self.mode_count + 1)
        amps = np.asarray(self.amplitudes, dtype=float)
        return self.f0.lipschitz + float(
            np.sum(np.abs(amps) * 2.0 * math.pi * j / per))


def sample_surface(model: RandomSurfaceModel, index: int) -> SurfaceFn:
    """Draw surface number `index`; pure function of (model, index)."""
    if index < 0:
        raise ParameterError("sample index must be >= 0")
    per = model.f0.period
    xi = keyed_generator(model.seed, index).uniform(-1.0, 1.0,
                                                    size=model.mode_count)
    pert = cosine_surface(0.0, np.asarray(model.amplitudes, dtype=float) * xi,
                          np.arange(1, model.mode_count + 1), model.phases,
                          model.f0.f_min, model.f0.f_max, per)
    f0, df0 = model.f0.f, model.f0.df
    surf = SurfaceFn(f=lambda x: f0(x) + pert.f(x),
                     df=lambda x: df0(x) + pert.df(x),
                     f_min=model.f0.f_min, f_max=model.f0.f_max,
                     lipschitz=model.lipschitz_envelope, period=per)
    surf.validate()
    return surf


@dataclass(frozen=True)
class SourceJitter:
    """Per-sample perturbation law: uniform center shift and relative
    amplitude scaling, drawn deterministically from (seed, index)."""

    center_radius: float = 0.0
    amplitude_rel: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class SourceField:
    """Smooth compactly-supported bump source.

    g(x) = amplitude * exp(1 - 1/(1 - r^2)) for r = |x - center|/radius < 1,
    zero outside; the peak value of the scalar profile is exactly 1.  The
    x1-distance is wrapped periodically so the support may straddle the seam.
    """

    center: tuple[float, float]
    radius: float
    amplitude: tuple[complex, complex]
    period: float

    def _r2(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        dx = pts[..., 0] - self.center[0]
        dx = np.mod(dx + 0.5 * self.period, self.period) - 0.5 * self.period
        dy = pts[..., 1] - self.center[1]
        return (dx * dx + dy * dy) / self.radius ** 2, dx, dy

    def support_elements(self, rule) -> np.ndarray:
        """Indices of the triangles of a quadrature rule (a mesh's
        `Quadrature` or a `MappedQuadrature`) with a point inside the
        support disk: outside those the source and its gradient vanish.

        Only the triangles whose x2 range (`rule.x2_range()`, padded far
        above rounding) meets the disk's have their points tested, so a
        plain rule evaluates its points on those alone.
        """
        lo, hi = rule.x2_range()
        reach = self.radius * (1.0 + 1e-9)
        near = np.flatnonzero((hi > self.center[1] - reach)
                              & (lo < self.center[1] + reach))
        r2, _, _ = self._r2(rule.take(near).points)
        return near[np.any(r2 < 1.0, axis=-1)]

    def profile(self, pts: np.ndarray) -> np.ndarray:
        """Scalar bump value at points (..., 2)."""
        r2, _, _ = self._r2(pts)
        out = np.zeros(r2.shape)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    def profile_grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradient (..., 2) of the scalar bump."""
        r2, dx, dy = self._r2(pts)
        out = np.zeros(r2.shape + (2,))
        inside = r2 < 1.0
        fac = np.zeros(r2.shape)
        one_m = 1.0 - r2[inside]
        fac[inside] = np.exp(1.0 - 1.0 / one_m) * (-2.0 / one_m ** 2) / self.radius ** 2
        out[..., 0] = fac * dx
        out[..., 1] = fac * dy
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Vector value (..., 2) complex."""
        b = self.profile(pts)
        amp = np.asarray(self.amplitude, dtype=complex)
        return b[..., None] * amp

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Component gradients (..., 2, 2): [j, k] = d g_j / d x_k."""
        db = self.profile_grad(pts)
        amp = np.asarray(self.amplitude, dtype=complex)
        return amp[..., :, None] * db[..., None, :]


@dataclass(frozen=True)
class SourceSpec:
    """Bump-source configuration; jitter makes per-sample variants."""

    center: tuple[float, float]
    radius: float
    amplitude: tuple[complex, complex]
    period: float = 1.0
    jitter: SourceJitter | None = None


def make_source(spec: SourceSpec, index: int | None = None,
                f_max: float | None = None,
                h: float | None = None) -> SourceField:
    """Instantiate the source, jittered for a given sample index.

    When f_max and h are given, the (possibly jittered) support disk is
    required to stay strictly inside the band f_max < x2 < h.
    """
    center = np.asarray(spec.center, dtype=float)
    amp = np.asarray(spec.amplitude, dtype=complex)
    if spec.jitter is not None and index is not None:
        gen = keyed_generator(spec.jitter.seed, index)
        angle = gen.uniform(0.0, 2.0 * math.pi)
        rad = spec.jitter.center_radius * math.sqrt(gen.uniform(0.0, 1.0))
        center = center + rad * np.array([math.cos(angle), math.sin(angle)])
        amp = amp * (1.0 + spec.jitter.amplitude_rel * gen.uniform(-1.0, 1.0))
    if f_max is not None and h is not None:
        lo, hi = center[1] - spec.radius, center[1] + spec.radius
        if lo <= f_max or hi >= h:
            raise SourceSupportError(
                f"source disk x2-range [{lo:.6g}, {hi:.6g}] must lie strictly "
                f"inside ({f_max}, {h})"
            )
    return SourceField(center=(float(center[0]), float(center[1])),
                       radius=float(spec.radius),
                       amplitude=(complex(amp[0]), complex(amp[1])),
                       period=float(spec.period))
