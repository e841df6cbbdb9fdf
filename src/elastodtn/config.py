"""INI-style run configuration: sections in brackets, key = value lines,
comma-separated lists.  Missing keys take documented defaults; the fully
resolved config can be re-serialized byte-stably for provenance.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import (
    ElasticParams,
    Geometry,
    RandomSurfaceModel,
    SourceField,
    SourceJitter,
    SourceSpec,
    SurfaceFn,
    cosine_surface,
    flat_surface,
    make_params,
    make_source,
    sawtooth_surface,
)

__all__ = ["RunConfig", "load_config", "resolved_text", "validate"]

_COMMANDS = ("solve", "mms", "sweep-omega", "ensemble", "verify-all")


@dataclass(frozen=True)
class RunConfig:
    # physics
    lam: float = 1.0
    mu: float = 1.0
    omega: float = 2.0
    omega_list: tuple[float, ...] = ()
    # geometry
    period: float = 1.0
    h: float = 1.4
    m: float = 0.2
    M: float = 0.4
    f0_kind: str = "flat"
    f0_level: float = 0.3
    f0_amplitudes: tuple[float, ...] = ()
    f0_modes: tuple[int, ...] = ()
    f0_phases: tuple[float, ...] = ()
    # surface model
    mode_count: int = 1
    amplitudes: tuple[float, ...] = (0.03,)
    phases: tuple[float, ...] = (0.0,)
    M0: float = 0.25
    seed: int = 12345
    # source
    center: tuple[float, float] = (0.5, 0.8)
    radius: float = 0.15
    amplitude_re: tuple[float, float] = (1.0, 0.0)
    amplitude_im: tuple[float, float] = (0.0, 0.0)
    jitter_center: float = 0.0
    jitter_amplitude: float = 0.0
    jitter_seed: int = 0
    # discretization
    nx: int = 32
    ny: int = 48
    n_max: int = 0  # only 0: the DtN keeps every mode the mesh resolves
    # run
    command: str = "solve"
    N: int = 32
    parallelism: int = 1
    output_dir: str = "out"
    epsilon_margin: float = 0.05
    delta: float = 0.0  # 0 = auto: gap/8
    levels: int = 3
    calibrated_c: float = 0.0  # 0 = auto-anchor
    anchor_safety: float = 2.0

    # ----- derived builders -------------------------------------------------

    def make_params(self, omega: float | None = None) -> ElasticParams:
        return make_params(self.lam, self.mu,
                           self.omega if omega is None else omega)

    def make_surface(self) -> SurfaceFn:
        if self.f0_kind == "flat":
            return flat_surface(self.f0_level, self.m, self.M, self.period)
        if self.f0_kind == "cosine":
            return cosine_surface(self.f0_level, self.f0_amplitudes,
                                  self.f0_modes, self.f0_phases,
                                  self.m, self.M, self.period)
        if self.f0_kind == "sawtooth":
            amp = self.f0_amplitudes[0] if self.f0_amplitudes else 0.05
            return sawtooth_surface(self.f0_level, amp, self.m, self.M,
                                    self.period)
        raise ConfigError(f"geometry.f0_kind: unknown kind {self.f0_kind!r}")

    def make_geometry(self) -> Geometry:
        return Geometry(surface=self.make_surface(), h=self.h)

    def make_model(self) -> RandomSurfaceModel:
        return RandomSurfaceModel(
            f0=self.make_surface(), mode_count=self.mode_count,
            amplitudes=self.amplitudes, phases=self.phases,
            M0=self.M0, seed=self.seed)

    def make_source_spec(self) -> SourceSpec:
        amp = (self.amplitude_re[0] + 1j * self.amplitude_im[0],
               self.amplitude_re[1] + 1j * self.amplitude_im[1])
        jitter = None
        if self.jitter_center > 0.0 or self.jitter_amplitude > 0.0:
            jitter = SourceJitter(center_radius=self.jitter_center,
                                  amplitude_rel=self.jitter_amplitude,
                                  seed=self.jitter_seed)
        return SourceSpec(center=self.center, radius=self.radius,
                          amplitude=amp, period=self.period, jitter=jitter)

    def make_source(self) -> SourceField:
        """The unjittered configured source, its support checked against
        the band M < x2 < h."""
        return make_source(self.make_source_spec(), None, f_max=self.M,
                           h=self.h)


# The INI order is RunConfig's field order; each section opens at its
# first field, and `lam` is the one field whose key is not its name.
_SECTION_STARTS = {"lam": "physics", "period": "geometry",
                   "mode_count": "surface_model", "center": "source",
                   "nx": "discretization", "command": "run"}
_KEYS = {"lam": "lambda"}


def _schema() -> dict[str, dict[str, tuple[str, type]]]:
    """{section: {key: (field name, resolved annotation)}}."""
    hints = typing.get_type_hints(RunConfig)
    schema = {}
    for f in fields(RunConfig):
        if f.name in _SECTION_STARTS:
            keys = schema[_SECTION_STARTS[f.name]] = {}
        keys[_KEYS.get(f.name, f.name)] = (f.name, hints[f.name])
    return schema


_SCHEMA = _schema()


def _parse_value(raw: str, kind: type, path: str):
    """`raw` as `kind`: float, int, str, or a tuple of floats or ints
    written comma-separated."""
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(s.strip()) for s in raw.split(",") if s.strip())
        return raw.strip() if kind is str else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} ({exc})") from exc


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Parse a config file, replace the `RunConfig` fields named in
    `overrides` (the CLI's flags), and fully validate the result."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (m vs M, M0)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key")
            name, kind = _SCHEMA[section][key]
            values[name] = _parse_value(raw, kind, f"{section}.{key}")
    cfg = RunConfig(**{**values, **overrides})
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Raise `ConfigError`, naming the key, unless `cfg` is a config the
    commands can run."""
    def need(cond, path, msg):
        if not cond:
            raise ConfigError(f"{path}: {msg}")

    need(cfg.lam > 0, "physics.lambda", "must be positive")
    need(cfg.mu > 0, "physics.mu", "must be positive")
    need(cfg.omega > 0, "physics.omega", "must be positive")
    need(all(o > 0 for o in cfg.omega_list), "physics.omega_list",
         "entries must be positive")
    if cfg.command == "sweep-omega":
        need(len(cfg.omega_list) >= 2, "physics.omega_list",
             "sweep-omega needs >= 2 entries")
    need(cfg.period > 0, "geometry.period", "must be positive")
    need(cfg.m < cfg.M, "geometry.m", "must satisfy m < M")
    need(cfg.h > cfg.M, "geometry.h", "must exceed M")
    need(cfg.f0_kind in ("flat", "cosine", "sawtooth"), "geometry.f0_kind",
         "must be flat, cosine or sawtooth")
    if cfg.f0_kind == "cosine":
        need(len(cfg.f0_amplitudes) == len(cfg.f0_modes) == len(cfg.f0_phases),
             "geometry.f0_amplitudes", "amplitude/mode/phase lists must match")
    else:  # a list the surface does not read is refused, not ignored
        most = {"f0_amplitudes": 1 if cfg.f0_kind == "sawtooth" else 0,
                "f0_modes": 0, "f0_phases": 0}
        for key, limit in most.items():
            got = len(getattr(cfg, key))
            need(got <= limit, f"geometry.{key}",
                 f"f0_kind = {cfg.f0_kind} reads at most {limit} entries, "
                 f"got {got}")
    need(cfg.mode_count >= 0, "surface_model.mode_count", "must be >= 0")
    need(len(cfg.amplitudes) == cfg.mode_count, "surface_model.amplitudes",
         f"need exactly mode_count={cfg.mode_count} entries")
    need(len(cfg.phases) == cfg.mode_count, "surface_model.phases",
         f"need exactly mode_count={cfg.mode_count} entries")
    need(cfg.M0 > 0, "surface_model.M0", "must be positive")
    j = np.arange(1, cfg.mode_count + 1)
    bound = float(np.sum(np.abs(np.asarray(cfg.amplitudes))
                         * (1.0 + 2.0 * math.pi * j / cfg.period)))
    need(bound <= cfg.M0, "surface_model.amplitudes",
         f"sum |a_j|(1+2 pi j/period) = {bound:.6g} must not exceed M0")
    need(len(cfg.center) == 2, "source.center", "needs two coordinates")
    need(cfg.radius > 0, "source.radius", "must be positive")
    for key in ("jitter_center", "jitter_amplitude"):
        need(getattr(cfg, key) >= 0.0, f"source.{key}",
             "must be >= 0 (0 = no jitter)")
    lo = cfg.center[1] - cfg.radius - cfg.jitter_center
    hi = cfg.center[1] + cfg.radius + cfg.jitter_center
    need(lo > cfg.M and hi < cfg.h, "source.center",
         f"support band [{lo:.6g}, {hi:.6g}] must lie strictly inside "
         f"({cfg.M}, {cfg.h})")
    need(len(cfg.amplitude_re) == 2 and len(cfg.amplitude_im) == 2,
         "source.amplitude_re", "amplitude needs two components")
    need(cfg.nx >= 2 and cfg.ny >= 2, "discretization.nx", "nx, ny must be >= 2")
    need(cfg.n_max == 0, "discretization.n_max",
         f"got {cfg.n_max}, must be 0: the DtN block keeps every mode the "
         "mesh resolves, |n| <= (nx - 1) // 2")
    need(cfg.command in _COMMANDS, "run.command",
         f"must be one of {', '.join(_COMMANDS)}")
    need(cfg.N >= 1, "run.N", "must be >= 1")
    need(cfg.parallelism >= 1, "run.parallelism", "must be >= 1")
    need(0.0 < cfg.epsilon_margin < 1.0, "run.epsilon_margin",
         "must be in (0, 1)")
    need(cfg.delta >= 0.0, "run.delta", "must be >= 0 (0 = auto)")
    need(cfg.levels >= 3, "run.levels", "must be >= 3")
    need(cfg.calibrated_c >= 0.0, "run.calibrated_c",
         "must be >= 0 (0 = auto-anchor)")
    need(cfg.anchor_safety > 0.0, "run.anchor_safety",  # False for NaN too
         "must be a positive number")
    # the surface itself must respect the declared envelope
    surf = cfg.make_surface()
    try:
        surf.validate()
    except Exception as exc:
        raise ConfigError(f"geometry.f0_level: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_text(cfg: RunConfig) -> str:
    """Canonical INI text of the fully-resolved config (byte-stable)."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (name, _) in keys.items():
            lines.append(f"{key} = {_fmt(getattr(cfg, name))}")
        lines.append("")
    return "\n".join(lines)
