"""Span tracing of the elastodtn layers, patched in from outside the package.

`Tracer.install()` replaces every public function (a module-level function
whose name has no leading underscore) of each layer module with a wrapper
that records a span (name, parent, start, end, thread).  The wrapper goes
into *every* binding of the function, so names imported into other modules
(``cli.assemble_B``, ``montecarlo.solve``, ...) are traced as well.  It also wraps ``DomainMap.jacobian`` and the ``splu`` entry that
``fem.solve`` calls; the factorization is split into ``fem.factor`` and the
triangular solves into ``fem.trisolve``.  `uninstall()` restores the
originals.

Spans are kept in memory; `command_metrics()` reduces the spans of one
command to self times and counts.  A span's self time is its duration minus
the durations of its direct children in the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("config", "mesh", "model", "dtn", "fem", "montecarlo", "verify",
          "cli")

# Counts that are a pure function of the config: any difference between
# repeats of one command is flagged.
EXACT_COUNTS = ("fem.dofs", "fem.nnz_a", "fem.factor.nnz_lu",
                "model.jacobian.points", "dtn.symbol_matrices.calls",
                "mesh.build_mesh.calls", "model.jacobian.calls")

# The per-layer metrics the traced run reports: name -> unit.
PER_LAYER = {
    "config.load_config.s": "s",
    "mesh.build_mesh.s": "s",
    "mesh.build_mesh.calls": "count",
    "model.check_invertibility.s": "s",
    "model.jacobian.calls": "count",
    "model.jacobian.points": "count",
    "dtn.symbol_matrices.calls": "count",
    "dtn.symbol_bound_check.s": "s",
    "fem.assemble_B.s": "s",
    "fem.assemble_load.s": "s",
    "fem.assemble_B_transformed.s": "s",
    "fem.assemble_load_transformed.s": "s",
    "fem.solve.s": "s",
    "fem.factor.s": "s",
    "fem.trisolve.s": "s",
    "fem.factor.nnz_lu": "count",
    "fem.dofs": "count",
    "fem.nnz_a": "count",
    "fem.norms.s": "s",
    "fem.solve.failed": "count",
    "montecarlo.run_sample.s": "s",
    "montecarlo.pushforward_h1_sq.s": "s",
    "montecarlo.pullback_source_h1_sq.s": "s",
    "montecarlo.busy_frac": "ratio",
    "verify.pullback_identity_check.s": "s",
    "verify.mms_convergence.s": "s",
    "verify.rellich_residual.s": "s",
    "verify.poincare_check.s": "s",
    "cli.self.s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int


class _TracedLU:
    """Proxy for a SuperLU factor that traces its triangular solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("fem.trisolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ----- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(self, name: str):
        return _SpanContext(self, name)

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)

    def _wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name + ".calls")
            if on_call is not None:
                on_call(args)
            try:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            except Exception:
                tracer.count(name + ".failed")
                raise

        wrapper.__traced__ = fn
        return wrapper

    def _splu(self, original):
        tracer = self

        @functools.wraps(original)
        def splu(a, *args, **kwargs):
            with tracer.span("fem.factor"):
                lu = original(a, *args, **kwargs)
            tracer.count("fem.factor.calls")
            tracer.count("fem.factor.nnz_lu", lu.nnz)
            tracer.count("fem.dofs", a.shape[0])
            tracer.count("fem.nnz_a", a.nnz)
            return _TracedLU(lu, tracer)

        splu.__traced__ = original
        return splu

    # ----- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions in every module binding."""
        # Functions are matched by identity, so a name imported into another
        # module (cli.assemble_B) gets the same wrapper as its definition.
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"elastodtn.{layer}")
                   for layer in LAYERS}
        holders = list(modules.values()) + [importlib.import_module(
            "elastodtn")]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(holder, attr, wrappers[id(value)][1])

        def jacobian_points(args):
            pts = args[1]
            self.count("model.jacobian.points", getattr(pts, "size", 2) // 2)

        dmap_cls = modules["model"].DomainMap
        self._set(dmap_cls, "jacobian",
                  self._wrap("model.jacobian", dmap_cls.jacobian,
                             jacobian_points))
        spla = modules["fem"].spla
        self._set(spla, "splu", self._splu(spla.splu))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ----- reduction --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum of self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.sid]
        return out

    def command_metrics(self, workers: int) -> dict[str, float]:
        """Per-layer metrics of the command traced since the last reset()."""
        selft = self.self_times()
        metrics = {}
        for name, unit in PER_LAYER.items():
            if unit == "s":
                metrics[name] = selft.get(name[:-2], 0.0)
            elif unit == "count":
                metrics[name] = self.counts.get(name, 0.0)
        samples = [s.end - s.start for s in self.spans
                   if s.name == "montecarlo.run_sample"]
        # Per-sample wall time (inclusive of its children), median.
        metrics["montecarlo.run_sample.s"] = (
            statistics.median(samples) if samples else 0.0)
        ens = [s.end - s.start for s in self.spans
               if s.name == "montecarlo.run_ensemble"]
        metrics["montecarlo.busy_frac"] = (
            sum(samples) / (sum(ens) * workers) if ens else 0.0)
        metrics["cli.self.s"] = selft.get("cli.run_command", 0.0)
        return metrics

    def hit(self) -> set[str]:
        return {s.name for s in self.spans}


class _SpanContext:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack().pop()
        span = Span(self.sid, self.parent, self.name, self.start, end,
                    threading.get_ident())
        with self.tracer._lock:
            self.tracer.spans.append(span)
        return False


def count_mismatches(per_command: list[dict]) -> list[str]:
    """Exact counts that differ between repeats of one command."""
    problems = []
    for name in EXACT_COUNTS:
        values = [m.get(name, 0.0) for m in per_command]
        if len(set(values)) > 1:
            problems.append(f"{name} differs between repeats: {values}")
    return problems


def coverage_gaps(must_hit, hit: set[str]) -> list[str]:
    """Traced functions a workload should reach but did not."""
    return [f"span {name} never recorded" for name in must_hit
            if name not in hit]
