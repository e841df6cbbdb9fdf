"""One benchmark process: import elastodtn from the checkout's ``src``, load
the generated config, and run the workload's command in a closed loop (one
client; the next command starts when the previous one has finished).
A command starts only if a typical one (the median so far) would end within
``--seconds``, after at least ``MIN_COMMANDS`` commands.

    python3 benchmark/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --config PATH --out DIR --result PATH [--setup-only]

Writes one JSON document to ``--result``.  With ``--setup-only`` it only
times the set-up (import plus ``load_config``) and exits.  The host-speed
kernel (``hostspeed.py``) runs after the set-up and after every command, so
each command lies between two kernel timings.  With
``--trace 1`` the commands alternate between traced and untraced, starting
traced, with at least two traced and one untraced command.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_COMMANDS = 2

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import elastodtn
    from elastodtn import cli, config
    pkg = Path(elastodtn.__file__).resolve().parent
    if pkg != ROOT / "src" / "elastodtn":
        raise ImportError(f"elastodtn imported from {pkg}, not from the "
                          "checkout")
    return cli, config


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_vendor = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def cpu_ticks() -> list:
    """Aggregate CPU tick counters from /proc/stat (index 7 is steal)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before: list, after: list) -> float | None:
    """Share of all CPU ticks between two readings that the host stole."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _invoke(cli, cfg, out: Path) -> tuple[int, str | None]:
    """Run one command the way the CLI does: exit code 2 on a package error."""
    from elastodtn.errors import ElastoDtnError
    try:
        return cli.run_command(cfg, str(out)), None
    except ElastoDtnError as exc:
        return 2, f"elastodtn: error: {exc}"
    except Exception:  # a crash counts as a failed command, not a dead run
        return 3, traceback.format_exc()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, config = _import_package()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        with tracer.span("setup"):
            cfg = config.load_config(args.config)
        load_config_s = tracer.self_times()["config.load_config"]
        setup_hits = tracer.hit()
        tracer.uninstall()
    else:
        cfg = config.load_config(args.config)
    setup_s = time.perf_counter() - _T0
    import hostspeed
    kernel = [hostspeed.kernel_s()]
    result: dict = {"setup_s": setup_s,
                    "setup_ref_s": hostspeed.scale(setup_s, kernel[0])}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    cfg = dataclasses.replace(cfg, command=workload.command, seed=args.seed)
    out = Path(args.out)
    commands = []
    traced = []
    spans = []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(commands) % 2 == 0
        if trace_this:
            tracer.reset()
            tracer.install()
        ticks = cpu_ticks()
        t0 = time.perf_counter()
        code, error = _invoke(cli, cfg, out)
        wall = time.perf_counter() - t0
        steal = steal_frac(ticks, cpu_ticks())
        if trace_this:
            tracer.uninstall()  # before the kernel, whose splu it wraps
        kernel.append(hostspeed.kernel_s())
        wall_ref = (hostspeed.scale(wall, kernel[-2], kernel[-1])
                    if workload.host_scaled else wall)
        if trace_this:
            traced.append({
                "wall_s": wall,
                "wall_ref_s": wall_ref,
                "metrics": tracer.command_metrics(cfg.parallelism),
                "hit": sorted(tracer.hit() | setup_hits),
                "self_s": dict(tracer.self_times()),
                "counts": dict(tracer.counts),
            })
            spans = [dataclasses.asdict(s) for s in tracer.spans]
        problems = workloads.check_artifacts(workload.name, out, args.seed,
                                             code, reference)
        if error:
            problems.append(error)
        commands.append({"wall_s": wall, "wall_ref_s": wall_ref,
                         "kernel_s": kernel[-2:], "traced": trace_this,
                         "steal_frac": steal, "exit_code": code,
                         "problems": problems})
        enough = len(commands) >= MIN_COMMANDS and (
            tracer is None or (len(traced) >= 2
                               and len(commands) > len(traced)))
        # The next command starts only if a typical one would end within
        # --seconds, so a run lasts about --seconds whatever a command takes.
        typical = statistics.median(c["wall_s"] for c in commands)
        if enough and (time.perf_counter() - start + typical
                       > args.seconds):
            break

    result.update({
        "commands": commands,
        "traced": traced,
        "samples": workload.samples,
        "parallelism": cfg.parallelism,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "provenance": provenance(args.seed),
    })
    if tracer is not None:
        result["load_config_s"] = load_config_s
        result["load_config_ref_s"] = hostspeed.scale(load_config_s,
                                                      kernel[0])
        result["spans"] = spans  # every span of the last traced command
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
