"""Benchmark of the elastodtn CLI commands, driven from outside the package.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Workloads are defined in
``workloads.py``: ``solve-49k``, ``ensemble-12k`` and ``verify-battery``.

Each run starts one worker process (``worker.py``) that imports the package
from ``src``, loads the generated config and calls
``elastodtn.cli.run_command`` in a closed loop with one client, for about
``--seconds`` (at least two commands).  Every command's artifacts are
checked; a command that raises, exits non-zero or writes wrong artifacts
counts as failed.
BLAS threads are left as the environment sets them.

Times are scaled to a reference host speed: the worker times a fixed
calibration kernel (``hostspeed.py``) after the set-up and after each
command, and a time measured while the kernel took k seconds is reported as
time * hostspeed.REFERENCE_S / k (for a command, k is the mean of the kernel
timings on either side).  On a shared VM the CPU speed drifts by up to a
quarter over minutes; the scaling removes that drift, not changes in the
package, which the kernel never calls.  Set-up times are scaled on every
workload; command times (and the traced self times within them) on the
workloads with ``host_scaled`` set, which are all but ``ensemble-12k``.
Raw times are kept in result.json.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics:

  setup_s        median over several fresh processes of the time to import
                 elastodtn and load the config
  wall_s         median wall time of one command
  samples_per_s  median of samples per command over its wall time (the
                 ensemble solves N samples; the other commands count as one)
  peak_rss_mb    peak resident memory of the worker process (ru_maxrss)
  ok_frac        commands that passed over commands attempted

With ``--trace 1`` the worker alternates traced and untraced commands and
the result holds the per-layer metrics of ``tracer.PER_LAYER``: medians over
the traced commands of each layer's self time, plus exact counts.  The run
is marked incorrect if a count differs between repeats or a span the
workload must reach is never recorded.

The full record of each run (every command, every span total, library and
thread provenance, and the share of CPU time the hypervisor stole during the
run) is written to ``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from worker import cpu_ticks, steal_frac  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4          # extra fresh processes that only time the set-up
CHILD_TIMEOUT_S = 170.0   # hard cap on any one child process


def _run_child(args: list, timeout: float) -> None:
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:  # timed out, interrupted or terminated
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def _worker(workload: str, seed: int, seconds: float, trace: int,
            cfg_path: Path, out: Path, result: Path, setup_only: bool,
            timeout: float) -> dict:
    if result.exists():
        result.unlink()
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--config", str(cfg_path), "--out", str(out),
            "--result", str(result)]
    _run_child(args + (["--setup-only"] if setup_only else []), timeout)
    return json.loads(result.read_text())


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setups: list) -> dict:
    walls = [c["wall_ref_s"] for c in run["commands"]]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "samples_per_s": _metric(
            statistics.median(run["samples"] / w for w in walls), "1/s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MiB"),
        "ok_frac": _metric(
            sum(not c["problems"] for c in run["commands"]) / len(walls),
            "ratio"),
    }


def per_layer(run: dict) -> tuple[dict, list]:
    traced = run["traced"]
    per_command = [t["metrics"] for t in traced]
    metrics = {}
    for name, unit in tracer.PER_LAYER.items():
        values = [m.get(name, 0.0) * (t["wall_ref_s"] / t["wall_s"]
                                      if unit == "s" else 1.0)
                  for m, t in zip(per_command, traced)]
        metrics[name] = _metric(statistics.median(values), unit)
    metrics["config.load_config.s"] = _metric(run["load_config_ref_s"], "s")
    plain = [c["wall_ref_s"] for c in run["commands"] if not c["traced"]]
    with_trace = [t["wall_ref_s"] for t in traced]
    base = statistics.median(plain)
    metrics["trace.overhead_frac"] = _metric(
        (statistics.median(with_trace) - base) / base, "ratio")
    problems = tracer.count_mismatches(per_command)
    must_hit = workloads.WORKLOADS[run["workload"]].must_hit
    for t in traced:
        problems += tracer.coverage_gaps(must_hit, set(t["hit"]))
    return metrics, sorted(set(problems))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "elastodtn" / "__init__.py").is_file():
        print(f"benchmark: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    base = ROOT / ".bench_out" / workload.name
    out = base / "artifacts"
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = workloads.write_config(workload, args.seed,
                                      base / "config.ini")
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def remaining() -> float:
        return max(1.0, deadline - time.monotonic())

    ticks = cpu_ticks()
    try:
        run = _worker(workload.name, args.seed, args.seconds, args.trace,
                      cfg_path, out, base / "worker.json", False,
                      remaining())
        run["workload"] = workload.name
        setups = [run["setup_ref_s"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _worker(workload.name, args.seed, args.seconds, 0,
                                cfg_path, out, base / "probe.json", True,
                                remaining())
                setups.append(probe["setup_ref_s"])
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    commands = run["commands"]
    failed = sum(bool(c["problems"]) for c in commands)
    problems = [p for c in commands for p in c["problems"]]
    if args.trace:
        metrics, guard = per_layer(run)
        problems += guard
    else:
        metrics = end_to_end(run, setups)
        guard = []
    run["setup_probes_s"] = setups
    run["steal_frac"] = steal_frac(ticks, cpu_ticks())
    run["guard_problems"] = guard
    (base / "result.json").write_text(json.dumps(run, indent=1))

    for p in problems:
        print(f"benchmark: {workload.name}: {p}", file=sys.stderr)
    print(json.dumps({"workload": workload.name,
                      "commands": len(commands),
                      "provenance": run["provenance"]}))
    print(json.dumps({"correct": not problems, "attempted": len(commands),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
