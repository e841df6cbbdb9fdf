"""Record the reference artifacts the benchmark compares against.

    python3 benchmark/record_reference.py

Runs ``solve-49k`` and ``ensemble-12k`` once at the default seed and writes
their ``norms.csv`` and ``ensemble.csv`` values to ``reference.json``.
Re-record only when a change is meant to alter these results, and say so.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from elastodtn import cli, config  # noqa: E402


def _run(name: str, artifact: str) -> list:
    workload = workloads.WORKLOADS[name]
    base = ROOT / ".bench_out" / "reference" / name
    base.mkdir(parents=True, exist_ok=True)
    cfg_path = workloads.write_config(workload, workloads.DEFAULT_SEED,
                                      base / "config.ini")
    cfg = dataclasses.replace(config.load_config(cfg_path),
                              command=workload.command,
                              seed=workloads.DEFAULT_SEED)
    if cli.run_command(cfg, str(base)) != 0:
        raise SystemExit(f"{name}: command failed")
    with open(base / artifact, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in row] for row in rows]


def main() -> int:
    ref = {
        "seed": workloads.DEFAULT_SEED,
        "solve-49k": {"norms.csv": _run("solve-49k", "norms.csv")},
        "ensemble-12k": {"ensemble.csv": _run("ensemble-12k",
                                              "ensemble.csv")},
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
