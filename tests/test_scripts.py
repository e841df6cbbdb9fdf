"""Every experiment script starts (its imports resolve against the package),
and the ensemble study runs end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


def _run_script(script: Path, *args: str,
                timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_help(script):
    proc = _run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_ensemble_study_runs():
    # the ensemble path end to end, with a thread pool
    proc = _run_script(ROOT / "scripts" / "ensemble_study.py", "--samples",
                       "2", "--omegas", "2.0", "--parallelism", "2",
                       timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "ok=True" in proc.stdout
    # the solver line: GMRES on both samples, no fallback to LU
    match = re.search(r"gmres iterations (\d+)-(\d+)  lu fallbacks (\d+)/2",
                      proc.stdout)
    assert match, proc.stdout
    lo, hi, fallbacks = map(int, match.groups())
    assert 1 <= lo <= hi and fallbacks == 0


def test_mms_study_runs():
    # both surfaces, three levels each, each keeping every DtN mode its
    # mesh resolves
    proc = _run_script(ROOT / "scripts" / "mms_study.py", "--levels", "3")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    for kind in ("flat", "wavy"):
        assert f"--- {kind} surface, omega = 4.0 ---" in proc.stdout
    header = re.findall(r"^ +mesh size +H1 error +L2 error +solver +iters "
                        r"+n_max$", proc.stdout, re.M)
    rows = re.findall(r"^ +[\d.e-]+ +[\d.e-]+ +[\d.e-]+ +(\w+) +\d+ +(\d+)$",
                      proc.stdout, re.M)
    assert len(header) == 2 and len(rows) == 6, proc.stdout
    # levels nx 24, 48 and 96 on period 3: Nyquist indices 11, 23 and 47
    assert [int(n_max) for _, n_max in rows] == [11, 23, 47] * 2
    assert proc.stdout.count("observed H1 orders:") == 2


def test_frequency_sweep_runs():
    proc = _run_script(ROOT / "scripts" / "frequency_sweep.py", "--points",
                       "3", "--nx", "32", "--ny", "48")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    rows = re.findall(r"^ +([\d.]+) +[\d.e-]+ +[\d.e-]+ +\w+ +\d+$",
                      proc.stdout, re.M)
    assert [float(om) for om in rows] == [2.0, 5.6569, 16.0], proc.stdout
    assert "fitted slope (top half):" in proc.stdout
