"""Each demo runs to completion against this checkout's `src/`.

`demos/07_cli_tour.sh` calls the `rbhopf` console script, which a plain
checkout does not install; its test puts a shim of that name on `PATH`
that runs `python -m rbhopf.cli`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0[1-6]_*.py"))


def test_all_python_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_tour_passes(tmp_path):
    shim = tmp_path / "rbhopf"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m rbhopf.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(["sh", str(ROOT / "demos" / "07_cli_tour.sh")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # set -e: a zero exit means every command exited 0.
    reports = proc.stdout.split("rbhopf-report 1\n")[1:]
    assert [r.split("\n", 1)[0] for r in reports] == [
        "command builtin-list", "command verify", "command verify",
        "command construct", "command construct", "command construct",
        "command rb-check", "command construct", "command verify",
        "command construct", "command rb-check", "command search"]
    for report in reports:
        status = next(ln for ln in report.splitlines()
                      if ln.startswith("status "))
        assert status == "status pass", report
