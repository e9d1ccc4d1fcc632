"""The scripts under scripts/ run from a checkout, as README shows them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_state_growth_runs_from_a_checkout():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "state_growth.py"),
         "--max-k", "3", "--random", "2", "--states", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "k-symbol family (compact parity vs reference Rabin):" in proc.stdout
    assert "random Buchi automata, 2 seeds per size:" in proc.stdout
    columns = [line.split()[:2] for line in proc.stdout.splitlines()]
    assert ["k", "bound"] in columns and ["n", "bound"] in columns
