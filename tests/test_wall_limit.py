"""The wall limit that `conftest.py` puts on every test."""

import os
import subprocess
import sys
from pathlib import Path

from helpers import child_env

TESTS = Path(__file__).resolve().parent


def test_a_hung_test_fails_alone_with_a_traceback(tmp_path):
    """The wall limit of conftest.py turns a hang into one failing test."""
    (tmp_path / "test_hang.py").write_text(
        "def test_spins():\n"
        "    while True:\n"
        "        pass\n"
        "\n"
        "def test_after():\n"
        "    pass\n"
    )
    run = (
        "import sys, pytest, conftest\n"
        "conftest.TEST_WALL_LIMIT_S = 0.5\n"
        "sys.exit(pytest.main([sys.argv[1], '-q', '-p', 'no:cacheprovider'],"
        " plugins=[conftest]))\n"
    )
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-c", run, str(tmp_path / "test_hang.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
    assert "TimeoutError: test_hang.py::test_spins ran longer than 0.5 s" in proc.stdout
    assert "while True:" in proc.stdout
