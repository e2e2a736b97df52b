"""The suite refuses to run when PYTHONPATH names another tree's etsbell."""

import os
import subprocess
import sys
from pathlib import Path

import etsbell

ROOT = Path(__file__).resolve().parent.parent


def test_a_pythonpath_copy_stops_collection(tmp_path):
    # pyproject.toml puts this tree's src first, so this run would test
    # this tree while PYTHONPATH names the copy; conftest stops it instead
    copy = tmp_path / "etsbell"
    copy.mkdir()
    (copy / "__init__.py").write_text("")
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--collect-only", "tests/test_states.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    output = done.stdout + done.stderr
    assert str(copy) in output
    assert str(Path(etsbell.__file__).resolve().parent) in output
