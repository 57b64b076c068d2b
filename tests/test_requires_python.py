"""The package keeps to the oldest Python that ``pyproject.toml`` declares.

Every module must parse with that version's grammar.  When an interpreter
of that version can be found (``python3.10`` on PATH, directly or as a
pyenv shim), an exhaustive suite also runs under it and must print what it
prints here.
"""

import ast
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from obstrukt.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "obstrukt").glob("*.py"))
OLDEST = (3, 10)
ARGV = ["verify", "--exhaustive", "--n", "2", "--summary"]


def test_oldest_is_the_declared_floor():
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.M)
    assert declared and tuple(map(int, declared.groups())) == OLDEST


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_with_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)


def _oldest_python() -> tuple[str, dict] | None:
    """A ``python3.10`` and the environment it runs in, or None.  A pyenv
    shim runs only when ``PYENV_VERSION`` names an installed 3.10."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    envs = [dict(os.environ)]
    if shutil.which("pyenv"):
        listed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True)
        envs += [dict(os.environ, PYENV_VERSION=v) for v in listed.stdout.split()
                 if v.startswith("3.10.")]
    probe = "import sys; print(sys.version_info[:2])"
    for env in envs:
        ran = subprocess.run([exe, "-c", probe], env=env, capture_output=True, text=True)
        if ran.returncode == 0 and ran.stdout.strip() == str(OLDEST):
            return exe, env
    return None


def test_exhaustive_summary_under_the_oldest_python(capsys):
    found = _oldest_python()
    if found is None:
        pytest.skip("no python3.10 found")
    exe, env = found
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ran = subprocess.run([exe, "-m", "obstrukt.cli", *ARGV], env=env, capture_output=True,
                         text=True, timeout=120)
    assert main(ARGV) == 0
    assert (ran.returncode, ran.stdout, ran.stderr) == (0, capsys.readouterr().out, "")
