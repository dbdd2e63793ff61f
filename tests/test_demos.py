"""Smoke test: every script under demos/ and the README's library
example run cleanly against the library in src/, so an API change
cannot break one unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_readme_library_use_runs(capsys):
    # the README's library example, shrunk to a few seconds
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    full = "samples_per_class=80, max_epochs=30"
    assert full in code
    exec(compile(code.replace(full, "samples_per_class=10, max_epochs=10"), "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
