"""Smoke test: every script in demos/ and the README's library quick start run to the end."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_prints_its_branches(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    pairs = [tuple(line.split()[:2]) for line in capsys.readouterr().out.splitlines()]
    assert pairs == [("0", "0"), ("8", "12")]
