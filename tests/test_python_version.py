"""Every Python file in the repository parses under the oldest supported
grammar (pyproject.toml: requires-python >= 3.10)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_as_python_3_10():
    files = sorted(p for d in ("src", "tests", "perfbench", "demos") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
