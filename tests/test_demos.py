"""Every demo prints exactly the bytes it printed when its digest was
recorded: a refactor that changes a demo's stdout fails here.

Re-record a digest only for a change that is meant to alter what a demo
prints:  PYTHONPATH=src python demos/<name>.py | sha256sum
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "01_syntax_and_coding.py": "824c74aaf8a3f4908640dee93c4f4ba58a3b74b0063216eb25480d7ba85bb03c",
    "02_hierarchy_and_reflection.py": "6a372f0c2f08e70ba1658edcf827836a1fe276969e5e6035b22fee0c0e22fadb",
    "03_diagonal_and_craig.py": "f485712cf1181f48ef4e0cf29dd0807557c7c6d69f31c035f7df5d839240dcb9",
    "04_descending_sequences.py": "6b07f72028a4cf86f678bd7e51be531934793a94443769772c1c1eb1dda6f77d",
    "05_ds_sentences_and_eval.py": "a20135956aaaa41aefb0b593c01984d817e0b6c1d0581b73916b49629fc0c529",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
