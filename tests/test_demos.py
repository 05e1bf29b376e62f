"""Each demo prints what ``demos/expected/<name>.txt`` holds, byte for byte,
and each ```python block of ``README.md`` runs.

A demo or a README block is run as a user runs it, a fresh interpreter on
the checkout's ``src``, so one that calls a removed API fails here and not
only in CI.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_an_expected_output():
    assert [d.stem for d in DEMOS] == sorted(
        p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_expected_output(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    got = subprocess.run([sys.executable, str(demo)], env=env, check=True,
                         capture_output=True).stdout
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert got.decode() == want.decode()  # a failure shows a text diff


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        got = subprocess.run([sys.executable, "-c", block], env=env,
                             capture_output=True)
        assert got.returncode == 0, got.stderr.decode()
