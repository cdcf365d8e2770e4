import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    # each demo asserts its own claims; a fresh interpreter per script
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True,
                            text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
