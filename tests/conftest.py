"""pyproject's `pythonpath = ["src"]` reaches this process only; the CLI
tests that start `python -m qsl2r.cli` children need src/ on their
PYTHONPATH too, so a bare `python -m pytest` runs from an uninstalled
checkout."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, old) if p)
    yield
    if old is None:
        del os.environ["PYTHONPATH"]
    else:
        os.environ["PYTHONPATH"] = old
