"""CLI tests run ``python -m effop`` in a child process; point the child at
the same package this process imported, installed or not."""

import os
from pathlib import Path

import pytest

import effop
from effop.harness import matio

_SRC = str(Path(effop.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def stream_route(monkeypatch):
    """Read matrix files as on a platform without x87's ``longdouble``: every
    chunk goes through ``np.loadtxt``, as a chunk strtold does not read does."""
    monkeypatch.setattr(matio, "_X87_LONGDOUBLE", False)
