"""CLI tests run ``python -m effop`` in a child process; point the child at
the same package this process imported, installed or not."""

import os
from pathlib import Path

import effop

_SRC = str(Path(effop.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
