"""CLI tests run ``python -m effop`` in a child process; point the child at
the same package this process imported, installed or not."""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import effop
from effop import transform
from effop.harness import matio

_SRC = str(Path(effop.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def stream_route(monkeypatch):
    """Read matrix files as on a platform without x87's ``longdouble``: every
    chunk goes through ``np.loadtxt``, as a chunk strtold does not read does."""
    monkeypatch.setattr(matio, "_X87_LONGDOUBLE", False)


@pytest.fixture
def noisy_maps(monkeypatch):
    """Call with eps to add relative noise to every map that
    ``transform.construct_s_from_span`` builds, the direct route's included:
    s gains a seeded random complex matrix of Frobenius norm eps (1 + ||s||),
    a fresh one for each map, so two maps of one subspace differ too."""
    def inject(eps):
        rng = np.random.default_rng(0)
        exact = transform.construct_s_from_span

        def noisy(*args, **kwargs):
            dm = exact(*args, **kwargs)
            noise = rng.standard_normal(dm.s.shape) + 1j * rng.standard_normal(dm.s.shape)
            size = max(float(np.linalg.norm(noise)), np.finfo(float).tiny)
            return replace(dm, s=dm.s + eps * (1.0 + np.linalg.norm(dm.s)) / size * noise)

        monkeypatch.setattr(transform, "construct_s_from_span", noisy)
    return inject
