"""Shared pytest set-up: a fixed hypothesis profile for the property tests,
and a counter of sparse factors.

The profile draws the same few examples on every run (``derandomize``) and
keeps no example database, so the suite stays deterministic and quick.
"""

import pytest

from groundflow import _solve

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "groundflow", derandomize=True, max_examples=20, deadline=None, database=None
    )
    settings.load_profile("groundflow")


@pytest.fixture
def factor_count(monkeypatch):
    """List that grows by the matrix shape of each SuperLU factor built."""
    built = []
    factor = _solve.splu

    def counting(mat, *args, **kwargs):
        built.append(mat.shape)
        return factor(mat, *args, **kwargs)

    monkeypatch.setattr(_solve, "splu", counting)
    return built
