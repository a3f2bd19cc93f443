"""Shared pytest set-up: a fixed hypothesis profile for the property tests,
and counters of sparse factors and of the eigen-solver's solves.

The profile draws the same few examples on every run (``derandomize``) and
keeps no example database, so the suite stays deterministic and quick.
"""

import pytest

from groundflow import _solve, schrodinger

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


@pytest.fixture
def solve_count(monkeypatch):
    """One-entry list counting the solves with every factor the eigen-solver
    builds: its Lanczos steps and the solves that form e0."""
    solves = [0]
    make_solver = _solve.spd_solver

    def counting_solver(*args):
        solve = make_solver(*args)

        def counted(rhs):
            solves[0] += 1
            return solve(rhs)
        return counted

    monkeypatch.setattr(schrodinger, "spd_solver", counting_solver)
    return solves
