import time
import weakref

import numpy as np
import pytest

from groundflow import (
    ScalarField,
    build_problem,
    laplacian_matrix,
    make_circle_grid,
    make_torus_grid,
)
from groundflow import _solve, heatflow
from groundflow._solve import spd_solver
from groundflow.grid import MIN_POINTS, laplacian_values
from groundflow.heatflow import _imex_step

GRIDS = {
    "circle": make_circle_grid(2 * np.pi, 37),
    "anisotropic-torus": make_torus_grid([(2 * np.pi, MIN_POINTS), (3.0, 9)]),
    "torus-3d": make_torus_grid([(2.0, 5), (2 * np.pi, 6), (1.5, 4)]),
}


@pytest.mark.parametrize("lap_coeff", [0.0, 1e-3, 1.0])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_spd_solver_matches_dense_oracle(name, lap_coeff):
    grid = GRIDS[name]
    rng = np.random.default_rng(7)
    n = grid.total_points
    diag = rng.uniform(0.5, 2.0, n)
    b = rng.standard_normal(n)
    dense = np.diag(diag) - lap_coeff * laplacian_matrix(grid)
    expected = np.linalg.solve(dense, b)
    x = spd_solver(grid, lap_coeff, diag)(b)
    err = np.max(np.abs(x - expected)) / np.max(np.abs(expected))
    assert err <= 1e-12


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_successive_solvers_on_one_grid_match_dense_oracle(name):
    # every factor starts from the grid's one shared Laplacian; a write into
    # it by an earlier call would show in the later ones
    grid = GRIDS[name]
    rng = np.random.default_rng(3)
    n = grid.total_points
    b = rng.standard_normal(n)
    for lap_coeff in (0.0, 1e-3, 1.0, 1e-3, 0.0):
        diag = rng.uniform(0.5, 2.0, n)
        dense = np.diag(diag) - lap_coeff * laplacian_matrix(grid)
        expected = np.linalg.solve(dense, b)
        x = spd_solver(grid, lap_coeff, diag)(b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("lap_coeff", [1e-3, 1.0])
def test_large_circle_backward_error(lap_coeff):
    # far beyond the dense cap; a dense factor at this size is 2 GiB
    grid = make_circle_grid(2 * np.pi, 16384)
    rng = np.random.default_rng(11)
    diag = rng.uniform(0.5, 2.0, grid.total_points)
    b = rng.standard_normal(grid.total_points)
    start = time.perf_counter()
    x = spd_solver(grid, lap_coeff, diag)(b)
    elapsed = time.perf_counter() - start
    residual = diag * x - lap_coeff * laplacian_values(grid, x) - b
    h = grid.spacings[0]
    norm_a = float(np.max(diag)) + lap_coeff * 4.0 / (h * h)
    backward = np.max(np.abs(residual)) / (
        norm_a * np.max(np.abs(x)) + np.max(np.abs(b))
    )
    assert backward <= 1e-14
    assert elapsed < 2.0


def test_equal_operator_reuses_the_last_factor(factor_count):
    grid = make_torus_grid([(2 * np.pi, 6), (3.0, 5)])
    diag = np.random.default_rng(5).uniform(0.5, 2.0, grid.total_points)
    solve = spd_solver(grid, 1.0, diag)
    assert spd_solver(grid, 1.0, diag.copy()) is solve
    assert len(factor_count) == 1
    # a diagonal one ulp apart is another operator: refactor
    nudged = diag.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)
    assert spd_solver(grid, 1.0, nudged) is not solve
    assert len(factor_count) == 2
    # and the slot holds the latest factor only
    spd_solver(grid, 1.0, diag)
    assert len(factor_count) == 3


def test_stepper_frees_the_old_factor_on_a_dt_change(monkeypatch):
    g = make_circle_grid(2 * np.pi, 64)
    p = build_problem(
        g,
        ScalarField.constant(g, -0.1),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
    )
    solvers = []  # weak references to every solver the IMEX step asked for
    alive_at_build = []
    get_solver, factor = heatflow.spd_solver, _solve.splu

    def recording(*args):
        solve = get_solver(*args)
        solvers.append(weakref.ref(solve))
        return solve

    def checking(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in solvers))
        return factor(*args, **kwargs)

    monkeypatch.setattr(heatflow, "spd_solver", recording)
    monkeypatch.setattr(_solve, "splu", checking)
    monkeypatch.setattr(_solve, "_last", None)
    u = np.full(64, 2.0)
    _imex_step(p, [u], 0.5)
    _imex_step(p, [u], 0.5)
    assert solvers[1]() is solvers[0]() is not None  # an unchanged dt reuses it
    _imex_step(p, [u], 1.0)
    # at u = 0.5 the reaction drives the state negative for dt > 1/12, so
    # the step halves from 1 to 1/16, building a factor for each halved dt
    (_,), dt_used = _imex_step(p, [np.full(64, 0.5)], 1.0)
    assert dt_used == 0.0625
    # neither the step nor the memo kept an old factor while a new one was
    # built, and only the memo holds the latest
    assert alive_at_build == [0] * 6
    assert sum(ref() is not None for ref in solvers) == 1
