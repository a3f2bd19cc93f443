"""Least eigenvalue and positive ground state of H = -Laplacian - beta.

The operator is discretized as ``-L - diag(beta)`` with L the periodic
stencil Laplacian, so it is symmetric under the uniform-weight inner
product and its least eigenvalue is simple with a positive eigenvector
(M-matrix structure after the shift below).  The ground state is computed
by inverse iteration on the shifted operator H - mu, which is positive
definite for mu below -max(beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._solve import spd_solver
from .errors import ConvergenceError
from .grid import (
    DENSE_CAP,
    Grid,
    ScalarField,
    _check_same_grid,
    laplacian_matrix,
    laplacian_values,
)

_MAX_ITERATIONS = 2000
_RESIDUAL_FRACTION = 0.5e-10  # target residual relative to max(1, |lambda0|)


@dataclass(frozen=True)
class SpectralResult:
    """Least eigenpair of H = -L - beta plus the gap to the next level.

    ``e0`` is strictly positive and normalized to 1 in the discrete L2
    norm (uniform weights times cell volume); ``gap = lambda1 - lambda0``.
    """

    lambda0: float
    e0: ScalarField
    gap: float
    iterations: int
    residual: float


def shift_for_positivity(beta: ScalarField) -> float:
    """A shift mu with H - mu positive definite: mu = -max(beta) - 1."""
    return -float(beta.values.max()) - 1.0


def _weighted_norm(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(vol * np.dot(values, values)))


def ground_state(grid: Grid, beta: ScalarField, tol: float = 1e-8) -> SpectralResult:
    """Ground state of -L - beta by shifted inverse iteration, with its gap.

    The least eigenpair comes from ``_least_eigenpair``; the gap to the
    next level is then estimated by deflated block inverse iteration on
    the same factor and must be positive.
    """
    lam, v, iterations, residual, solve, apply_h = _least_eigenpair(grid, beta, tol)
    gap = _second_eigenvalue(grid, solve, apply_h, v, grid.cell_volume) - lam
    if gap <= 0.0:
        raise ConvergenceError(
            f"nonpositive spectral gap estimate ({gap:.3e})", residual=residual
        )
    return SpectralResult(
        lambda0=lam,
        e0=ScalarField(grid, v),
        gap=gap,
        iterations=iterations,
        residual=residual,
    )


def _least_eigenpair(grid: Grid, beta: ScalarField, tol: float):
    """Least eigenpair of -L - beta by shifted inverse iteration.

    Iterates solves of (H - mu) w = v with renormalization until the
    Rayleigh quotient stabilizes to ``tol`` and the eigen-residual drops
    below 1e-10 * max(1, |lambda0|).  The sign is fixed so the mean is
    positive; strict pointwise positivity is then asserted.  Returns
    ``(lambda0, e0 values, iterations, residual, solve, apply_h)``, the
    last two being the shifted solver and H itself for further use.
    """
    _check_same_grid(grid, beta)
    if not 0.0 < tol <= 1e-6:
        raise ValueError(f"tol must lie in (0, 1e-6], got {tol}")
    vol = grid.cell_volume
    b = beta.values
    mu = shift_for_positivity(beta)
    solve = spd_solver(grid, 1.0, -b - mu)

    def apply_h(v):
        return -laplacian_values(grid, v) - b * v

    v = np.full(grid.total_points, 1.0)
    v /= _weighted_norm(v, vol)
    lam = np.inf
    residual = np.inf
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        w = solve(v)
        w /= _weighted_norm(w, vol)
        hw = apply_h(w)
        lam_new = vol * float(np.dot(w, hw))
        residual = _weighted_norm(hw - lam_new * w, vol)
        converged = (
            abs(lam_new - lam) <= tol * max(1.0, abs(lam_new))
            and residual <= _RESIDUAL_FRACTION * max(1.0, abs(lam_new))
        )
        v = w
        lam = lam_new
        if converged:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge in {_MAX_ITERATIONS} steps "
            f"(residual={residual:.3e})",
            residual=residual,
        )

    if float(v.sum()) < 0.0:
        v = -v
    if float(v.min()) <= 0.0:
        raise ConvergenceError(
            "converged eigenvector is not strictly positive "
            f"(min={v.min():.3e}); input looks pathological",
            residual=residual,
        )
    return lam, v, iterations, residual, solve, apply_h


def _second_eigenvalue(grid, solve, apply_h, e0, vol) -> float:
    """Deflated block inverse iteration for lambda1 (gap estimation only).

    A single deflated vector stalls when lambda1 is nearly degenerate, so
    a small block with Rayleigh-Ritz extraction is used; its smallest Ritz
    value converges at the rate set by the first level outside the block.
    """
    n = grid.total_points
    k = min(3, n - 1)
    rng = np.random.RandomState(12345)
    block = rng.standard_normal((n, k))
    lam = np.inf
    for _ in range(300):
        block = np.column_stack([solve(col) for col in block.T])
        block -= np.outer(e0, vol * (e0 @ block))
        block, _ = np.linalg.qr(block)
        ritz = block.T @ np.column_stack([apply_h(col) for col in block.T])
        lam_new = float(np.min(scipy.linalg.eigvalsh(0.5 * (ritz + ritz.T))))
        if abs(lam_new - lam) <= 1e-9 * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise ConvergenceError("block iteration for the spectral gap stalled")


def spectrum_oracle(grid: Grid, beta: ScalarField, k: int) -> np.ndarray:
    """The k smallest eigenvalues of -L - diag(beta), dense backend."""
    _check_same_grid(grid, beta)
    n = grid.total_points
    if n > DENSE_CAP:
        raise ValueError(f"dense spectrum capped at {DENSE_CAP} points, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    mat = -laplacian_matrix(grid) - np.diag(beta.values)
    vals = scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=[0, k - 1])
    return np.asarray(vals)
