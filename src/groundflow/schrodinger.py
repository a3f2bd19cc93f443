"""Least eigenvalue and positive ground state of H = -Laplacian - beta.

The operator is discretized as ``-L - diag(beta)`` with L the periodic
stencil Laplacian, so it is symmetric under the uniform-weight inner
product and its least eigenvalue is simple with a positive eigenvector
(M-matrix structure after the shift below).  The ground state is computed
by inverse iteration on the shifted operator H - mu, which is positive
definite for mu below -max(beta).  The next level lambda1 comes from
Lanczos on (H - mu)^-1 with the ground state deflated, using the same
factor of H - mu.

The shift sits just below lambda0.  The Rayleigh quotient of a constant
gives -max(beta) <= lambda0 <= -mean(beta), so mu = -max(beta) - delta
with delta = max(max(beta) - mean(beta), 0.01) keeps H - mu positive
definite with least eigenvalue at least delta, and lambda0 - mu is at
most 2*delta unless the floor binds.  The floor covers constant beta,
where lambda0 = -max(beta) exactly.  Inverse iteration contracts by
(lambda0 - mu)/(lambda1 - mu) per step, so the close shift takes a half
to a quarter of the iterations of the unit shift below -max(beta).

Where beta is constant along some torus axes, the problem is solved on the
grid of the other axes.  An axis is dropped when every slice of beta across
it equals the first one exactly, with no tolerance; at least one axis is
kept, so a constant beta still goes through inverse iteration.  The full
operator is then the Kronecker sum of the reduced one and -L on the
dropped axes, so lambda0 and e0 (broadcast along the dropped axes) are the
reduced ones, and lambda1 = min(reduced lambda1, lambda0 + nu) with nu the
least nonzero level of -L on the dropped axes, min_d (4/h_d^2) sin^2(pi/N_d)
(Horn & Johnson, Topics in Matrix Analysis, 1991, Thm 4.4.5).  The lifted
pair's eigen-residual is recomputed on the full grid and held to inverse
iteration's own target, which checks the reduction on every call.
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
    laplacian_round_off,
    laplacian_sparse,
    laplacian_values,
)

_MAX_ITERATIONS = 2000
_RESIDUAL_FRACTION = 0.5e-10  # target residual relative to max(1, |lambda0|)
_LANCZOS_STEPS = 300
_LANCZOS_TOL = 1e-13  # Ritz residual bound relative to the Ritz value
_SHIFT_FLOOR = 0.01  # least distance of the shift below -max(beta)


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
    """The shift mu of the inverse iteration, with H - mu positive definite.

    mu = -max(beta) - delta, delta = max(max(beta) - mean(beta), 0.01),
    just below lambda0 (see the module docstring).
    """
    b_max, delta = _shift_parts(beta.values)
    return -b_max - delta


def _shift_parts(b: np.ndarray):
    """``(max(beta), delta)`` with the shift mu = -max(beta) - delta."""
    b_max = float(b.max())
    return b_max, max(b_max - float(b.mean()), _SHIFT_FLOOR)


def _weighted_norm(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(vol * np.dot(values, values)))


def _unit_constant(grid: Grid) -> np.ndarray:
    """The constant of unit discrete L2 norm: the ground state for constant
    beta, and the start vector of inverse iteration."""
    v = np.full(grid.total_points, 1.0)
    v /= _weighted_norm(v, grid.cell_volume)
    return v


def ground_state(grid: Grid, beta: ScalarField) -> SpectralResult:
    """Ground state of -L - beta by shifted inverse iteration, with its gap.

    The least eigenpair comes from ``_least_eigenpair``, which stops on its
    eigen-residual target alone, so there is no tolerance to pass; the
    next level is then found by Lanczos on the inverse of the same shifted
    factor with the ground state deflated, and the gap must be positive.

    Both run on the grid of the axes along which beta varies (axis 0 when
    it varies along none), with beta sliced at index 0 of the others; see
    the module docstring.  The pair is lifted back as a broadcast along
    the dropped axes, renormalized, and its eigen-residual recomputed on
    the full grid, where it must meet inverse iteration's own target.
    ``iterations`` counts the reduced solve's steps.
    """
    _check_same_grid(grid, beta)
    values = beta.values.reshape(grid.shape)
    kept = [
        ax for ax in range(grid.ndim)
        if not (values == values.take([0], axis=ax)).all()
    ] or [0]
    sub = Grid(tuple(grid.dims[ax] for ax in kept))
    index = tuple(slice(None) if ax in kept else 0 for ax in range(grid.ndim))
    lam, v, iterations, residual, solve, mu = _least_eigenpair(
        sub, ScalarField(sub, values[index])
    )
    gap = _second_eigenvalue(solve, v, sub.cell_volume, mu) - lam
    if sub.ndim < grid.ndim:
        # the least nonzero level of -L along the dropped axes
        nu = min(
            float(4.0 / h**2 * np.sin(np.pi / n) ** 2)
            for ax, (h, n) in enumerate(zip(grid.spacings, grid.points))
            if ax not in kept
        )
        gap = min(gap, nu)
        lifted = [n if ax in kept else 1 for ax, n in enumerate(grid.points)]
        v = np.broadcast_to(v.reshape(lifted), grid.shape).flatten()
        v /= _weighted_norm(v, grid.cell_volume)
        hv = -laplacian_values(grid, v) - beta.values * v
        residual = _weighted_norm(hv - lam * v, grid.cell_volume)
        if residual > _residual_target(grid, lam):
            raise ConvergenceError(
                f"lifted ground state misses the residual target on the full "
                f"grid (residual={residual:.3e})",
                residual=residual,
            )
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


def _residual_target(grid: Grid, lam: float) -> float:
    """0.5e-10 * max(1, |lambda0|), or the round-off of applying L if larger."""
    return max(_RESIDUAL_FRACTION * max(1.0, abs(lam)), laplacian_round_off(grid))


@np.errstate(all="ignore")  # a step out of float range fails below, unwarned
def _least_eigenpair(grid: Grid, beta: ScalarField):
    """Least eigenpair of -L - beta by shifted inverse iteration.

    The shift is mu = -max(beta) - max(max(beta) - mean(beta), 0.01),
    just below lambda0 (see the module docstring).  Iterates solves of
    (H - mu) w = v with renormalization until the eigen-residual r of the
    Rayleigh quotient drops below 0.5e-10 * max(1, |lambda0|), or below
    the round-off in applying L (machine epsilon times its norm bound
    sum_d 4/h_d^2) where that is larger, as on fine 1-d grids.  That is
    the only stop rule: the quotient then lies within r^2/gap of lambda0
    (Kato-Temple; Parlett, The Symmetric Eigenvalue Problem, 1998), which
    is round-off, so a test on its change between steps would only add
    steps.  A step whose quotient or residual is not finite fails at
    once.  The sign is fixed so the mean is positive; strict pointwise
    positivity is then asserted.  Returns
    ``(lambda0, e0 values, iterations, residual, solve, mu)``, the last
    two being the solver of H - mu and the shift, for further use.
    """
    _check_same_grid(grid, beta)
    vol = grid.cell_volume
    b = beta.values
    b_max, delta = _shift_parts(b)
    mu = -b_max - delta
    solve = spd_solver(grid, 1.0, -b - mu)

    v = _unit_constant(grid)
    for iterations in range(1, _MAX_ITERATIONS + 1):
        v = solve(v)
        v /= _weighted_norm(v, vol)
        hv = -laplacian_values(grid, v) - b * v
        lam = vol * float(np.dot(v, hv))
        residual = _weighted_norm(hv - lam * v, vol)
        if not (abs(lam) < np.inf and residual < np.inf):  # nan or inf
            message = f"inverse iteration left float range at step {iterations}"
            raise ConvergenceError(message, residual=residual)
        if residual <= _residual_target(grid, lam):
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
    return lam, v, iterations, residual, solve, mu


def _second_eigenvalue(solve, e0, vol, mu) -> float:
    """lambda1 by Lanczos on (H - mu)^-1 with e0 deflated (gap estimation only).

    ``solve`` applies (H - mu)^-1, whose eigenvalues are 1/(lambda_i - mu);
    with e0 projected out after every solve its largest is 1/(lambda1 - mu).
    The start vector is fixed, and each new Lanczos vector is
    reorthogonalized against the whole basis by two classical Gram-Schmidt
    passes, so the result is reproducible and nearly degenerate levels
    converge without stalling.  Iteration stops once the top Ritz value
    theta has a residual bound below ``_LANCZOS_TOL * theta`` or the
    deflated Krylov space is exhausted; lambda1 is then mu + 1/theta.
    """
    n = e0.size
    steps = min(n - 1, _LANCZOS_STEPS)
    q = np.random.RandomState(12345).standard_normal(n)
    q -= e0 * (vol * np.dot(e0, q))
    q /= np.linalg.norm(q)
    basis = np.empty((0, n))  # grown 32 rows at a time, as the steps need
    diag, offdiag = [], []
    for k in range(steps):
        if k == len(basis):
            basis = np.concatenate([basis, np.empty((32, n))])
        basis[k] = q
        w = solve(q)
        w -= e0 * (vol * np.dot(e0, w))
        diag.append(np.dot(q, w))
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        norm = np.linalg.norm(w)
        theta, s = scipy.linalg.eigh_tridiagonal(
            diag, offdiag, select="i", select_range=(k, k)
        )
        if norm * abs(s[-1, 0]) <= _LANCZOS_TOL * theta[0] or k + 1 == n - 1:
            return mu + 1.0 / float(theta[0])
        offdiag.append(norm)
        q = w / norm
    raise ConvergenceError(
        f"Lanczos for the spectral gap did not converge in {steps} steps"
    )


def spectrum_oracle(grid: Grid, beta: ScalarField, k: int) -> np.ndarray:
    """The k smallest eigenvalues of -L - diag(beta), dense backend."""
    _check_same_grid(grid, beta)
    n = grid.total_points
    if n > DENSE_CAP:
        raise ValueError(f"dense spectrum capped at {DENSE_CAP} points, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    mat = -laplacian_sparse(grid).toarray() - np.diag(beta.values)
    vals = scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=[0, k - 1])
    return np.asarray(vals)
