"""Least eigenvalue, positive ground state and gap of H = -Laplacian - beta.

The operator is discretized as ``-L - diag(beta)`` with L the periodic
stencil Laplacian, so it is symmetric under the uniform-weight inner
product and its least eigenvalue is simple with a positive eigenvector
(M-matrix structure after the shift below).  One Lanczos run on
(H - mu)^-1, applied through one factor of H - mu, gives lambda0, e0 and
the gap to lambda1 together (spectral transformation; Ericsson & Ruhe,
Math. Comp. 35, 1980).

The shift sits just below lambda0.  The Rayleigh quotient of a constant
gives -max(beta) <= lambda0 <= -mean(beta), so mu = -max(beta) - delta
with delta = max(max(beta) - mean(beta), 0.01) keeps H - mu positive
definite with least eigenvalue at least delta, and lambda0 - mu is at
most 2*delta unless the floor binds.  The floor 0.01 covers constant
beta, where lambda0 = -max(beta) exactly.  The run works on
beta - max(beta), whose maximum is 0: it factors
delta - L - (beta - max(beta)) and adds -max(beta) back to the Rayleigh
quotient, so the factor and the Lanczos vectors keep the scale of the
variation of beta, not of beta itself, and a shift of 0.01 does not
round away against a large max(beta).  The eigenvalues of (H - mu)^-1 are 1/(lambda_i - mu), so the
close shift sets the top one, theta0 = 1/(lambda0 - mu), well apart from
the others, which is what makes its Ritz value and vector converge in
few steps.

Where beta is constant along some torus axes, the problem is solved on the
grid of the other axes (``grid._restriction``, which states the exact
rule).  The full operator is then the Kronecker sum of the reduced one and
-L on the dropped axes, so lambda0 and e0 (broadcast along the dropped
axes) are the reduced ones, and lambda1 = min(reduced lambda1,
lambda0 + nu) with nu the least nonzero level of -L on the dropped axes,
min_d (4/h_d^2) sin^2(pi/N_d) (Horn & Johnson, Topics in Matrix Analysis,
1991, Thm 4.4.5).  The lifted pair's eigen-residual is recomputed on the
full grid and held to the Lanczos run's own target, which checks the
reduction on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstebz, dstein

from ._solve import spd_solver
from .errors import ConvergenceError
from .grid import (
    DENSE_CAP,
    Grid,
    ScalarField,
    _check_same_grid,
    _restriction,
    laplacian_round_off,
    laplacian_sparse,
    laplacian_values,
)

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
    """The shift mu of the eigen-solver, with H - mu positive definite.

    mu = -max(beta) - delta with delta = max(max(beta) - mean(beta), 0.01),
    just below lambda0 (see the module docstring).
    """
    b_max, _, delta = _shift_parts(beta.values)
    return -b_max - delta


def _shift_parts(b: np.ndarray):
    """``(max(beta), beta - max(beta), delta)``, with the shift
    mu = -max(beta) - delta; delta is taken from the mean of
    beta - max(beta), which is exactly 0 for a constant beta."""
    b_max = float(b.max())
    shifted = b - b_max
    return b_max, shifted, max(-float(shifted.mean()), _SHIFT_FLOOR)


def _weighted_norm(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(vol * np.dot(values, values)))


def _unit_constant(grid: Grid) -> np.ndarray:
    """The constant of unit discrete L2 norm: the ground state for constant
    beta."""
    v = np.full(grid.total_points, 1.0)
    v /= _weighted_norm(v, grid.cell_volume)
    return v


def ground_state(grid: Grid, beta: ScalarField) -> SpectralResult:
    """Ground state of -L - beta and its gap, by Lanczos on (H - mu)^-1.

    lambda0, e0 and the gap come from one run of ``_least_eigenpair``,
    which stops on its eigen-residual target alone, so there is no
    tolerance to pass; the gap must be positive.

    The run is on the restriction of the problem to the axes along which
    beta varies (``grid._restriction``).  The pair is lifted back as a
    broadcast along the dropped axes, renormalized, and its eigen-residual
    recomputed on the full grid, where it must meet the same target.
    ``iterations`` counts the reduced run's Lanczos steps.
    """
    _check_same_grid(grid, beta)
    r = _restriction(grid, beta.values)
    lam, v, iterations, residual, gap, _ = _least_eigenpair(
        r.sub, ScalarField(r.sub, r.restrict(beta.values))
    )
    if r.sub.ndim < grid.ndim:
        # the least nonzero level of -L along the dropped axes
        nu = min(
            float(4.0 / h**2 * np.sin(np.pi / n) ** 2)
            for ax, (h, n) in enumerate(zip(grid.spacings, grid.points))
            if ax not in r.kept
        )
        gap = min(gap, nu)
        v = r.lift(v)
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
    """Least eigenpair of -L - beta and the gap, by Lanczos on (H - mu)^-1.

    The shift is mu = -max(beta) - delta (see the module docstring), and
    ``solve`` applies (H - mu)^-1 through the factor of
    delta - L - (beta - max(beta)); its eigenvalues are 1/(lambda_i - mu):
    the top two Ritz values theta0 > theta1 approximate 1/(lambda0 - mu)
    and 1/(lambda1 - mu).  The start vector is the constant plus 1e-3 times
    fixed-seed normals, so that every level is within reach, and each new
    Lanczos vector is reorthogonalized against the whole basis by two
    classical Gram-Schmidt passes, so the result is reproducible and
    nearly degenerate levels converge without stalling.

    Once both Ritz values have residual bounds below ``_LANCZOS_TOL``
    times themselves, or the Krylov space is exhausted, the candidate e0
    is one more solve applied to |x|, x the top Ritz vector: H - mu is an
    M-matrix, so its inverse is entrywise positive and so is e0.  lambda0
    is the Rayleigh quotient of e0 on -L - (beta - max(beta)), plus
    -max(beta), and the candidate is accepted only when
    its eigen-residual r drops below 0.5e-10 * max(1, |lambda0|), or below
    the round-off in applying L (machine epsilon times its norm bound
    sum_d 4/h_d^2) where that is larger, as on fine 1-d grids; the
    quotient then lies within r^2/gap of lambda0 (Kato-Temple; Parlett,
    The Symmetric Eigenvalue Problem, 1998).  Otherwise the run goes on,
    for at most 300 steps; a miss with the Krylov space exhausted fails.
    The gap is 1/theta1 - 1/theta0, so nothing of the size of beta is
    subtracted.  A step whose numbers are not finite fails at once, and
    e0 must be strictly positive.  Returns
    ``(lambda0, e0 values, steps, residual, gap, mu)``.
    """
    _check_same_grid(grid, beta)
    vol = grid.cell_volume
    b_max, b, delta = _shift_parts(beta.values)
    solve = spd_solver(grid, 1.0, delta - b)

    n = b.size
    q = _start_vector(n)
    basis = np.empty((min(n, _LANCZOS_STEPS), n))  # rows touched as written
    diag, offdiag = np.empty(len(basis)), np.empty(len(basis))
    for k in range(len(basis)):
        basis[k] = q
        w = solve(q)
        diag[k] = np.dot(q, w)
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        norm = np.linalg.norm(w)
        theta, s = _top_ritz(diag[: k + 1], offdiag[:k])
        # the Krylov space is exhausted, or breaks down, or leaves float range
        exhausted = k + 1 == n or not 0.0 < norm < np.inf
        if exhausted or k and (norm * abs(s[-1]) <= _LANCZOS_TOL * theta).all():
            v = solve(np.abs(basis[: k + 1].T @ s[:, -1]))
            v /= _weighted_norm(v, vol)
            hv = -laplacian_values(grid, v) - b * v
            lam_shifted = vol * float(np.dot(v, hv))
            residual = _weighted_norm(hv - lam_shifted * v, vol)
            lam = lam_shifted - b_max
            if not (abs(lam) < np.inf and residual < np.inf):  # nan or inf
                message = f"Lanczos left float range at step {k + 1}"
                raise ConvergenceError(message, residual=residual)
            if residual <= _residual_target(grid, lam):
                break
            if exhausted:
                message = f"Lanczos exhausted its Krylov space at step {k + 1}"
                raise ConvergenceError(message, residual=residual)
        offdiag[k] = norm
        q = w / norm
    else:
        raise ConvergenceError(f"Lanczos did not converge in {k + 1} steps")
    if float(v.min()) <= 0.0:
        raise ConvergenceError(
            "converged eigenvector is not strictly positive "
            f"(min={v.min():.3e}); input looks pathological",
            residual=residual,
        )
    # theta ascends; a single Ritz value (breakdown at step 1) gives gap 0
    gap = 1.0 / float(theta[0]) - 1.0 / float(theta[-1])
    return lam, v, k + 1, residual, gap, -b_max - delta


@lru_cache(maxsize=8)
def _start_vector(n: int) -> np.ndarray:
    """The Lanczos start: the constant plus 1e-3 times fixed-seed normals,
    of unit Euclidean norm.  Built once per ``n`` and shared, so it is
    read-only."""
    q = 1.0 + 1e-3 * np.random.RandomState(12345).standard_normal(n)
    q /= np.linalg.norm(q)
    q.flags.writeable = False
    return q


def _top_ritz(diag: np.ndarray, offdiag: np.ndarray):
    """The top two eigenpairs of the symmetric tridiagonal ``(diag,
    offdiag)``, ascending (one for a 1x1 matrix).

    The LAPACK calls of ``scipy.linalg.eigh_tridiagonal(diag, offdiag,
    select="i", select_range=(k - 2, k - 1))``, bisection by ``dstebz``
    then inverse iteration by ``dstein``, without its per-call argument
    checks; the results are the same bit for bit.  A nonzero LAPACK
    ``info``, as for non-finite entries, raises :class:`ConvergenceError`.
    """
    k = diag.size
    if k == 1:
        return diag.copy(), np.ones((1, 1))
    m, w, iblock, isplit, info = dstebz(
        diag, offdiag, 2, 0.0, 0.0, k - 1, k, 0.0, "B"
    )
    if info == 0:
        w = w[:m]
        vectors, info = dstein(diag, offdiag, w, iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"tridiagonal Ritz problem failed (LAPACK info={info})")
    order = np.argsort(w)
    return w[order], vectors[:, order]


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
