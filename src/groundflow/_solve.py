"""Shared sparse-direct solver for symmetric positive definite grid operators.

Systems have the form ``A v = lap_coeff * (-Laplacian v) + diag * v`` with
``lap_coeff >= 0`` and a strictly positive effective diagonal, so A is SPD;
the one exception, the Newton Jacobian of the stationary equation, is SPD
at a stable attractor without a pointwise positive diagonal.
A is assembled as a sparse matrix, the Laplacian being the Kronecker sum
of the 1-d cyclic second-difference matrices over the grid axes, and
factored once by SuperLU under the symmetric minimum-degree ordering of
``A^T + A``, which keeps the fill of the periodic stencil low.  Supernode
relaxation is set to 1: SuperLU's default pads the many small supernodes
of a stencil factor with explicit zeros, which costs factor time and
saves no solve time.  The Laplacian depends on the grid alone, so it is
assembled once per grid and only scaled and shifted on the diagonal for
each factor.

The latest factor is kept in a one-slot memo keyed by the grid, the
Laplacian coefficient and the bytes of the diagonal, so a caller asking
again for the same operator gets the same solver back: the curvature
warp's leaves share one factor whenever their potentials are equal.  The
slot is emptied before a new factor is built, so callers that drop their
old solver (the IMEX stepper on a dt change) still hold one factor only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import Grid


def _cyclic_second_difference(points: int, h: float):
    w = 1.0 / (h * h)
    return sp.diags(
        [w, w, -2.0 * w, w, w], [1 - points, -1, 0, 1, points - 1],
        shape=(points, points),
    )


@lru_cache(maxsize=8)
def _laplacian_sparse(grid: Grid):
    """Sparse stencil Laplacian in the C-order flattening of the grid.

    Shared by every caller on an equal grid, so its arrays are read-only.
    """
    n = grid.total_points
    lap = sp.csc_matrix((n, n))
    for ax, (points, h) in enumerate(zip(grid.points, grid.spacings)):
        before = int(np.prod(grid.points[:ax]))
        after = int(np.prod(grid.points[ax + 1:]))
        term = sp.kron(sp.identity(before), _cyclic_second_difference(points, h))
        lap = lap + sp.kron(term, sp.identity(after))
    for arr in (lap.data, lap.indices, lap.indptr):
        arr.flags.writeable = False
    return lap


_last = None  # (key, solve) of the latest factor


def spd_solver(grid: Grid, lap_coeff: float, diag: np.ndarray):
    """Return a ``solve(b) -> x`` closure for the SPD operator above."""
    global _last
    diag = np.asarray(diag, dtype=float)
    key = (grid, lap_coeff, diag.tobytes())
    if _last is not None and _last[0] == key:
        return _last[1]
    _last = None  # free the old factor before building the next
    # scaling copies the data, so the shared Laplacian is never written;
    # the stencil holds every diagonal cell, so setdiag adds no entries
    mat = _laplacian_sparse(grid) * -lap_coeff
    mat.setdiag(mat.diagonal() + diag)
    factor = splu(mat, permc_spec="MMD_AT_PLUS_A", relax=1)

    # a plain function rather than the bound method, so the factor's
    # lifetime can be followed by weak reference (SuperLU objects take none)
    def solve(b):
        return factor.solve(b)

    _last = (key, solve)
    return solve
