"""Shared sparse-direct solver for symmetric positive definite grid operators.

Systems have the form ``A v = lap_coeff * (-Laplacian v) + diag * v`` with
``lap_coeff >= 0`` and a strictly positive effective diagonal, so A is SPD;
the one exception, the Newton Jacobian of the stationary equation, is SPD
at a stable attractor without a pointwise positive diagonal.
A is assembled from the grid's sparse stencil Laplacian
(:func:`groundflow.grid.laplacian_sparse`) and factored once by SuperLU
under the symmetric minimum-degree ordering of ``A^T + A``, which keeps
the fill of the periodic stencil low.  Supernode
relaxation is set to 1: SuperLU's default pads the many small supernodes
of a stencil factor with explicit zeros, which costs factor time and
saves no solve time.  The Laplacian depends on the grid alone; ``grid``
assembles it once per grid, and each factor only scales it and shifts its
diagonal.

The latest factor is kept in a one-slot memo keyed by the grid, the
Laplacian coefficient and the bytes of the diagonal, so a caller asking
again for the same operator gets the same solver back: the curvature
warp's leaves share one factor whenever their potentials are equal, and
the IMEX steps of the heat flow, which ask for their factor on every step,
get it back while dt is unchanged.  The slot is emptied before a new
factor is built, so callers that drop their old solver (the IMEX step on
a dt change) still hold one factor only; Newton's chord method keeps its
own ``solve``, which holds its factor past the slot.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from .grid import Grid, laplacian_sparse


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
    mat = laplacian_sparse(grid) * -lap_coeff
    mat.setdiag(mat.diagonal() + diag)
    factor = splu(mat, permc_spec="MMD_AT_PLUS_A", relax=1)

    # a plain function rather than the bound method, so the factor's
    # lifetime can be followed by weak reference (SuperLU objects take none)
    def solve(b):
        return factor.solve(b)

    _last = (key, solve)
    return solve
