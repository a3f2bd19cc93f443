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

Every call builds a new factor and the module keeps none: a loop that
reuses one factor across many solves (the IMEX steps of the heat flow
while dt is unchanged, Newton's chord iterations) holds it itself, and
drops it before it asks for the next.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from .errors import ConvergenceError
from .grid import Grid, laplacian_sparse


def spd_solver(grid: Grid, lap_coeff: float, diag: np.ndarray):
    """Return a ``solve(b) -> x`` closure for the SPD operator above."""
    # scaling copies the data, so the shared Laplacian is never written;
    # the stencil holds every diagonal cell, so setdiag adds no entries
    mat = laplacian_sparse(grid) * -lap_coeff
    mat.setdiag(mat.diagonal() + diag)
    try:
        factor = splu(mat, permc_spec="MMD_AT_PLUS_A", relax=1)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ConvergenceError(f"sparse factor failed: {exc}") from exc

    # a plain function rather than the bound method, so the factor's
    # lifetime can be followed by weak reference (SuperLU objects take none)
    def solve(b):
        return factor.solve(b)

    return solve
