"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the code paths under test: roots come
from scipy's brentq on sign-change brackets, ODE references from high-order
adaptive integration, and dense operators from index loops.
"""

from itertools import product

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def quartic_positive_roots(lam, A, B, lo=1e-9, hi=1e6, n=200_000):
    """Positive roots of -lam*y^4 + A*y^2 - B by bracketed bisection.

    A coarse log-spaced scan locates sign changes; a fine linear scan
    around the quartic's positive peak keeps nearly-degenerate root pairs
    from slipping between scan points.
    """
    f = lambda y: -lam * y**4 + A * y**2 - B
    ys = np.geomspace(lo, hi, n)
    disc = A * A - 4.0 * lam * B
    if A > 0.0 and lam > 0.0 and 0.0 < disc < 1e-4 * A * A:
        peak = np.sqrt(A / (2.0 * lam))
        ys = np.sort(
            np.concatenate([ys, np.linspace(0.9 * peak, 1.1 * peak, 400_000)])
        )
    p = f(ys)
    roots = []
    for i in range(len(ys) - 1):
        if p[i] == 0.0:
            roots.append(float(ys[i]))
        elif p[i] * p[i + 1] < 0.0:
            roots.append(brentq(f, ys[i], ys[i + 1], xtol=1e-15, rtol=8.9e-16))
    deduped = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-13 * max(1.0, r):
            deduped.append(r)
    return deduped


def sampled_decay_rate(sigma, profile, n=10_000):
    """-sup of phi'(y) = -lambda0 - A/y^2 + 3B/y^4 over y >= y1 - sigma.

    The derivative is sampled on a log grid of [y1 - sigma, 10*y4]
    (10*max(y1, 1) when B = 0), and its asymptote -lambda0 at infinity
    is taken in.
    """
    lam, A, B = profile.lambda0, profile.A, profile.B
    left = profile.y1 - sigma
    upper = 10.0 * (profile.y4 if profile.y4 is not None else max(profile.y1, 1.0))
    ys = np.geomspace(left, max(upper, 2.0 * left), n)
    return -max(float(np.max(-lam - A / ys**2 + 3.0 * B / ys**4)), -lam)


def scalar_ode_reference(lam, A, B, y0, t_eval):
    """High-accuracy solution of y' = -lam*y + A/y - B/y^3."""
    sol = solve_ivp(
        lambda _, y: -lam * y + A / y - B / y**3,
        (0.0, float(t_eval[-1])),
        [float(y0)],
        t_eval=t_eval,
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    assert sol.success
    return sol.y[0]


def looped_laplacian_matrix(grid, axes=None):
    """Periodic stencil matrix of a grid, assembled entry by entry.

    Rows and columns are C-order flat indices of the grid's multi-indices.
    Each axis in ``axes`` (all axes when None), taken in that order, adds
    -2/h^2 on the diagonal and 1/h^2 at the two neighbours along it.
    """
    shape = grid.points
    use = range(len(shape)) if axes is None else axes
    strides = [int(np.prod(shape[d + 1:])) for d in range(len(shape))]

    def flat(index):
        return sum(i * stride for i, stride in zip(index, strides))

    n = int(np.prod(shape))
    mat = np.zeros((n, n))
    for index in product(*(range(points) for points in shape)):
        row = flat(index)
        for ax in use:
            h = grid.spacings[ax]
            mat[row, row] += -2.0 / h**2
            for step in (1, -1):
                neighbour = list(index)
                neighbour[ax] = (index[ax] + step) % shape[ax]
                mat[row, flat(neighbour)] += 1.0 / h**2
    return mat
