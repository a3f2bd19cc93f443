"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the code paths under test: roots come
from scipy's brentq on sign-change brackets or from 60-digit decimal
arithmetic, ODE references from high-order adaptive integration, dense
operators from index loops, and the stencil's neighbours from ``np.roll``.
"""

from decimal import Decimal, localcontext
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


def decimal_profile_roots(lam, A, B):
    """``(y1, y2, margin share)`` of -lam*y^4 + A*y^2 - B to 60 digits.

    The float inputs are taken exactly; the roots are the square roots of
    (A +- sqrt(A^2 - 4 lam B))/(2 lam), and the share is the margin
    (A^2 - 4 lam B)/A^2, which must be positive.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        lam, A, B = Decimal(float(lam)), Decimal(float(A)), Decimal(float(B))
        margin = A * A - 4 * lam * B
        if margin <= 0:
            raise ValueError(f"margin {margin} is not positive")
        s = margin.sqrt()
        y1, y2 = ((A + s) / (2 * lam)).sqrt(), ((A - s) / (2 * lam)).sqrt()
        return y1, y2, margin / (A * A)


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


def scalar_ode_reference(lam, A, B, y0, t_eval, method="DOP853"):
    """High-accuracy solution of y' = -lam*y + A/y - B/y^3.

    DOP853 is explicit; from a stiff start, where |phi'(y0)| is about A,
    pass ``method="Radau"``, which is implicit.
    """
    sol = solve_ivp(
        lambda _, y: -lam * y + A / y - B / y**3,
        (0.0, float(t_eval[-1])),
        [float(y0)],
        t_eval=t_eval,
        rtol=1e-12,
        atol=1e-14,
        method=method,
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


def rolled_laplacian_values(grid, values, axes=None):
    """The stencil Laplacian with ``np.roll`` for the neighbours.

    The arithmetic ``laplacian_values`` keeps, in the same order: per axis,
    the rolled ahead minus twice the value plus the rolled behind, divided
    by h^2 and added to a zero start, so the two agree bit for bit.
    """
    arr = values.reshape(grid.shape)
    out = np.zeros_like(arr)
    for ax in range(grid.ndim) if axes is None else axes:
        h = grid.spacings[ax]
        out += (np.roll(arr, -1, axis=ax) - 2.0 * arr + np.roll(arr, 1, axis=ax)) / (
            h * h
        )
    return out.ravel()


def rayleigh_quotient_longdouble(grid, beta_values, vector):
    """Rayleigh quotient of ``vector`` for -L - beta, evaluated in np.longdouble.

    The stencil is applied along each axis to an extended-precision copy,
    dividing by the grid's float64 ``h**2``, so the operator is the one the
    package applies and only the arithmetic is wider.  The quotient's error
    is quadratic in the vector's, so it pins an eigenvalue to about the
    extended format's precision.
    """
    v = np.asarray(vector, dtype=np.longdouble).reshape(grid.shape)
    hv = -np.asarray(beta_values, dtype=np.longdouble).reshape(grid.shape) * v
    for ax, h in enumerate(grid.spacings):
        second_difference = np.roll(v, -1, axis=ax) - 2 * v + np.roll(v, 1, axis=ax)
        hv -= second_difference / np.longdouble(h * h)
    return np.sum(v * hv) / np.sum(v * v)


def _orbit_force(u, beta, psi1, psi2):
    return beta * u + psi1 / u - psi2 / u**3


def reference_orbit(u0, v0, beta, psi1, psi2, T, dt):
    """Classical RK4 on u' = v, v' = -f(u), written as plainly as possible.

    One force call per stage, every product written out in full and the
    samples stored into preallocated arrays; the last step is shortened to
    end at T.  The period is the time between the first two upward
    crossings of v = 0, kept only when u returns there within 1e-6, as
    ``integrate_orbit`` defines it.  Returns ``(times, us, vs, period)``.
    """
    n_steps = int(np.ceil(T / dt - 1e-12))
    times, us, vs = (np.empty(n_steps + 1) for _ in range(3))
    t, u, v = 0.0, u0, v0
    times[0], us[0], vs[0] = t, u, v
    crossings = []
    for k in range(1, n_steps + 1):
        h = min(dt, T - t)
        ku1 = v
        kv1 = -_orbit_force(u, beta, psi1, psi2)
        ku2 = v + 0.5 * h * kv1
        kv2 = -_orbit_force(u + 0.5 * h * ku1, beta, psi1, psi2)
        ku3 = v + 0.5 * h * kv2
        kv3 = -_orbit_force(u + 0.5 * h * ku2, beta, psi1, psi2)
        ku4 = v + h * kv3
        kv4 = -_orbit_force(u + h * ku3, beta, psi1, psi2)
        u_new = u + (h / 6.0) * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
        v_new = v + (h / 6.0) * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
        if v < 0.0 <= v_new:
            frac = -v / (v_new - v)
            crossings.append((t + frac * h, u + frac * (u_new - u)))
        u, v, t = u_new, v_new, t + h
        times[k], us[k], vs[k] = t, u, v
    period = None
    if len(crossings) >= 2:
        (t0, c0), (t1, c1) = crossings[:2]
        if t1 - t0 > 0.0 and abs(c1 - c0) <= 1e-6:
            period = t1 - t0
    return times, us, vs, period
