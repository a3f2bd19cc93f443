"""Scalar comparison machinery for the semilinear flow.

The nonlinear reaction term, rescaled by the ground state, is bracketed
between two profiles ``phi(y) = -lambda0*y + A/y - B/y**3`` whose
coefficients are grid extrema of ``psi1*e0**-2`` and ``psi2*e0**-4``.
Everything quantitative downstream (attractor location, basin geometry,
exponential decay rate) reduces to root and slope data of these profiles,
so this module keeps the closed forms in cancellation-stable shape and
cross-checks them against brute-force alternatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, BlowdownError, CrossCheckError
from .grid import ScalarField

#: discriminant threshold (relative to A^2) below which closed-form roots
#: are polished by bisection
_CANCELLATION_GUARD = 1e-8

STABLE = "stable"
UNSTABLE = "unstable"
SEMISTABLE = "semistable"


@dataclass(frozen=True)
class ExtremaCoeffs:
    """Grid extrema of psi1*e0^-2 (index 1) and psi2*e0^-4 (index 2)."""

    psi1_plus: float
    psi1_minus: float
    psi2_plus: float
    psi2_minus: float


@dataclass(frozen=True)
class PhiProfile:
    """One comparison profile -lambda0*y + A/y - B/y^3 with its landmarks.

    ``y1 > y2`` are the positive roots, ``y3`` the unique positive root of
    the derivative (the basin edge) and ``y4`` the inflection point; the
    last three are None in the monotone case B = 0.
    """

    lambda0: float
    A: float
    B: float
    y1: float
    y2: float | None
    y3: float | None
    y4: float | None


@dataclass(frozen=True)
class Admissibility:
    """Decision for 0 < lambda0 < psi1_minus^2 / (4 psi2_plus) with the
    signed margin psi1_minus^2 - 4*lambda0*psi2_plus."""

    admissible: bool
    margin: float


@dataclass(frozen=True)
class ScalarTrajectory:
    """RK4 trajectory of y' = phi(y); values has shape (nt,) for scalar
    initial data and (nt, batch) for batched initial data."""

    times: np.ndarray
    values: np.ndarray

    @property
    def terminal(self):
        return self.values[-1]


def extrema_coeffs(
    psi1: ScalarField, psi2: ScalarField, e0: ScalarField
) -> ExtremaCoeffs:
    """Grid extrema of the ground-state-rescaled reaction coefficients."""
    if psi1.grid != e0.grid or psi2.grid != e0.grid:
        raise ValueError("psi1, psi2 and e0 must live on one grid")
    if psi1.min() <= 0.0:
        raise ValueError("psi1 must be strictly positive pointwise")
    if psi2.min() < 0.0:
        raise ValueError("psi2 must be nonnegative pointwise")
    if e0.min() <= 0.0:
        raise ValueError("e0 must be strictly positive pointwise")
    r1 = psi1.values / e0.values**2
    r2 = psi2.values / e0.values**4
    return ExtremaCoeffs(
        psi1_plus=float(r1.max()),
        psi1_minus=float(r1.min()),
        psi2_plus=float(r2.max()),
        psi2_minus=float(r2.min()),
    )


def phi(y, profile: PhiProfile):
    """Evaluate the profile at y > 0 (scalar or array)."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("profile is defined for y > 0 only")
    val = -profile.lambda0 * y + profile.A / y - profile.B / y**3
    return float(val) if val.ndim == 0 else val


def phi_prime(y, profile: PhiProfile):
    """Derivative of the profile at y > 0 (scalar or array)."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("profile is defined for y > 0 only")
    val = -profile.lambda0 - profile.A / y**2 + 3.0 * profile.B / y**4
    return float(val) if val.ndim == 0 else val


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phi_roots(lambda0: float, A: float, B: float):
    """Positive roots (y1, y2) of the profile, y1 > y2; y2 is None for B = 0.

    Solves the biquadratic -lambda0*y^4 + A*y^2 - B = 0 in closed form,
    using 2B/(A + sqrt(disc)) for the small root to dodge cancellation,
    with a bisection polish when the discriminant nearly vanishes.
    """
    if lambda0 <= 0.0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    if A <= 0.0:
        raise ValueError(f"A must be positive, got {A}")
    if B < 0.0:
        raise ValueError(f"B must be nonnegative, got {B}")
    if B == 0.0:
        return math.sqrt(A / lambda0), None
    disc = A * A - 4.0 * lambda0 * B
    if disc <= 0.0:
        raise AdmissibilityError(
            "profile discriminant is not positive; no positive root pair",
            margin=disc,
        )
    s = math.sqrt(disc)
    y1 = math.sqrt((A + s) / (2.0 * lambda0))
    y2 = math.sqrt(2.0 * B / (A + s))
    if disc < _CANCELLATION_GUARD * A * A:
        quartic = lambda y: -lambda0 * y**4 + A * y**2 - B
        y_peak = math.sqrt(A / (2.0 * lambda0))
        y1 = _bisect(quartic, y_peak, math.sqrt(A / lambda0))
        y2 = _bisect(quartic, 1e-12 * y_peak, y_peak)
    return y1, y2


def critical_root_y3(lambda0: float, A: float, B: float):
    """Unique positive root of the profile derivative; None for B = 0."""
    if lambda0 <= 0.0 or A <= 0.0:
        raise ValueError("lambda0 and A must be positive")
    if B < 0.0:
        raise ValueError(f"B must be nonnegative, got {B}")
    if B == 0.0:
        return None
    return math.sqrt(6.0 * B / (A + math.sqrt(A * A + 12.0 * B * lambda0)))


def make_profile(lambda0: float, A: float, B: float) -> PhiProfile:
    """Profile with roots and landmark points computed and sanity-checked."""
    y1, y2 = phi_roots(lambda0, A, B)
    y3 = critical_root_y3(lambda0, A, B)
    y4 = math.sqrt(6.0 * B / A) if B > 0.0 else None
    profile = PhiProfile(lambda0=lambda0, A=A, B=B, y1=y1, y2=y2, y3=y3, y4=y4)
    if B > 0.0 and not (0.0 < y2 < y3 < y1 and y3 < y4):
        raise AdmissibilityError(
            "profile landmarks out of order; discriminant too marginal",
            margin=A * A - 4.0 * lambda0 * B,
        )
    return profile


def profile_from_coeffs(
    lambda0: float, coeffs: ExtremaCoeffs, side: str
) -> PhiProfile:
    """Lower ('minus') or upper ('plus') comparison profile for the flow."""
    if side == "minus":
        return make_profile(lambda0, coeffs.psi1_minus, coeffs.psi2_plus)
    if side == "plus":
        return make_profile(lambda0, coeffs.psi1_plus, coeffs.psi2_minus)
    raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")


def check_admissible(lambda0: float, coeffs: ExtremaCoeffs) -> Admissibility:
    """Positivity condition on lambda0 against the rescaled coefficients."""
    margin = coeffs.psi1_minus**2 - 4.0 * lambda0 * coeffs.psi2_plus
    admissible = lambda0 > 0.0 and (coeffs.psi2_plus == 0.0 or margin > 0.0)
    return Admissibility(admissible=admissible, margin=margin)


def decay_rate_mu(sigma: float, profile: PhiProfile) -> float:
    """Exponential decay rate min{|phi'(y1 - sigma)|, lambda0}.

    Valid for 0 <= sigma < y1 - y3 (the derivative stays negative on the
    shrunken basin).  The closed form is cross-checked by maximizing the
    derivative on a log-spaced sample of [y1 - sigma, infinity-proxy].
    """
    y1 = profile.y1
    y3 = profile.y3 if profile.y3 is not None else 0.0
    if not 0.0 <= sigma < y1 - y3:
        raise ValueError(
            f"sigma must lie in [0, y1 - y3) = [0, {y1 - y3!r}), got {sigma}"
        )
    left = y1 - sigma
    mu = min(abs(phi_prime(left, profile)), profile.lambda0)
    upper = 10.0 * (profile.y4 if profile.y4 is not None else max(y1, 1.0))
    sample = np.geomspace(left, max(upper, 2.0 * left), 10_000)
    # the sup of phi' includes its horizontal asymptote -lambda0 at infinity
    sup_sampled = max(float(np.max(phi_prime(sample, profile))), -profile.lambda0)
    if abs(-sup_sampled - mu) > 1e-7 * max(mu, 1e-30):
        raise CrossCheckError(
            f"decay-rate cross-check failed: closed form {mu!r}, "
            f"sampled {-sup_sampled!r}",
            closed_form=mu,
            sampled=-sup_sampled,
        )
    return mu


#: (stage offset, weight) of RK4 stages 2-4; stage 1 has weight 1
_RK4_STAGES = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))


def _rk4_step(slope, inside, y, k1, step):
    """One classical RK4 step from y (with k1 = slope(y)), or None as soon
    as a stage or the result leaves (0, inf)."""
    k = k1
    weighted = k1
    for offset, weight in _RK4_STAGES:
        stage = y + offset * step * k
        if not inside(stage):
            return None
        k = slope(stage)
        weighted = weighted + weight * k
    y_new = y + (step / 6.0) * weighted
    return y_new if inside(y_new) else None


def scalar_flow(
    y0,
    profile: PhiProfile,
    T: float,
    dt: float | None = None,
    record_every: int = 1,
) -> ScalarTrajectory:
    """Integrate y' = phi(y) with classical RK4 on [0, T].

    ``y0`` may be a scalar, integrated on Python floats, or an array (a
    batch of trajectories advanced in lockstep on numpy arrays).  The step
    is halved whenever a stage or an iterate would leave (0, inf).
    Initial data at or below the inner root y2 escapes toward zero and is
    rejected.
    """
    y0_arr = np.atleast_1d(np.asarray(y0, dtype=float))
    if np.any(y0_arr <= 0.0):
        raise ValueError("initial data must be positive")
    if profile.y2 is not None and np.any(y0_arr <= profile.y2):
        raise BlowdownError(
            f"initial data at or below the inner root y2={profile.y2!r} "
            "escapes toward zero"
        )
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if dt is None:
        dt = min(0.01, 0.1 / profile.lambda0)
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    lam, A, B = profile.lambda0, profile.A, profile.B

    def rhs(y):
        return -lam * y + A / y - B / y**3

    # A scalar start runs on Python floats, which skips numpy's per-call
    # overhead; a batch runs on arrays in lockstep.  Only the test for
    # "every entry lies in (0, inf)" and the float guard below differ.
    # Neither state is ever updated in place, so records need no copy.
    if np.ndim(y0) == 0:
        y = float(y0)

        def slope(x):
            try:
                return rhs(x)
            except ArithmeticError:
                # float ** and / raise on overflow and zero divisors where
                # numpy gives inf or nan, which then halve the step
                return float(rhs(np.float64(x)))

        def inside(x):
            return 0.0 < x < math.inf
    else:
        y = y0_arr.copy()
        slope = rhs

        def inside(x):
            return bool(((x > 0.0) & (x < math.inf)).all())

    end = T - 1e-12 * max(T, 1.0)
    times = [0.0]
    records = [y]
    t = 0.0
    accepted = 0
    while t < end:
        step = min(dt, T - t)
        k1 = slope(y)
        for _ in range(60):
            y_new = _rk4_step(slope, inside, y, k1, step)
            if y_new is not None:
                break
            step *= 0.5
            dt = step
        else:
            raise BlowdownError("step size collapsed; trajectory escapes (0, inf)")
        y = y_new
        t += step
        accepted += 1
        if accepted % record_every == 0 or t >= end:
            times.append(t)
            records.append(y)
    return ScalarTrajectory(times=np.asarray(times), values=np.array(records))


def positive_equilibria(beta: float, psi1: float, psi2: float) -> list[float]:
    """Positive roots of beta*y + psi1/y - psi2/y^3 = 0, descending."""
    if psi1 < 0.0 or psi2 < 0.0:
        raise ValueError("psi1 and psi2 must be nonnegative")
    if beta == 0.0:
        if psi1 > 0.0 and psi2 > 0.0:
            return [math.sqrt(psi2 / psi1)]
        return []
    if beta < 0.0:
        ab = -beta
        if psi2 == 0.0:
            return [math.sqrt(psi1 / ab)] if psi1 > 0.0 else []
        disc = psi1 * psi1 - 4.0 * ab * psi2
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        z1 = (psi1 + s) / (2.0 * ab)
        if disc == 0.0:
            return [math.sqrt(z1)]
        z2 = 2.0 * psi2 / (psi1 + s)
        return [math.sqrt(z1), math.sqrt(z2)]
    if psi2 == 0.0:
        return []
    s = math.sqrt(psi1 * psi1 + 4.0 * beta * psi2)
    return [math.sqrt(2.0 * psi2 / (psi1 + s))]


def _equilibrium_slopes(beta: float, psi1: float, psi2: float):
    """``(root, slope)`` per positive equilibrium, descending, where slope is
    the derivative ``beta - psi1/y**2 + 3*psi2/y**4`` of the force there."""
    return [
        (root, beta - psi1 / root**2 + 3.0 * psi2 / root**4)
        for root in positive_equilibria(beta, psi1, psi2)
    ]


def classify_fixed_points(beta: float, psi1: float, psi2: float):
    """Stationary points of y' = beta*y + psi1/y - psi2/y^3 with stability.

    Returns (root, label) pairs sorted by descending root; the label is
    the sign of the linearization (negative slope means stable).
    """
    if psi1 <= 0.0:
        raise ValueError(f"psi1 must be positive, got {psi1}")
    if psi2 < 0.0:
        raise ValueError(f"psi2 must be nonnegative, got {psi2}")
    result = []
    for root, slope in _equilibrium_slopes(beta, psi1, psi2):
        if slope < 0.0:
            label = STABLE
        elif slope > 0.0:
            label = UNSTABLE
        else:
            label = SEMISTABLE
        result.append((root, label))
    return result


def curvature_problem_inputs(
    h_sq: ScalarField,
    t_sq: ScalarField,
    beta_top: ScalarField,
    phi_const: float,
    n: int,
):
    """Reduce prescribed-curvature data to reaction-diffusion inputs.

    Given the squared second-fundamental-form norm, the squared
    integrability-tensor norm, the base potential and the prescribed
    leafwise-constant curvature ``phi_const`` on a codimension-n
    distribution, returns (beta, lambda0_shift, psi1, psi2) with
    beta = beta_top + phi_const/n and the eigenvalue shifted by
    lambda0_shift = -phi_const/n.
    """
    grid = beta_top.grid
    if h_sq.grid != grid or t_sq.grid != grid:
        raise ValueError("all input fields must live on one grid")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if h_sq.min() <= 0.0:
        raise ValueError(
            "h_sq must be strictly positive pointwise "
            "(vanishing second fundamental form is not supported)"
        )
    if t_sq.min() < 0.0:
        raise ValueError("t_sq must be nonnegative pointwise")
    beta = ScalarField(grid, beta_top.values + phi_const / n)
    psi1 = ScalarField(grid, h_sq.values / n)
    psi2 = ScalarField(grid, t_sq.values / n)
    return beta, -phi_const / n, psi1, psi2
