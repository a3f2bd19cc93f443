"""Semilinear heat flow to its attractor, with certification reports.

Integrates ``du/dt = L u + beta*u + psi1/u - psi2/u**3`` with an IMEX
scheme: the linear part (Laplacian plus potential) is implicit, the
rational nonlinearity explicit.  The implicit matrix is an M-matrix, so
the scheme inherits the ordering and positivity structure that the
certification reports (attractor sandwich, exponential contraction,
comparison principle) rely on.  A fixed point of the scheme solves the
discrete stationary equation exactly, independent of dt.  Where only the
attractor is needed (parameter sweeps), a private Newton routine solves
that stationary equation directly and certifies its root in the sandwich;
it keeps one Jacobian factor across its iterations while they contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._solve import spd_solver
from .comparison import (
    ExtremaCoeffs,
    PhiProfile,
    check_admissible,
    decay_rate_mu,
    extrema_coeffs,
    profile_from_coeffs,
)
from .errors import (
    AdmissibilityError,
    BasinError,
    ConvergenceError,
    PositivityLossError,
)
from .grid import (
    Grid,
    ScalarField,
    _check_same_grid,
    laplacian_round_off,
    laplacian_values,
)
from .schrodinger import SpectralResult, ground_state

_SLACK = 1e-12  # round-off band for basin and sandwich membership
_MAX_HALVINGS = 60
_DOUBLE_EVERY = 50  # accepted steps between dt doublings
_NEWTON_MAX_ITERATIONS = 50
_NEWTON_STEP_RTOL = 1e-13  # Newton stops at a step this small relative to max|u|
_CHORD_CONTRACTION = 0.25  # refactor when a step shrinks by less than this
_ROUND_OFF_SAFETY = 4.0  # accepted residual over the round-off of applying L


@dataclass(frozen=True)
class ProblemData:
    """Grid problem with its spectral data and comparison profiles."""

    grid: Grid
    beta: ScalarField
    psi1: ScalarField
    psi2: ScalarField
    spectral: SpectralResult
    coeffs: ExtremaCoeffs
    profile_minus: PhiProfile
    profile_plus: PhiProfile

    @property
    def e0(self) -> ScalarField:
        return self.spectral.e0

    @property
    def lambda0(self) -> float:
        return self.spectral.lambda0

    def ratio(self, u: ScalarField) -> np.ndarray:
        """Pointwise u / e0."""
        return u.values / self.e0.values


@dataclass
class FlowTrace:
    """Recorded history of one flow run.

    ``sup_distances`` holds ``max|u(t) - u_star|`` per recorded time;
    the ratio columns are the extrema of u/e0.  ``converged_at`` is the
    time at which the increment test passed (0.0 when the initial data
    was already stationary).
    """

    times: np.ndarray
    sup_distances: np.ndarray
    min_ratios: np.ndarray
    max_ratios: np.ndarray
    converged_at: float | None


@dataclass(frozen=True)
class MembershipReport:
    min_ratio: float
    epsilon: float
    in_basin_eps: bool  # min(u0/e0) >= y1_minus - epsilon
    in_basin: bool  # min(u0/e0) > y3_minus (open set)
    y1_minus: float
    y3_minus: float


@dataclass(frozen=True)
class SandwichReport:
    min_ratio: float
    max_ratio: float
    y1_minus: float
    y1_plus: float
    tol_h: float
    passed: bool


@dataclass(frozen=True)
class ExponentialBoundReport:
    mu: float
    delta_inv: float
    initial_distance: float
    max_ratio: float
    passed: bool


@dataclass(frozen=True)
class OrderingReport:
    min_gap: float
    passed: bool


def build_problem(
    grid: Grid,
    beta: ScalarField,
    psi1: ScalarField,
    psi2: ScalarField,
    tol: float = 1e-8,
) -> ProblemData:
    """Assemble spectral data, rescaled extrema and both profiles.

    Fails with :class:`AdmissibilityError` (carrying the signed margin)
    when the computed lambda0 violates the positivity condition; beta is
    never shifted silently.
    """
    for f in (beta, psi1, psi2):
        _check_same_grid(grid, f)
    if psi1.min() <= 0.0:
        raise ValueError("psi1 must be strictly positive pointwise")
    if psi2.min() < 0.0:
        raise ValueError("psi2 must be nonnegative pointwise")
    spectral = ground_state(grid, beta, tol=min(tol, 1e-8))
    coeffs = extrema_coeffs(psi1, psi2, spectral.e0)
    adm = check_admissible(spectral.lambda0, coeffs)
    if not adm.admissible:
        raise AdmissibilityError(
            f"problem not admissible at lambda0={spectral.lambda0!r}",
            margin=adm.margin,
        )
    return ProblemData(
        grid=grid,
        beta=beta,
        psi1=psi1,
        psi2=psi2,
        spectral=spectral,
        coeffs=coeffs,
        profile_minus=profile_from_coeffs(spectral.lambda0, coeffs, "minus"),
        profile_plus=profile_from_coeffs(spectral.lambda0, coeffs, "plus"),
    )


def initial_condition_check(
    u0: ScalarField, p: ProblemData, epsilon: float
) -> MembershipReport:
    """Report basin membership of the initial field.

    The shrunken basin is ``u0/e0 >= y1_minus - epsilon`` (closed); the
    full basin is ``u0/e0 > y3_minus`` (open, checked with a small slack
    band since grid arithmetic cannot certify a strict inequality).
    """
    _check_same_grid(p.grid, u0)
    y1m = p.profile_minus.y1
    y3m = p.profile_minus.y3 if p.profile_minus.y3 is not None else 0.0
    if not 0.0 < epsilon < y1m - y3m:
        raise ValueError(
            f"epsilon must lie in (0, y1_minus - y3_minus) = (0, {y1m - y3m!r})"
        )
    min_ratio = float(np.min(p.ratio(u0)))
    slack = _SLACK * max(1.0, abs(y3m), abs(y1m))
    return MembershipReport(
        min_ratio=min_ratio,
        epsilon=epsilon,
        in_basin_eps=min_ratio >= y1m - epsilon - slack,
        in_basin=min_ratio > y3m + slack,
        y1_minus=y1m,
        y3_minus=y3m,
    )


def _in_basin(values: np.ndarray, p: ProblemData) -> bool:
    y3m = p.profile_minus.y3 if p.profile_minus.y3 is not None else 0.0
    slack = _SLACK * max(1.0, abs(y3m))
    return float(np.min(values / p.e0.values)) > y3m + slack


def _imex_step(p: ProblemData, states: list[np.ndarray], dt: float):
    """One IMEX step of at most dt for every state, all with the same dt.

    Halves dt until every new state is positive and finite and returns
    ``(new_states, dt_used)``; raises :class:`PositivityLossError` when
    halving maxes out.  The factor comes from :func:`spd_solver`, whose
    one-slot memo returns the same solver while dt is unchanged and frees
    the old factor before it builds one for a new dt.
    """
    beta = p.beta.values
    beta_max = float(beta.max())
    nonlins = [p.psi1.values / v - p.psi2.values / v**3 for v in states]
    attempt = dt
    for _ in range(_MAX_HALVINGS):
        # keep I - dt*(L + beta) positive definite
        if beta_max <= 0.0 or attempt * beta_max < 1.0:
            solve = spd_solver(p.grid, attempt, 1.0 - attempt * beta)
            new = [solve(v + attempt * n) for v, n in zip(states, nonlins)]
            del solve  # a halved dt must not build its factor while this one lives
            if all(c.min() > 0.0 and np.all(np.isfinite(c)) for c in new):
                return new, attempt
        attempt *= 0.5
    raise PositivityLossError(
        "positivity lost after maximal dt halving; "
        "initial data looks outside the basin",
        dt=attempt,
        min_value=min(float(v.min()) for v in states),
    )


def step(u: ScalarField, p: ProblemData, dt: float):
    """One IMEX step, halving dt on positivity loss.

    Returns ``(u_new, dt_used)``; ``dt_used < dt`` means the requested
    step was rejected and a shorter one accepted.  Raises
    :class:`PositivityLossError` when halving maxes out (the state is
    outside the basin of positive solutions).
    """
    _check_same_grid(p.grid, u)
    if u.min() <= 0.0:
        raise ValueError("field must be strictly positive")
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return u, 0.0
    (candidate,), dt_used = _imex_step(p, [u.values], dt)
    return ScalarField(p.grid, candidate), dt_used


def _dt_limits(p: ProblemData, *states: np.ndarray):
    """First and largest time step of the adaptive flow from ``states``.

    The implicit half of an IMEX step inverts the M-matrix
    ``I - dt*(L + beta)``, so it has no diffusion step bound and preserves
    order for every dt.  The explicit reaction map
    ``u -> u + dt*(psi1/u - psi2/u**3)`` has slope ``1 - dt*g(u)`` with
    ``g(u) = psi1/u**2 - 3*psi2/u**4``, so the first step preserves order
    when ``dt*max g <= 1``, the max taken over the pointwise hull of the
    initial states.  ``g`` is concave in ``s = 1/u**2`` with its peak at
    ``s = psi1/(6*psi2)``, so that max is ``g`` at the peak clipped into
    ``[1/hi**2, 1/lo**2]``.  The start is the least of ``1/max g``, the
    reaction's time scale ``0.1/lambda0`` and ``dt_max``.
    """
    lam = p.spectral.lambda0
    dt_max = 0.5 / lam
    beta_max = float(p.beta.values.max())
    if beta_max > 0.0:
        dt_max = min(dt_max, 0.9 / beta_max)
    dt0 = min(0.1 / lam, dt_max)
    psi1, psi2 = p.psi1.values, p.psi2.values
    lo = np.minimum.reduce(states)
    hi = np.maximum.reduce(states)
    # divide only where the peak may lie below the ceiling 1/lo**2 (under twice
    # it): elsewhere the clip discards it, and a subnormal psi2 would overflow
    below = 12.0 * psi2 > psi1 * lo**2
    peak = np.divide(psi1, 6.0 * psi2, out=np.full_like(psi1, np.inf), where=below)
    s = np.clip(peak, 1.0 / hi**2, 1.0 / lo**2)
    g_max = float(np.max(psi1 * s - 3.0 * psi2 * s * s))
    if g_max > 0.0:
        dt0 = min(dt0, 1.0 / g_max)
    return dt0, dt_max


def _march(p: ProblemData, states: list[np.ndarray], t_end: float):
    """Adaptive IMEX steps of ``states``, all with the same dt, up to ``t_end``.

    Yields ``(t, states, dt_used)`` after each step.  dt starts at
    :func:`_dt_limits` over the states, each step is clipped to end at
    ``t_end``, a halved dt stays halved, and dt doubles every 50 accepted
    steps up to ``dt_max``.  The steps are deterministic: a second march
    from the same states yields the same states bit for bit.
    """
    dt, dt_max = _dt_limits(p, *states)
    t = 0.0
    accepted = 0
    while t < t_end:
        attempt = min(dt, t_end - t)
        states, dt_used = _imex_step(p, states, attempt)
        if dt_used < attempt:
            dt = dt_used
        t += dt_used
        accepted += 1
        yield t, states, dt_used
        if accepted % _DOUBLE_EVERY == 0:
            dt = min(2.0 * dt, dt_max)


def evolve_to_attractor(
    u0: ScalarField,
    p: ProblemData,
    tol: float = 1e-8,
    t_max: float = 5000.0,
):
    """March the flow until the step increment certifies stationarity.

    Convergence is declared when the increment rate ``max|u+ - u| / dt``
    falls below ``tol * min(1, mu0)`` (mu0 the certified contraction
    rate, so the state error is of order tol rather than tol/mu0) and
    the stationary residual of the candidate is below ``10*tol``, or
    below the round-off of applying L where that is larger (see
    :func:`_residual_bound`).  The
    time step starts at the reaction's time scale (see :func:`_dt_limits`:
    the implicit half has no diffusion bound, and the first step preserves
    order), doubles every 50 accepted steps up to ``dt_max``, halves
    on positivity rejection, and the last step is clipped to end at
    ``t_max``.

    Returns ``(u_star, trace)``; sup-norm distances in the trace are
    measured against the returned attractor.  The states are not kept:
    once the attractor is known the march is replayed from ``u0`` to
    measure them, so memory stays O(N) whatever the step count.
    """
    _check_same_grid(p.grid, u0)
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    if u0.min() <= 0.0:
        raise ValueError("initial field must be strictly positive")
    if not _in_basin(u0.values, p):
        raise BasinError(
            "initial data outside the open basin (ratio at or below y3)",
            time=0.0,
            min_ratio=float(np.min(p.ratio(u0))),
        )

    u = u0.values
    e0 = p.e0.values
    inc_tol = tol * min(1.0, decay_rate_mu(0.0, p.profile_minus))

    times = [0.0]
    min_ratios = [float(np.min(u / e0))]
    max_ratios = [float(np.max(u / e0))]
    converged_at = None

    for accepted, (t, (candidate,), dt_used) in enumerate(_march(p, [u], t_max), 1):
        inc = float(np.max(np.abs(candidate - u))) / dt_used
        if not _in_basin(candidate, p):
            raise BasinError(
                "flow left the basin mid-flight",
                time=t,
                min_ratio=float(np.min(candidate / e0)),
            )
        converged = (
            inc < inc_tol
            and _sup_residual(candidate, p) < _residual_bound(candidate, p, tol)
        )
        u = candidate
        if converged and accepted == 1:
            # stationary initial data: keep the single-entry trace
            converged_at = 0.0
            break
        times.append(t)
        min_ratios.append(float(np.min(candidate / e0)))
        max_ratios.append(float(np.max(candidate / e0)))
        if converged:
            converged_at = t
            break
    else:
        raise ConvergenceError(
            f"no attractor within t_max={t_max} (last increment rate above tol)"
        )

    # replay the same steps from u0 to measure the recorded states against u
    sup = [float(np.max(np.abs(u0.values - u)))]
    for _, (s,), _ in islice(_march(p, [u0.values], t_max), len(times) - 1):
        sup.append(float(np.max(np.abs(s - u))))
    trace = FlowTrace(
        times=np.asarray(times),
        sup_distances=np.asarray(sup),
        min_ratios=np.asarray(min_ratios),
        max_ratios=np.asarray(max_ratios),
        converged_at=converged_at,
    )
    return ScalarField(p.grid, u), trace


def evolve_fixed(u0: ScalarField, p: ProblemData, n_steps: int, dt: float):
    """Exactly ``n_steps`` IMEX steps of fixed size dt (no adaptivity).

    Used for semigroup checks: composing runs over the same dt grid
    reproduces a single longer run bit for bit.  Raises
    :class:`PositivityLossError` when a step would need a shorter dt.
    """
    _check_same_grid(p.grid, u0)
    u = u0.values
    for _ in range(n_steps):
        (candidate,), dt_used = _imex_step(p, [u], dt)
        if dt_used != dt:
            raise PositivityLossError(
                "fixed-dt step lost positivity", dt=dt, min_value=float(u.min())
            )
        u = candidate
    return ScalarField(p.grid, u)


def stationary_residual_fields(
    u: ScalarField,
    grid: Grid,
    beta: ScalarField,
    psi1: ScalarField,
    psi2: ScalarField,
) -> float:
    """Sup norm of -L u - beta*u - psi1/u + psi2/u^3.

    Accepts raw fields (psi1 may vanish here) so closed-form solutions
    from other modules can be checked without a full problem build.
    """
    _check_same_grid(grid, u)
    if u.min() <= 0.0:
        raise ValueError("field must be strictly positive")
    res = _residual_values(grid, u.values, beta.values, psi1.values, psi2.values)
    return float(np.max(np.abs(res)))


def _residual_values(grid: Grid, u, beta, psi1, psi2) -> np.ndarray:
    """-L u - beta*u - psi1/u + psi2/u^3 on raw value arrays."""
    return -laplacian_values(grid, u) - beta * u - psi1 / u + psi2 / u**3


def _sup_residual(u: np.ndarray, p: ProblemData) -> float:
    res = _residual_values(p.grid, u, p.beta.values, p.psi1.values, p.psi2.values)
    return float(np.max(np.abs(res)))


def _residual_bound(u: np.ndarray, p: ProblemData, tol: float) -> float:
    """Stationary residual accepted at ``tol``: the larger of ``10*tol`` and
    ``_ROUND_OFF_SAFETY`` times the round-off of applying L to u.

    On fine 1-d grids the round-off term binds: on a 16384-point 2pi
    circle with max|u| near 3 the flow's iterates sit at 1.7-2.1e-8 and
    Newton's root at 5.9e-9, against ``4 * 1.8e-8`` here and ``10*tol`` =
    1e-8 at tol 1e-9; on a 2048-point circle it is about 1e-9.
    """
    round_off = laplacian_round_off(p.grid) * float(np.max(np.abs(u)))
    return max(10.0 * tol, _ROUND_OFF_SAFETY * round_off)


def stationary_residual(u: ScalarField, p: ProblemData) -> float:
    """Sup-norm stationary residual of u for the built problem."""
    return stationary_residual_fields(u, p.grid, p.beta, p.psi1, p.psi2)


def certify_sandwich(
    u_star: ScalarField, p: ProblemData, tol_h: float = 0.0
) -> SandwichReport:
    """Check y1_minus - tol_h <= u_star/e0 <= y1_plus + tol_h on the grid."""
    ratios = p.ratio(u_star)
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    y1m = p.profile_minus.y1
    y1p = p.profile_plus.y1
    return SandwichReport(
        min_ratio=lo,
        max_ratio=hi,
        y1_minus=y1m,
        y1_plus=y1p,
        tol_h=tol_h,
        passed=(lo >= y1m - tol_h) and (hi <= y1p + tol_h),
    )


def _newton_stationary(u0_values: np.ndarray, p: ProblemData, tol: float) -> ScalarField:
    """The attractor as the stationary solution found by Newton's method.

    The attractor is the unique positive stationary solution in the
    basin, and the sandwich ``[y1_minus*e0, y1_plus*e0]`` lies in the
    basin, so a stationary solution certified inside the sandwich is the
    attractor.  Newton is not globally convergent: ``u0_values`` must lie
    in the sandwich.  The Jacobian ``-L - beta + psi1/u**2 - 3*psi2/u**4``
    (SPD at a stable attractor) is factored at the start and kept across
    iterations (the chord method); it is refactored at the current iterate
    only when a step fails to shrink to at most 1/4 of the previous one.
    Each step is halved until the iterate stays positive, and iteration
    stops once the step is at most 1e-13 of max|u|.  The result is
    certified by positivity, a stationary residual within the flow's
    bound (``10*tol``, or the round-off floor of :func:`_residual_bound`)
    and the sandwich, widened only by the round-off band
    ``1e-12*max(1, y1_plus)`` (for constant data the sandwich is a single
    ratio, which the computed u/e0 meets only to an ulp or so); any
    failure raises :class:`ConvergenceError` carrying the residual.
    """
    grid = p.grid
    beta, psi1, psi2 = p.beta.values, p.psi1.values, p.psi2.values
    u = np.asarray(u0_values, dtype=float)
    solve = None
    previous_step = np.inf
    for iteration in range(1, _NEWTON_MAX_ITERATIONS + 1):
        res = _residual_values(grid, u, beta, psi1, psi2)
        if solve is None:
            try:
                solve = spd_solver(grid, 1.0, psi1 / u**2 - 3.0 * psi2 / u**4 - beta)
            except RuntimeError as exc:  # SuperLU: the factor is exactly singular
                raise _newton_failure(
                    "hit a singular Jacobian", u, p, iteration
                ) from exc
        delta = solve(res)  # J delta = res, so the Newton step is -delta
        if not np.all(np.isfinite(delta)):
            raise _newton_failure("produced a non-finite step", u, p, iteration)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = u - scale * delta
            if candidate.min() > 0.0:
                break
            scale *= 0.5
        else:
            raise _newton_failure("lost positivity", u, p, iteration)
        u = candidate
        step = scale * float(np.max(np.abs(delta)))
        if step <= _NEWTON_STEP_RTOL * float(u.max()):
            break
        if step > _CHORD_CONTRACTION * previous_step:
            solve = None  # the kept factor has gone stale: refactor at u
        previous_step = step
    else:
        raise _newton_failure("did not converge", u, p, iteration)
    u_star = ScalarField(grid, u)
    residual = _sup_residual(u, p)
    slack = _SLACK * max(1.0, p.profile_plus.y1)
    bound = _residual_bound(u, p, tol)
    if residual > bound or not certify_sandwich(u_star, p, slack).passed:
        raise _newton_failure("did not certify its root", u, p, iteration)
    return u_star


def _newton_failure(reason: str, u: np.ndarray, p: ProblemData, iterations: int):
    residual = _sup_residual(u, p)
    return ConvergenceError(
        f"Newton iteration {reason} after {iterations} iterations "
        f"(min_ratio={float(np.min(u / p.e0.values))!r}, "
        f"max_ratio={float(np.max(u / p.e0.values))!r}, residual={residual!r})",
        residual=residual,
    )


def certify_exponential_bound(
    trace: FlowTrace, p: ProblemData, epsilon: float
) -> ExponentialBoundReport:
    """Check the contraction estimate at every recorded time.

    The inequality is ``d(t) <= delta_inv * exp(-mu(eps) t) * d(0)`` with
    ``delta_inv = max(e0)/min(e0)``; the report carries the worst ratio
    of the two sides (pass iff it stays below 1 + 1e-6).
    """
    mu = decay_rate_mu(epsilon, p.profile_minus)
    e0 = p.e0.values
    delta_inv = float(e0.max() / e0.min())
    d0 = float(trace.sup_distances[0])
    if d0 == 0.0:
        return ExponentialBoundReport(
            mu=mu, delta_inv=delta_inv, initial_distance=0.0,
            max_ratio=0.0, passed=True,
        )
    bound = delta_inv * np.exp(-mu * trace.times) * d0
    max_ratio = float(np.max(trace.sup_distances / bound))
    return ExponentialBoundReport(
        mu=mu,
        delta_inv=delta_inv,
        initial_distance=d0,
        max_ratio=max_ratio,
        passed=max_ratio <= 1.0 + 1e-6,
    )


def comparison_principle_test(
    u0: ScalarField, w0: ScalarField, p: ProblemData, T: float
) -> OrderingReport:
    """Evolve an ordered pair with identical steps; check ordering survives.

    Both fields advance with the same dt sequence (a rejection for either
    halves the step for both), so the result isolates the monotonicity of
    the scheme from step-size effects.
    """
    _check_same_grid(p.grid, u0)
    _check_same_grid(p.grid, w0)
    if np.any(u0.values < w0.values):
        raise ValueError("initial data must satisfy u0 >= w0 pointwise")
    for f in (u0, w0):
        if not _in_basin(f.values, p):
            raise BasinError(
                "initial data outside the open basin", time=0.0,
                min_ratio=float(np.min(p.ratio(f))),
            )
    min_gap = float(np.min(u0.values - w0.values))
    for _, (u, w), _ in _march(p, [u0.values, w0.values], T):
        min_gap = min(min_gap, float(np.min(u - w)))
    return OrderingReport(min_gap=min_gap, passed=min_gap >= -1e-10)


def trace_to_csv(trace: FlowTrace, path):
    """Write the trace as ``t,sup_distance,min_ratio,max_ratio`` rows."""
    with open(path, "w") as fh:
        fh.write("t,sup_distance,min_ratio,max_ratio\n")
        for t, d, lo, hi in zip(
            trace.times, trace.sup_distances, trace.min_ratios, trace.max_ratios
        ):
            fh.write(f"{float(t)!r},{float(d)!r},{float(lo)!r},{float(hi)!r}\n")
