"""Parameter sweeps of the spectral data and the attractor.

Tracks lambda0(q), e0(., q) and the attractor u_star(., q) over a uniform
grid of one or two parameters, with finite-difference smoothness
diagnostics: smooth dependence is certified at desk scale by difference
quotients that converge at the expected rate under dyadic subsampling,
and by bounded Lipschitz quotients of the fields.  The attractor at each
q is found by Newton's method on the stationary equation, started inside
the sandwich and certified there, rather than by marching the heat flow.
Each q costs one factor of the shifted Schrodinger operator (inverse
iteration shifted just below lambda0, then Lanczos for the gap on the same
factor) and, as a rule, one Jacobian factor that Newton keeps across its
iterations, refactoring only when its steps stop contracting.  Failures
at a q are re-raised as :class:`ConvergenceError` naming the q and
carrying the cause's residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._table import write_csv
from .errors import AdmissibilityError, ConvergenceError, GroundflowError
from .grid import Grid, ScalarField
from .heatflow import ProblemData, _newton_stationary, build_problem
from .schrodinger import ground_state

_GAP_FLOOR = 1e-6  # abort threshold: suspected eigenvalue crossing
_DEGENERATE_FLOOR = 1e-12
_RATIO_BAND = (3.2, 4.8)  # 4 plus/minus 20 percent


@dataclass(frozen=True)
class ParamFamily:
    """Problem family over a uniform parameter grid (1 or 2 axes).

    Evaluators receive the parameter as a float for one axis and as a
    (q1, q2) tuple for two, and must return fields on ``grid``.
    """

    grid: Grid
    q_axes: tuple
    beta_of_q: object
    psi1_of_q: object
    psi2_of_q: object

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.q_axes)
        if not 1 <= len(axes) <= 2:
            raise ValueError(f"1 or 2 parameter axes supported, got {len(axes)}")
        for ax in axes:
            if ax.ndim != 1 or ax.size < 2:
                raise ValueError("each parameter axis needs at least 2 points")
            steps = np.diff(ax)
            if steps[0] <= 0.0 or not np.allclose(
                steps, steps[0], rtol=1e-10, atol=1e-14
            ):
                raise ValueError("parameter axes must be uniform and increasing")
        object.__setattr__(self, "q_axes", axes)

    @property
    def m(self) -> int:
        return len(self.q_axes)

    @property
    def q_shape(self):
        return tuple(ax.size for ax in self.q_axes)

    @property
    def q_points(self) -> np.ndarray:
        """All parameter points, C order, shape (nq, m)."""
        return np.array(list(product(*self.q_axes)))

    def at(self, q_tuple):
        q = q_tuple[0] if self.m == 1 else tuple(q_tuple)
        return self.beta_of_q(q), self.psi1_of_q(q), self.psi2_of_q(q)


@dataclass
class SweepResult:
    family: ParamFamily
    q_points: np.ndarray
    lambda0: np.ndarray
    gap: np.ndarray
    e0: list[ScalarField]
    first_differences: dict
    second_differences: dict
    u_star: list[ScalarField] | None = None
    lipschitz: dict | None = None


@dataclass(frozen=True)
class AxisSmoothness:
    axis: int
    ratio: float | None  # None when quotients are below the degeneracy floor
    quotient_max: float
    refinement_gap: float
    passed: bool


@dataclass(frozen=True)
class SmoothnessReport:
    order: int
    axes: list
    e0_lipschitz: list
    passed: bool


def _central_difference(values: np.ndarray, axis: int, stride: int, step: float,
                        order: int) -> np.ndarray:
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    lo, hi = stride, n - stride
    if hi <= lo:
        raise ValueError("axis too short for the requested stride")
    if order == 1:
        out = (v[2 * stride:] - v[: n - 2 * stride]) / (2.0 * stride * step)
    else:
        out = (v[2 * stride:] - 2.0 * v[stride:hi] + v[: n - 2 * stride]) / (
            (stride * step) ** 2
        )
    return np.moveaxis(out, 0, axis)


def _difference_tables(family: ParamFamily, values: np.ndarray):
    shaped = values.reshape(family.q_shape)
    first, second = {}, {}
    for axis, ax in enumerate(family.q_axes):
        step = float(ax[1] - ax[0])
        first[axis] = _central_difference(shaped, axis, 1, step, 1)
        second[axis] = _central_difference(shaped, axis, 1, step, 2)
    return first, second


def _check_gap(gap: float, q_tuple):
    if gap < _GAP_FLOOR:
        raise ConvergenceError(
            f"spectral gap {gap!r} below {_GAP_FLOOR} at q={q_tuple}; "
            "eigenvalue crossing suspected, sweep aborted"
        )


def sweep_ground_state(family: ParamFamily, tol: float = 1e-8) -> SweepResult:
    """Ground state at every parameter point, plus difference tables.

    Positivity and normalization pin the eigenvector sign at every q, so
    no alignment between neighboring parameters is needed.
    """
    lam, gaps, e0s = [], [], []
    for q_tuple in family.q_points:
        beta, _, _ = family.at(q_tuple)
        try:
            spectral = ground_state(family.grid, beta, tol=tol)
        except GroundflowError as exc:
            raise ConvergenceError(
                f"ground state failed at q={q_tuple}: {exc}",
                residual=getattr(exc, "residual", None),
            ) from exc
        _check_gap(spectral.gap, q_tuple)
        lam.append(spectral.lambda0)
        gaps.append(spectral.gap)
        e0s.append(spectral.e0)
    lam = np.asarray(lam)
    first, second = _difference_tables(family, lam)
    return SweepResult(
        family=family,
        q_points=family.q_points,
        lambda0=lam,
        gap=np.asarray(gaps),
        e0=e0s,
        first_differences=first,
        second_differences=second,
    )


def _axis_fields_lipschitz(family: ParamFamily, fields, axis: int) -> float:
    """Worst sup-norm quotient of a field list between axis neighbors."""
    stack = np.stack([f.values for f in fields]).reshape(
        family.q_shape + (family.grid.total_points,)
    )
    step = float(family.q_axes[axis][1] - family.q_axes[axis][0])
    diffs = np.abs(np.diff(stack, axis=axis)) / step
    return float(diffs.max())


def smoothness_diagnostic(result: SweepResult, order: int) -> SmoothnessReport:
    """Richardson ratio test on the difference quotients of lambda0(q).

    Quotients of the requested order are formed at spacings delta,
    2*delta and 4*delta by dyadic subsampling (needs at least 9 points
    per axis); second-order-accurate quotients make the coarse/fine
    refinement gaps shrink by a factor of 4, accepted within 20 percent.
    Exactly-polynomial families, whose gaps sit at rounding level, pass
    as degenerate.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    family = result.family
    shaped = result.lambda0.reshape(family.q_shape)
    axes_reports = []
    for axis, ax in enumerate(family.q_axes):
        if ax.size < 9:
            raise ValueError(
                "need at least 9 points per axis for the three-scale ratio test"
            )
        step = float(ax[1] - ax[0])
        quotients = {
            s: _central_difference(shaped, axis, s, step, order) for s in (1, 2, 4)
        }
        # compare on the common interior where all three strides exist
        def interior(arr, stride):
            v = np.moveaxis(arr, axis, 0)
            pad = 4 - stride
            return v[pad : v.shape[0] - pad if pad else None]

        d1 = interior(quotients[1], 1)
        d2 = interior(quotients[2], 2)
        d4 = interior(quotients[4], 4)
        gap_fine = float(np.max(np.abs(d2 - d1)))
        gap_coarse = float(np.max(np.abs(d4 - d2)))
        scale = max(1.0, float(np.max(np.abs(d1))))
        if gap_fine < _DEGENERATE_FLOOR * scale and gap_coarse < _DEGENERATE_FLOOR * scale:
            ratio, passed = None, True
        else:
            ratio = gap_coarse / gap_fine if gap_fine > 0.0 else np.inf
            passed = _RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]
        axes_reports.append(
            AxisSmoothness(
                axis=axis,
                ratio=ratio,
                quotient_max=float(np.max(np.abs(d1))),
                refinement_gap=gap_fine,
                passed=passed,
            )
        )
    e0_lip = [
        _axis_fields_lipschitz(family, result.e0, axis)
        for axis in range(family.m)
    ]
    return SmoothnessReport(
        order=order,
        axes=axes_reports,
        e0_lipschitz=e0_lip,
        passed=all(a.passed for a in axes_reports),
    )


def sweep_attractor(family: ParamFamily, tol: float = 1e-8) -> SweepResult:
    """Attractor at every parameter point, warm-started along the sweep.

    Admissibility is verified for every q up front (the first offending
    q is reported, as is the q of a ground state that fails to converge).
    Each attractor is the stationary solution found by Newton's method
    and certified inside the sandwich ``[y1_minus*e0, y1_plus*e0]`` with
    a stationary residual of at most ``10*tol`` (see
    ``heatflow._newton_stationary``).  The first q starts from the
    midpoint ratio; each later q starts from the previous attractor with
    its ratio u/e0 clipped into the new sandwich, since Newton may fail
    from starts far outside it.  ``tol`` must lie in (0, 1e-4].
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    problems: list[ProblemData] = []
    for q_tuple in family.q_points:
        beta, psi1, psi2 = family.at(q_tuple)
        try:
            p = build_problem(family.grid, beta, psi1, psi2, tol=tol)
        except AdmissibilityError as exc:
            raise AdmissibilityError(
                f"admissibility fails first at q={q_tuple}", margin=exc.margin
            ) from exc
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"ground state failed at q={q_tuple}: {exc}", residual=exc.residual
            ) from exc
        _check_gap(p.spectral.gap, q_tuple)
        problems.append(p)

    u_stars: list[ScalarField] = []
    previous: ScalarField | None = None
    for p, q_tuple in zip(problems, family.q_points):
        try:
            u_star = _newton_stationary(_start_field(p, previous), p, tol)
        except GroundflowError as exc:
            raise ConvergenceError(
                f"attractor failed at q={q_tuple}: {exc}",
                residual=getattr(exc, "residual", None),
            ) from exc
        u_stars.append(u_star)
        previous = u_star

    lam = np.asarray([p.spectral.lambda0 for p in problems])
    first, second = _difference_tables(family, lam)
    lipschitz = {
        axis: _axis_fields_lipschitz(family, u_stars, axis)
        for axis in range(family.m)
    }
    return SweepResult(
        family=family,
        q_points=family.q_points,
        lambda0=lam,
        gap=np.asarray([p.spectral.gap for p in problems]),
        e0=[p.spectral.e0 for p in problems],
        first_differences=first,
        second_differences=second,
        u_star=u_stars,
        lipschitz=lipschitz,
    )


def _start_field(p: ProblemData, previous: ScalarField | None) -> np.ndarray:
    """Newton start inside the sandwich: the previous attractor's ratio
    clipped into [y1_minus, y1_plus], or the midpoint ratio for the first q."""
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    e0 = p.e0.values
    if previous is None:
        return 0.5 * (y1m + y1p) * e0
    return np.clip(previous.values / e0, y1m, y1p) * e0


def sweep_to_csv(result: SweepResult, path):
    """Write ``q1[,q2],lambda0,gap,min_ratio,max_ratio`` rows."""
    if result.u_star is None:
        raise ValueError("sweep has no attractor data; run sweep_attractor")
    m = result.family.m
    header = ("q1,q2" if m == 2 else "q1") + ",lambda0,gap,min_ratio,max_ratio"
    ratios = np.array([u.values / e.values for u, e in zip(result.u_star, result.e0)])
    q_columns = np.asarray(result.q_points, dtype=float).T
    write_csv(path, header, [*q_columns, result.lambda0, result.gap,
                             ratios.min(axis=1), ratios.max(axis=1)])
