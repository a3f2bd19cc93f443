"""Parameter sweeps of the spectral data and the attractor.

Tracks lambda0(q), e0(., q) and the attractor u_star(., q) over a uniform
grid of one parameter q, with finite-difference smoothness diagnostics:
smooth dependence is certified at desk scale by second differences of
lambda0 that converge at the expected rate under dyadic subsampling, and
by bounded Lipschitz quotients of the fields.  The attractor at each
q is found by Newton's method on the stationary equation, started inside
the sandwich and certified there, rather than by marching the heat flow.
Each q costs one factor of the shifted Schrodinger operator (one Lanczos
run on its inverse gives lambda0, e0 and the gap).  Both solvers work on
the axes along which the problem's data vary, and the full grid certifies
what they return.  Newton keeps its
Jacobian factor across its iterations and
from one q to the next (the chord method), refactoring only when its
steps stop contracting, so a sweep as a rule builds one Jacobian factor
in all, at the price of a few more iterations per q.  The sweep holds
that factor in one place, and a stale one is freed before the next is
built, so no two Jacobian factors are ever alive at once.  Failures
at a q are re-raised as :class:`ConvergenceError` naming the q and
carrying the cause's residual.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

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
    """Problem family over a uniform, increasing parameter grid ``q``.

    Evaluators receive the parameter as a float and must return fields on
    ``grid``.
    """

    grid: Grid
    q: np.ndarray
    beta_of_q: object
    psi1_of_q: object
    psi2_of_q: object

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("the parameter grid needs at least 2 points")
        steps = np.diff(q)
        if steps[0] <= 0.0 or not np.allclose(
            steps, steps[0], rtol=1e-10, atol=1e-14
        ):
            raise ValueError("the parameter grid must be uniform and increasing")
        object.__setattr__(self, "q", q)

    @property
    def step(self) -> float:
        return float(self.q[1] - self.q[0])

    def at(self, q: float):
        return self.beta_of_q(q), self.psi1_of_q(q), self.psi2_of_q(q)


@dataclass
class SweepResult:
    family: ParamFamily
    lambda0: np.ndarray
    gap: np.ndarray
    e0: list[ScalarField]
    u_star: list[ScalarField] | None = None
    lipschitz: float | None = None


@dataclass(frozen=True)
class SmoothnessReport:
    ratio: float | None  # None when quotients are below the degeneracy floor
    quotient_max: float
    refinement_gap: float
    e0_lipschitz: float
    passed: bool


def _second_difference(values: np.ndarray, stride: int, step: float) -> np.ndarray:
    """Central second differences of ``values`` at spacing ``stride*step``."""
    n = values.size
    return (values[2 * stride:] - 2.0 * values[stride:n - stride]
            + values[: n - 2 * stride]) / (stride * step) ** 2


@contextmanager
def _failing_at(q: float, stage: str):
    """Re-raise a package failure inside the block as one naming ``q``.

    An admissibility failure keeps its type and margin; any other
    :class:`GroundflowError` becomes a :class:`ConvergenceError` saying
    which ``stage`` failed and carrying the cause's residual.  Other
    exceptions (programming errors, ``ValueError``) pass unchanged.
    """
    try:
        yield
    except AdmissibilityError as exc:
        raise AdmissibilityError(
            f"admissibility fails first at q={q}", margin=exc.margin
        ) from exc
    except GroundflowError as exc:
        raise ConvergenceError(
            f"{stage} failed at q={q}: {exc}",
            residual=getattr(exc, "residual", None),
        ) from exc


def _spectral_sweep(family: ParamFamily, solve_at) -> list:
    """``solve_at(beta, psi1, psi2)`` at every q in order: the one per-q
    loop of both sweeps.

    Each result (a :class:`SpectralResult` or a :class:`ProblemData`; both
    carry ``lambda0``, ``gap`` and ``e0``) has its gap checked against the
    floor before the next q is solved (a gap below it suggests an
    eigenvalue crossing), and a failure names its q.
    """
    results = []
    for q in family.q:
        with _failing_at(q, "ground state"):
            result = solve_at(*family.at(q))
        if result.gap < _GAP_FLOOR:
            raise ConvergenceError(
                f"spectral gap {result.gap!r} below {_GAP_FLOOR} at q={q}; "
                "eigenvalue crossing suspected, sweep aborted"
            )
        results.append(result)
    return results


def _fields_lipschitz(family: ParamFamily, fields) -> float:
    """Worst sup-norm quotient of a field list between neighboring q."""
    stack = np.stack([f.values for f in fields])
    return float((np.abs(np.diff(stack, axis=0)) / family.step).max())


def _sweep_result(family: ParamFamily, solved: list, u_stars=None) -> SweepResult:
    """The sweep's tables from the per-q results of :func:`_spectral_sweep`
    (and the attractors, when there are any)."""
    return SweepResult(
        family=family,
        lambda0=np.asarray([s.lambda0 for s in solved]),
        gap=np.asarray([s.gap for s in solved]),
        e0=[s.e0 for s in solved],
        u_star=u_stars,
        lipschitz=None if u_stars is None else _fields_lipschitz(family, u_stars),
    )


def sweep_ground_state(family: ParamFamily) -> SweepResult:
    """Ground state at every parameter point.

    Each ground state is converged to the eigen-solver's residual target.
    Positivity and normalization pin the eigenvector sign at every q, so
    no alignment between neighboring parameters is needed.
    """
    spectra = _spectral_sweep(
        family, lambda beta, psi1, psi2: ground_state(family.grid, beta)
    )
    return _sweep_result(family, spectra)


def smoothness_diagnostic(result: SweepResult) -> SmoothnessReport:
    """Richardson ratio test on the second differences of lambda0(q).

    Second differences are formed at spacings delta, 2*delta and 4*delta
    by dyadic subsampling (needs at least 9 points); being second-order
    accurate, they make the coarse/fine refinement gaps shrink by a
    factor of 4, accepted within 20 percent.  Exactly-polynomial
    families, whose gaps sit at rounding level, pass as degenerate.
    ``e0_lipschitz`` is the worst sup-norm quotient of e0 between
    neighboring q.
    """
    family = result.family
    if family.q.size < 9:
        raise ValueError("need at least 9 points for the three-scale ratio test")
    # compare on the common interior where all three strides exist
    d1, d2, d4 = (
        _second_difference(result.lambda0, s, family.step)[4 - s: family.q.size - 4 - s]
        for s in (1, 2, 4)
    )
    gap_fine = float(np.max(np.abs(d2 - d1)))
    gap_coarse = float(np.max(np.abs(d4 - d2)))
    quotient_max = float(np.max(np.abs(d1)))
    floor = _DEGENERATE_FLOOR * max(1.0, quotient_max)
    if gap_fine < floor and gap_coarse < floor:
        ratio, passed = None, True
    else:
        ratio = gap_coarse / gap_fine if gap_fine > 0.0 else np.inf
        passed = _RATIO_BAND[0] <= ratio <= _RATIO_BAND[1]
    return SmoothnessReport(
        ratio=ratio,
        quotient_max=quotient_max,
        refinement_gap=gap_fine,
        e0_lipschitz=_fields_lipschitz(family, result.e0),
        passed=passed,
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
    from starts far outside it, and from the Jacobian factor the previous
    q ended with: the sweep holds that one factor, and Newton drops it
    before it builds another.  ``tol`` must lie in (0, 1e-4].
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"tol must lie in (0, 1e-4], got {tol}")
    problems = _spectral_sweep(family, partial(build_problem, family.grid))
    u_stars: list[ScalarField] = []
    previous: ScalarField | None = None
    held = {}  # Newton's one Jacobian factor, kept from one q to the next
    for p, q in zip(problems, family.q):
        with _failing_at(q, "attractor"):
            previous = _newton_stationary(
                _start_field(p, previous), p, tol, held
            )
        u_stars.append(previous)
    return _sweep_result(family, problems, u_stars)


def _start_field(p: ProblemData, previous: ScalarField | None) -> np.ndarray:
    """Newton start inside the sandwich: the previous attractor's ratio
    clipped into [y1_minus, y1_plus], or the midpoint ratio for the first q."""
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    e0 = p.e0.values
    if previous is None:
        return 0.5 * (y1m + y1p) * e0
    return np.clip(previous.values / e0, y1m, y1p) * e0


def sweep_to_csv(result: SweepResult, path):
    """Write ``q1,lambda0,gap,min_ratio,max_ratio`` rows."""
    if result.u_star is None:
        raise ValueError("sweep has no attractor data; run sweep_attractor")
    ratios = np.array([u.values / e.values for u, e in zip(result.u_star, result.e0)])
    write_csv(path, "q1,lambda0,gap,min_ratio,max_ratio", [
        result.family.q, result.lambda0, result.gap,
        ratios.min(axis=1), ratios.max(axis=1),
    ])
