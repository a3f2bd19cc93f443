"""Planar Hamiltonian dynamics of the stationary problem on a circle.

The stationary equation ``u'' + f(u) = 0`` with
``f(u) = beta*u + psi1/u - psi2/u**3`` is the Hamiltonian system
``u' = v, v' = -f(u)`` on the half-plane u > 0, conserving
``H(u, v) = (v^2 + beta*u^2)/2 + psi1*log(u) + psi2/(2*u^2)``.
This module integrates orbits, classifies the fixed points, locates the
separatrix level through the saddle, and evaluates the closed-form
solution family available when psi1 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .comparison import _equilibrium_slopes
from .errors import PhaseSpaceExitError

SADDLE = "saddle"
CENTER = "center"
DEGENERATE = "degenerate"

PERIODIC_NONE = "none"
PERIODIC_UNIQUE_CONSTANT = "unique_constant"
PERIODIC_TWO_PARAMETER_FAMILY = "two_parameter_family"

_CLOSURE_TOL = 1e-6
_RADICAND_TOL = 1e-12


@dataclass(frozen=True)
class PlanarState:
    """Point of the phase half-plane u > 0."""

    u: float
    v: float

    def __post_init__(self):
        if not (self.u > 0.0):
            raise ValueError(f"phase space requires u > 0, got u={self.u}")


@dataclass(frozen=True)
class OrbitResult:
    """Sampled orbit with conserved-energy diagnostics.

    ``closed`` is set when the orbit returns to its Poincare section
    point (v = 0 crossed upward) within 1e-6; ``period`` is the time
    between consecutive section crossings, None for non-closed runs.
    """

    times: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    energies: np.ndarray
    energy_drift: float
    closed: bool
    period: float | None


def _force(u: float, beta: float, psi1: float, psi2: float) -> float:
    return beta * u + psi1 / u - psi2 / u**3


def hamiltonian_uv(u, v, beta: float, psi1: float, psi2: float):
    """H on raw coordinates; vectorized over numpy inputs."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("phase space requires u > 0")
    val = 0.5 * (v**2 + beta * u**2) + psi1 * np.log(u) + 0.5 * psi2 / u**2
    return float(val) if val.ndim == 0 else val


def hamiltonian(s: PlanarState, beta: float, psi1: float, psi2: float) -> float:
    return hamiltonian_uv(s.u, s.v, beta, psi1, psi2)


def integrate_orbit(
    s0: PlanarState,
    beta: float,
    psi1: float,
    psi2: float,
    T: float,
    dt: float,
) -> OrbitResult:
    """Classical RK4 orbit on [0, T] with energy-drift bookkeeping.

    Raises :class:`PhaseSpaceExitError` (carrying the exit time) if any
    stage reaches u <= 0.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("T and dt must be positive")
    n_steps = int(math.ceil(T / dt - 1e-12))
    times = np.empty(n_steps + 1)
    us = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)

    u, v = s0.u, s0.v
    times[0], us[0], vs[0] = 0.0, u, v
    crossings_t: list[float] = []
    crossings_u: list[float] = []
    t = 0.0
    for k in range(1, n_steps + 1):
        h = min(dt, T - t)

        ku1 = v
        kv1 = -_force(u, beta, psi1, psi2)
        u2 = u + 0.5 * h * ku1
        if u2 <= 0.0:
            raise PhaseSpaceExitError("orbit reached u <= 0", exit_time=t)
        ku2 = v + 0.5 * h * kv1
        kv2 = -_force(u2, beta, psi1, psi2)
        u3 = u + 0.5 * h * ku2
        if u3 <= 0.0:
            raise PhaseSpaceExitError("orbit reached u <= 0", exit_time=t)
        ku3 = v + 0.5 * h * kv2
        kv3 = -_force(u3, beta, psi1, psi2)
        u4 = u + h * ku3
        if u4 <= 0.0:
            raise PhaseSpaceExitError("orbit reached u <= 0", exit_time=t)
        ku4 = v + h * kv3
        kv4 = -_force(u4, beta, psi1, psi2)

        u_new = u + (h / 6.0) * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
        v_new = v + (h / 6.0) * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
        t_new = t + h
        if u_new <= 0.0 or not (math.isfinite(u_new) and math.isfinite(v_new)):
            raise PhaseSpaceExitError("orbit reached u <= 0", exit_time=t_new)
        # Poincare section v = 0, crossed upward (u at its sweep minimum)
        if v < 0.0 <= v_new:
            frac = -v / (v_new - v)
            crossings_t.append(t + frac * h)
            crossings_u.append(u + frac * (u_new - u))
        u, v, t = u_new, v_new, t_new
        times[k], us[k], vs[k] = t, u, v

    energies = hamiltonian_uv(us, vs, beta, psi1, psi2)
    drift = float(np.max(np.abs(energies - energies[0])))
    closed = False
    period = None
    if len(crossings_t) >= 2:
        period = crossings_t[1] - crossings_t[0]
        closed = (
            period > 0.0 and abs(crossings_u[1] - crossings_u[0]) <= _CLOSURE_TOL
        )
    return OrbitResult(
        times=times,
        us=us,
        vs=vs,
        energies=energies,
        energy_drift=drift,
        closed=closed,
        period=period if closed else None,
    )


def fixed_points_and_types(beta: float, psi1: float, psi2: float):
    """Fixed points (u, 0) with saddle/center type from the force slope.

    The linearization has eigenvalues +-sqrt(-f'(u)): a real pair when
    f'(u) < 0 (saddle), an imaginary pair when f'(u) > 0 (center).
    """
    if psi1 < 0.0 or psi2 < 0.0:
        raise ValueError("psi1 and psi2 must be nonnegative")
    if beta == 0.0 and psi1 == 0.0 and psi2 == 0.0:
        raise ValueError("degenerate system: beta = psi1 = psi2 = 0")
    result = []
    for root, slope in _equilibrium_slopes(beta, psi1, psi2):
        if slope < 0.0:
            kind = SADDLE
        elif slope > 0.0:
            kind = CENTER
        else:
            kind = DEGENERATE
        result.append((root, kind))
    return result


def separatrix_level(beta: float, psi1: float, psi2: float):
    """H at the saddle fixed point; None when no saddle exists."""
    for root, kind in fixed_points_and_types(beta, psi1, psi2):
        if kind == SADDLE:
            return hamiltonian_uv(root, 0.0, beta, psi1, psi2)
    return None


def closed_form_stationary(
    beta: float, psi2: float, C1: float, C2: float, x: float
):
    """Closed-form stationary solution for psi1 = 0, evaluated at x.

    Branches by the sign of beta (trigonometric / hyperbolic / quadratic
    amplitude).  Returns None where a radicand is nonpositive; an inner
    radicand within 1e-12 of zero is clamped so the degenerate constant
    amplitude evaluates cleanly.
    """
    if psi2 <= 0.0:
        raise ValueError(f"psi2 must be positive, got {psi2}")
    if beta > 0.0:
        rad = C1 * C1 - 4.0 * beta * psi2
        if abs(rad) <= _RADICAND_TOL * max(1.0, C1 * C1):
            rad = 0.0  # degenerate constant amplitude sits on this boundary
        elif rad < 0.0:
            return None
        expr = (C1 + math.sqrt(rad) * math.sin(2.0 * math.sqrt(beta) * (x + C2))) / (
            2.0 * beta
        )
    elif beta < 0.0:
        ab = -beta
        rad = C1 * C1 + 4.0 * ab * psi2
        expr = (-C1 + math.sqrt(rad) * math.cosh(2.0 * math.sqrt(ab) * (x + C2))) / (
            2.0 * ab
        )
    else:
        if C1 == 0.0:
            return None
        expr = psi2 / C1 + C1 * (x + C2) ** 2
    if expr <= 0.0:
        return None
    return math.sqrt(expr)


def periodicity_class(beta: float) -> str:
    """Which 2pi-periodic positive solutions exist in the psi1 = 0 family.

    None for beta <= 0; a unique constant when 2*sqrt(beta) is not an
    integer; a two-parameter family when beta = n^2/4 for natural n.
    """
    if beta <= 0.0:
        return PERIODIC_NONE
    frequency = 2.0 * math.sqrt(beta)
    nearest = round(frequency)
    if nearest >= 1 and abs(frequency - nearest) <= 1e-9 * max(1.0, frequency):
        return PERIODIC_TWO_PARAMETER_FAMILY
    return PERIODIC_UNIQUE_CONSTANT


def orbit_to_csv(orbit: OrbitResult, path):
    """Write the orbit as ``t,u,v,H`` rows."""
    with open(path, "w") as fh:
        fh.write("t,u,v,H\n")
        for t, u, v, e in zip(orbit.times, orbit.us, orbit.vs, orbit.energies):
            fh.write(f"{float(t)!r},{float(u)!r},{float(v)!r},{float(e)!r}\n")


def portrait_to_csv(
    beta: float, psi1: float, psi2: float, u_values, v_values, path
):
    """Write an H(u, v) grid as ``u,v,H`` rows for contour plotting."""
    u_values = np.asarray(u_values, dtype=float)
    v_values = np.asarray(v_values, dtype=float)
    if np.any(u_values <= 0.0):
        raise ValueError("portrait u samples must be positive")
    uu, vv = np.meshgrid(u_values, v_values, indexing="ij")
    energy = hamiltonian_uv(uu, vv, beta, psi1, psi2)
    # rows run u-major, as the ij mesh ravels; each u and v is formatted once
    points = product(
        map(repr, u_values.ravel().tolist()), map(repr, v_values.ravel().tolist())
    )
    with open(path, "w") as fh:
        fh.write("u,v,H\n")
        fh.writelines(
            "%s,%s,%r\n" % (u, v, h)
            for (u, v), h in zip(points, energy.ravel().tolist())
        )
