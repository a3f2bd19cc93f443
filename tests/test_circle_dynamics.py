import numpy as np
import pytest

from groundflow import (
    PlanarState,
    ScalarField,
    closed_form_stationary,
    fixed_points_and_types,
    hamiltonian,
    integrate_orbit,
    make_circle_grid,
    periodicity_class,
    separatrix_level,
    stationary_residual_fields,
)
from groundflow.circle_dynamics import (
    PERIODIC_NONE,
    PERIODIC_TWO_PARAMETER_FAMILY,
    PERIODIC_UNIQUE_CONSTANT,
    hamiltonian_uv,
    orbit_to_csv,
)
from groundflow.errors import PhaseSpaceExitError
from oracles import reference_orbit

SEP_LEVEL_REF = 0.7725887222397811  # H(2, 0) for beta=-1, psi1=4, psi2=0


def _force(u, beta, psi1, psi2):
    return beta * u + psi1 / u - psi2 / u**3


# ---------------------------------------------------------------- hamiltonian


def test_hamiltonian_values():
    assert hamiltonian(PlanarState(1.0, 0.0), 1.0, 0.0, 0.0) == 0.5
    assert hamiltonian(PlanarState(1.0, 2.0), 0.0, 1.0, 2.0) == 3.0
    with pytest.raises(ValueError):
        PlanarState(0.0, 1.0)


def test_hamiltonian_gradient_matches_vector_field():
    rng = np.random.RandomState(30)
    h = 1e-6
    for _ in range(100):
        beta = rng.uniform(-2, 2)
        psi1 = rng.uniform(0, 2)
        psi2 = rng.uniform(0, 2)
        u = rng.uniform(0.5, 3.0)
        v = rng.uniform(-2, 2)
        du = (
            hamiltonian_uv(u + h, v, beta, psi1, psi2)
            - hamiltonian_uv(u - h, v, beta, psi1, psi2)
        ) / (2 * h)
        dv = (
            hamiltonian_uv(u, v + h, beta, psi1, psi2)
            - hamiltonian_uv(u, v - h, beta, psi1, psi2)
        ) / (2 * h)
        f = _force(u, beta, psi1, psi2)
        assert abs(du - f) <= 1e-6 * max(1.0, abs(f))
        assert abs(dv - v) <= 1e-6 * max(1.0, abs(v))


# ---------------------------------------------------------------- fixed points


def test_fixed_points_saddle_center_pair():
    pts = fixed_points_and_types(-1.0, 2.0, 0.75)
    assert len(pts) == 2
    (u1, k1), (u2, k2) = pts
    assert abs(u1 - np.sqrt(1.5)) < 1e-12 and k1 == "saddle"
    assert abs(u2 - np.sqrt(0.5)) < 1e-12 and k2 == "center"


def test_fixed_points_single_center():
    pts = fixed_points_and_types(1.0, 1.0, 1.0)
    assert len(pts) == 1
    u1, kind = pts[0]
    assert abs(u1 - 0.7861513777574233) < 1e-12
    assert kind == "center"


def test_fixed_points_single_saddle():
    pts = fixed_points_and_types(-1.0, 4.0, 0.0)
    assert pts == [(2.0, "saddle")]


def test_fixed_points_pure_quartic_center():
    pts = fixed_points_and_types(0.5, 0.0, 1.0)
    assert len(pts) == 1
    assert abs(pts[0][0] - 2.0 ** 0.25) < 1e-12
    assert pts[0][1] == "center"


def test_types_match_linearization_eigenvalues():
    for beta, psi1, psi2 in [(-1.0, 2.0, 0.75), (1.0, 1.0, 1.0), (-1.0, 4.0, 0.0)]:
        for u, kind in fixed_points_and_types(beta, psi1, psi2):
            slope = beta - psi1 / u**2 + 3 * psi2 / u**4
            eigs = np.linalg.eigvals(np.array([[0.0, 1.0], [-slope, 0.0]]))
            if kind == "saddle":
                assert np.max(np.abs(eigs.imag)) < 1e-12
            else:
                assert np.max(np.abs(eigs.real)) < 1e-12


def test_degenerate_system_rejected():
    with pytest.raises(ValueError):
        fixed_points_and_types(0.0, 0.0, 0.0)


# ---------------------------------------------------------------- separatrix


def test_separatrix_level_value():
    level = separatrix_level(-1.0, 4.0, 0.0)
    assert abs(level - SEP_LEVEL_REF) < 1e-14
    assert separatrix_level(1.0, 1.0, 1.0) is None


def test_separatrix_relation_on_level():
    for beta, psi1, psi2 in [(-1.0, 4.0, 0.0), (-1.0, 2.0, 0.75)]:
        pts = dict((k, u) for u, k in fixed_points_and_types(beta, psi1, psi2))
        y1 = pts["saddle"]
        level = separatrix_level(beta, psi1, psi2)
        lo = pts.get("center", 0.3 * y1) * 1.01
        for u in np.linspace(lo, 0.999 * y1, 50):
            v_sq = 2.0 * (
                level
                - 0.5 * beta * u**2
                - psi1 * np.log(u)
                - 0.5 * psi2 / u**2
            )
            printed = (
                abs(beta) * (u**2 - y1**2)
                - 2.0 * psi1 * np.log(u / y1)
                - psi2 * (u**-2 - y1**-2)
            )
            assert abs(v_sq - printed) < 1e-10


# ---------------------------------------------------------------- orbits


def test_orbit_at_equilibrium_is_constant():
    pts = fixed_points_and_types(-1.0, 2.0, 0.75)
    center = pts[1][0]
    orbit = integrate_orbit(PlanarState(center, 0.0), -1.0, 2.0, 0.75, 5.0, 1e-3)
    assert orbit.energy_drift < 1e-13
    assert np.max(np.abs(orbit.us - center)) < 1e-12
    assert np.max(np.abs(orbit.vs)) < 1e-12
    assert not orbit.closed


def test_closed_orbit_around_center():
    orbit = integrate_orbit(PlanarState(1.05, 0.0), 1.0, 0.0, 1.0, 20.0, 1e-3)
    assert orbit.closed
    assert orbit.energy_drift < 1e-8
    # near the center u* = 1 the period approaches 2*pi/sqrt(f'(1)) = pi
    assert abs(orbit.period - np.pi) < 5e-3


def test_separatrix_orbit_approaches_saddle():
    # rounding in the level eventually lets orbits slip past the saddle
    # (the unstable direction amplifies it), so test the approach phase:
    # the distance to the saddle contracts at rate sqrt(-f'(y1)) and the
    # orbit stays on the bounded side of it
    beta, psi1, psi2 = -1.0, 2.0, 0.75
    y1 = np.sqrt(1.5)
    level = separatrix_level(beta, psi1, psi2)
    u0 = 0.9 * y1
    v_sq = 2.0 * (
        level - 0.5 * beta * u0**2 - psi1 * np.log(u0) - 0.5 * psi2 / u0**2
    )
    s0 = PlanarState(u0, np.sqrt(v_sq))
    orbit = integrate_orbit(s0, beta, psi1, psi2, 8.0, 5e-4)
    assert np.max(orbit.us) <= y1 + 1e-6
    assert abs(orbit.us[-1] - y1) < 1e-3
    assert abs(orbit.vs[-1]) < 1e-3
    assert orbit.energy_drift < 1e-10


def test_orbit_exits_phase_space():
    # below the separatrix with psi2 = 0 the flow reaches u = 0
    with pytest.raises(PhaseSpaceExitError) as err:
        integrate_orbit(PlanarState(1.0, -1.0), -1.0, 4.0, 0.0, 10.0, 1e-3)
    assert err.value.exit_time > 0.0


@pytest.mark.parametrize("u0, beta, psi1, psi2, dt", [
    (1e-200, -1.0, 1.0, 1.0, 0.1),  # u**3 underflows to 0
    (2.3e-72, 1e-12, 9.2, 9.4, 1.0),  # the first step flings u to where u**3 overflows
])
def test_orbit_force_out_of_float_range_exits_phase_space(u0, beta, psi1, psi2, dt):
    with pytest.raises(PhaseSpaceExitError) as err:
        integrate_orbit(PlanarState(u0, 0.0), beta, psi1, psi2, 1.0, dt)
    assert err.value.exit_time == 0.0


@pytest.mark.parametrize("s0, beta, psi1, psi2, T, dt", [
    # a closed orbit around the center, several periods
    ((0.6, 0.0), -1.0, 1.0, 0.1, 10.0, 1e-3),
    # psi1 = 0 and beta > 0: the quartic center, started off the section
    ((1.05, 0.3), 1.0, 0.0, 1.0, 20.0, 2e-3),
    # T is not a multiple of dt: the last step is a third of dt
    ((0.75, 0.1), -1.0, 2.0, 0.75, 7.3, 3e-3),
], ids=["center", "quartic", "short-last-step"])
def test_orbit_matches_reference_rk4_bitwise(s0, beta, psi1, psi2, T, dt):
    orbit = integrate_orbit(PlanarState(*s0), beta, psi1, psi2, T, dt)
    times, us, vs, period = reference_orbit(*s0, beta, psi1, psi2, T, dt)
    assert np.array_equal(orbit.times, times)
    assert np.array_equal(orbit.us, us)
    assert np.array_equal(orbit.vs, vs)
    assert orbit.period == period


def test_time_reversal():
    s0 = PlanarState(1.3, 0.4)
    fwd = integrate_orbit(s0, -1.0, 2.0, 0.75, 7.0, 1e-3)
    back = integrate_orbit(
        PlanarState(fwd.us[-1], -fwd.vs[-1]), -1.0, 2.0, 0.75, 7.0, 1e-3
    )
    assert abs(back.us[-1] - s0.u) < 1e-6
    assert abs(back.vs[-1] + s0.v) < 1e-6


def test_period_increases_with_level_inside_separatrix_region():
    beta, psi1, psi2 = -1.0, 2.0, 0.75
    y2 = np.sqrt(0.5)
    periods = []
    starts = np.linspace(y2 + 0.03, y2 + 0.33, 20)
    for u0 in starts:
        orbit = integrate_orbit(PlanarState(u0, 0.0), beta, psi1, psi2, 25.0, 2e-3)
        assert orbit.closed
        periods.append(orbit.period)
    levels = [hamiltonian_uv(u0, 0.0, beta, psi1, psi2) for u0 in starts]
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert all(b > a - 1e-9 for a, b in zip(periods, periods[1:]))


def test_orbit_csv(tmp_path):
    orbit = integrate_orbit(PlanarState(1.05, 0.0), 1.0, 0.0, 1.0, 1.0, 1e-2)
    path = tmp_path / "orbit.csv"
    orbit_to_csv(orbit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,v,H"
    assert len(lines) == len(orbit.times) + 1


# ---------------------------------------------------------------- closed forms


def test_degenerate_amplitude_gives_constant_quartic_root():
    c1 = 2.0 * np.sqrt(0.5 * 1.0)
    for x in (0.0, 0.7, 3.1):
        val = closed_form_stationary(0.5, 1.0, c1, 0.4, x)
        assert abs(val - 2.0 ** 0.25) <= 1e-12


def test_resonant_family_is_periodic_and_positive():
    xs = np.linspace(0.0, 2 * np.pi, 200)
    vals = np.array([closed_form_stationary(1.0, 1.0, 2.5, 0.0, x) for x in xs])
    assert np.all(vals > 0.0)
    expected = np.sqrt(1.25 + 0.75 * np.sin(2 * xs))
    assert np.max(np.abs(vals - expected)) < 1e-12
    period_check = closed_form_stationary(1.0, 1.0, 2.5, 0.0, 0.3 + 2 * np.pi)
    assert abs(period_check - closed_form_stationary(1.0, 1.0, 2.5, 0.0, 0.3)) < 1e-12


@pytest.mark.parametrize(
    "beta,psi2,c1,c2",
    [
        (1.0, 1.0, 2.5, 0.0),
        (0.8, 0.5, 2.0, 0.3),
        (-0.6, 1.0, -1.0, 0.2),
        (0.0, 1.0, 1.5, 0.1),
    ],
)
def test_first_integral_of_closed_forms(beta, psi2, c1, c2):
    # (u')^2 = C1 - beta*u^2 - psi2*u^-2 along every branch
    h = 1e-5
    xs = np.linspace(0.05, 2.9, 100)
    for x in xs:
        vals = [
            closed_form_stationary(beta, psi2, c1, c2, xx)
            for xx in (x - h, x, x + h)
        ]
        if any(v is None for v in vals):
            continue
        um, u0, up = vals
        du = (up - um) / (2 * h)
        target = c1 - beta * u0**2 - psi2 / u0**2
        assert abs(du**2 - target) < 1e-8


def test_closed_form_absent_cases():
    assert closed_form_stationary(1.0, 1.0, 1.0, 0.0, 0.0) is None  # C1^2 < 4 b psi2
    assert closed_form_stationary(0.0, 1.0, 0.0, 0.0, 1.0) is None  # C1 = 0
    # beta=0 branch with C1 < 0: expression goes negative for large |x|
    assert closed_form_stationary(0.0, 1.0, -1.0, 0.0, 5.0) is None
    with pytest.raises(ValueError):
        closed_form_stationary(1.0, 0.0, 1.0, 0.0, 0.0)


def test_closed_form_residual_is_second_order():
    errs = []
    for n in (64, 128):
        g = make_circle_grid(2 * np.pi, n)
        u = ScalarField(
            g,
            np.array(
                [closed_form_stationary(1.0, 1.0, 2.5, 0.0, x) for x in g.coords()[0]]
            ),
        )
        errs.append(
            stationary_residual_fields(
                u,
                g,
                ScalarField.constant(g, 1.0),
                ScalarField.constant(g, 0.0),
                ScalarField.constant(g, 1.0),
            )
        )
    assert 3.4 <= errs[0] / errs[1] <= 4.6


# ---------------------------------------------------------------- periodicity


def test_periodicity_classes():
    assert periodicity_class(-1.0) == PERIODIC_NONE
    assert periodicity_class(0.0) == PERIODIC_NONE
    assert periodicity_class(0.5) == PERIODIC_UNIQUE_CONSTANT
    assert periodicity_class(1.0) == PERIODIC_TWO_PARAMETER_FAMILY  # n = 2
    assert periodicity_class(2.25) == PERIODIC_TWO_PARAMETER_FAMILY  # n = 3
    assert periodicity_class(0.26) == PERIODIC_UNIQUE_CONSTANT
