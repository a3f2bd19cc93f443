import math
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest

from groundflow import (
    AdmissibilityError,
    BlowdownError,
    ExtremaCoeffs,
    ScalarField,
    check_admissible,
    classify_fixed_points,
    critical_root_y3,
    curvature_problem_inputs,
    decay_rate_mu,
    extrema_coeffs,
    make_circle_grid,
    make_profile,
    phi,
    phi_prime,
    phi_roots,
    profile_from_coeffs,
    scalar_flow,
)
from oracles import (
    decimal_profile_roots,
    quartic_positive_roots,
    sampled_decay_rate,
    scalar_ode_reference,
)

# frozen from the bracketed-bisection quartic oracle at lambda0=0.1, A=B=1
Y1_REF = 2.978755335069904
Y2_REF = 1.061610405842267
Y3_REF = 1.5544125858650473
PHI_PRIME_Y1_REF = -0.17459666924148337


def fig3_profile():
    return make_profile(0.1, 1.0, 1.0)


def decay_rate(sigma, profile):
    """decay_rate_mu, pinned against the sampled oracle to 1e-7."""
    mu = decay_rate_mu(sigma, profile)
    assert abs(sampled_decay_rate(sigma, profile) - mu) <= 1e-7 * max(mu, 1e-30)
    return mu


# ---------------------------------------------------------------- extrema


def test_extrema_constants():
    g = make_circle_grid(1.0, 16)
    ones = ScalarField.constant(g, 1.0)
    c = extrema_coeffs(ones, ones, ones)
    assert c == ExtremaCoeffs(1.0, 1.0, 1.0, 1.0)


def test_extrema_of_sine_band():
    g = make_circle_grid(2 * np.pi, 128)
    psi1 = ScalarField.from_function(g, lambda x: 2.0 + np.sin(x))
    psi2 = ScalarField.constant(g, 0.0)
    e0 = ScalarField.constant(g, 1.0)
    c = extrema_coeffs(psi1, psi2, e0)
    # grid contains the exact extrema of sin on a 2pi circle with N % 4 == 0
    assert abs(c.psi1_plus - 3.0) < 1e-12
    assert abs(c.psi1_minus - 1.0) < 1e-12
    assert c.psi2_plus == 0.0 and c.psi2_minus == 0.0


def test_extrema_homogeneity_in_e0():
    rng = np.random.RandomState(11)
    g = make_circle_grid(2 * np.pi, 64)
    psi1 = ScalarField(g, 1.0 + rng.uniform(0.1, 1.0, g.total_points))
    psi2 = ScalarField(g, rng.uniform(0.0, 1.0, g.total_points))
    e0 = ScalarField(g, rng.uniform(0.5, 2.0, g.total_points))
    base = extrema_coeffs(psi1, psi2, e0)
    scaled = extrema_coeffs(psi1, psi2, ScalarField(g, 2.0 * e0.values))
    assert np.isclose(scaled.psi1_plus, base.psi1_plus / 4.0, rtol=1e-13)
    assert np.isclose(scaled.psi1_minus, base.psi1_minus / 4.0, rtol=1e-13)
    assert np.isclose(scaled.psi2_plus, base.psi2_plus / 16.0, rtol=1e-13)
    assert np.isclose(scaled.psi2_minus, base.psi2_minus / 16.0, rtol=1e-13)


def test_extrema_rejects_bad_signs():
    g = make_circle_grid(1.0, 8)
    good = ScalarField.constant(g, 1.0)
    bad = ScalarField.constant(g, 0.0)
    with pytest.raises(ValueError):
        extrema_coeffs(bad, good, good)
    with pytest.raises(ValueError):
        extrema_coeffs(good, good, bad)


# ---------------------------------------------------------------- profile


def test_phi_direct_substitution():
    p = fig3_profile()
    assert abs(phi(1.0, p) - (-0.1)) < 1e-15
    assert abs(phi(2.0, p) - 0.175) < 1e-15  # -0.2 + 0.5 - 0.125
    assert abs(phi(p.y1, p)) < 1e-14
    assert abs(phi(p.y2, p)) < 1e-14
    with pytest.raises(ValueError):
        phi(0.0, p)


def test_fig3_roots_match_oracle():
    roots = quartic_positive_roots(0.1, 1.0, 1.0)
    assert len(roots) == 2
    y1, y2 = phi_roots(0.1, 1.0, 1.0)
    assert abs(y1 - roots[1]) <= 1e-12 * roots[1]
    assert abs(y2 - roots[0]) <= 1e-12 * roots[0]
    assert abs(y1 - Y1_REF) <= 1e-12 * Y1_REF
    assert abs(y2 - Y2_REF) <= 1e-12 * Y2_REF


def test_monotone_case_root():
    y1, y2 = phi_roots(1.0, 4.0, 0.0)
    assert y1 == 2.0
    assert y2 is None
    p = make_profile(1.0, 4.0, 0.0)
    assert abs(phi(2.0, p)) < 1e-15
    assert p.y3 is None and p.y4 is None


def test_discriminant_boundary_rejected():
    with pytest.raises(AdmissibilityError) as err:
        phi_roots(0.25, 1.0, 1.0)
    assert err.value.margin == 0.0


def test_near_degenerate_roots_stay_accurate():
    # discriminant ~ 1e-10 * A^2, where the two roots are close
    lam, A = 0.1, 1.0
    B = (A * A - 1e-10 * A * A) / (4.0 * lam)
    y1, y2 = phi_roots(lam, A, B)
    roots = quartic_positive_roots(lam, A, B)
    assert abs(y1 - roots[1]) <= 1e-10 * roots[1]
    assert abs(y2 - roots[0]) <= 1e-10 * roots[0]


def test_random_admissible_roots_against_oracle():
    rng = np.random.RandomState(12)
    for _ in range(25):
        lam = rng.uniform(0.02, 2.0)
        A = rng.uniform(0.2, 5.0)
        B = rng.uniform(0.0, 0.9) * A * A / (4.0 * lam)
        if B == 0.0:
            continue
        y1, y2 = phi_roots(lam, A, B)
        lo, hi = quartic_positive_roots(lam, A, B)
        assert abs(y1 - hi) <= 1e-12 * hi
        assert abs(y2 - lo) <= 1e-12 * max(lo, 1e-30)


def test_marginal_roots_match_a_60_digit_oracle():
    # margins A^2 - 4*lambda0*B from 1e-12 down to 1e-17 of A^2, where the
    # roots merge at sqrt(A/(2*lambda0)); B is the float nearest the drawn
    # share, so the exact margin of (lambda0, A, B) is the share give or
    # take an ulp of B, and draws whose float margin is not positive (which
    # phi_roots reports as inadmissible) are skipped
    rng = np.random.RandomState(23)
    per_decade = Counter()
    for _ in range(800):
        lam, A = rng.uniform(0.02, 1.5), rng.uniform(0.2, 5.0)
        share = Decimal(10.0 ** rng.uniform(-17.0, -12.0))
        B = float(Decimal(A) ** 2 * (1 - share) / (4 * Decimal(lam)))
        if not A * A - 4.0 * lam * B > 0.0:
            continue
        y1, y2, margin = decimal_profile_roots(lam, A, B)
        decade = math.floor(math.log10(margin))
        if not -17 <= decade < -12:
            continue
        per_decade[decade] += 1
        p = make_profile(lam, A, B)
        assert 0.0 < p.y2 < p.y3 < p.y1 and p.y3 < p.y4
        assert abs(Decimal(p.y1) - y1) <= Decimal(1e-8) * y1, (lam, A, B)
        assert abs(Decimal(p.y2) - y2) <= Decimal(1e-8) * y2, (lam, A, B)
    assert min(per_decade[d] for d in range(-17, -12)) >= 20, per_decade


def test_marginal_roots_config_matches_oracle():
    # the `roots` config for which a bisection once returned the bracket end
    # sqrt(A/lambda0) = 0.7287... as y1
    lam, A, B = 43.0382607117434, 22.85539366398312, 3.034329285715688
    y1, y2, _ = decimal_profile_roots(lam, A, B)
    p = make_profile(lam, A, B)
    assert abs(Decimal(p.y1) - y1) <= Decimal(1e-8) * y1
    assert abs(Decimal(p.y2) - y2) <= Decimal(1e-8) * y2
    assert abs(p.y1 - 0.5152903407477948) <= 1e-8 * 0.5152903407477948


def test_critical_root():
    y3 = critical_root_y3(0.1, 1.0, 1.0)
    assert abs(y3 - Y3_REF) <= 1e-12 * Y3_REF
    p = fig3_profile()
    assert abs(phi_prime(y3, p)) < 1e-10
    assert p.y2 < y3 < p.y1
    assert p.y4 == np.sqrt(6.0)
    assert y3 < p.y4
    assert critical_root_y3(1.0, 4.0, 0.0) is None


def test_profile_ordering_random():
    rng = np.random.RandomState(13)
    for _ in range(40):
        lam = rng.uniform(0.02, 1.5)
        A = rng.uniform(0.2, 5.0)
        B = rng.uniform(0.05, 0.9) * A * A / (4.0 * lam)
        p = make_profile(lam, A, B)
        assert 0.0 < p.y2 < p.y3 < p.y1
        assert p.y3 < p.y4
        for sigma in (0.0, 0.5 * (p.y1 - p.y3)):
            decay_rate(sigma, p)


def test_side_profiles_and_monotonicity():
    coeffs = ExtremaCoeffs(
        psi1_plus=1.3, psi1_minus=0.7, psi2_plus=1.1, psi2_minus=0.9
    )
    lam = 0.05
    minus = profile_from_coeffs(lam, coeffs, "minus")
    plus = profile_from_coeffs(lam, coeffs, "plus")
    assert (minus.A, minus.B) == (0.7, 1.1)
    assert (plus.A, plus.B) == (1.3, 0.9)
    ys = np.geomspace(0.05, 50.0, 4000)
    assert np.all(phi(ys, minus) <= phi(ys, plus) + 1e-14)
    assert minus.y1 <= plus.y1
    for side in (minus, plus):
        decay_rate(0.0, side)
    with pytest.raises(ValueError):
        profile_from_coeffs(lam, coeffs, "upper")


def test_phi_minus_shape():
    p = fig3_profile()
    ys = np.linspace(1e-3, 4 * p.y1, 30_000)
    vals = phi(ys, p)
    rising = ys <= p.y3 - 1e-9
    falling = ys >= p.y3 + 1e-9
    assert np.all(np.diff(vals[rising]) > 0.0)
    assert np.all(np.diff(vals[falling]) < 0.0)
    inside = (ys > p.y2 + 1e-9) & (ys < p.y1 - 1e-9)
    outside = (ys < p.y2 - 1e-9) | (ys > p.y1 + 1e-9)
    assert np.all(vals[inside] > 0.0)
    assert np.all(vals[outside] < 0.0)


# ---------------------------------------------------------------- decay rate


def test_decay_rate_fig3():
    p = fig3_profile()
    assert abs(phi_prime(p.y1, p) - PHI_PRIME_Y1_REF) < 1e-12
    assert decay_rate(0.0, p) == 0.1


def test_decay_rate_decreases_to_zero():
    p = fig3_profile()
    width = p.y1 - p.y3
    sigmas = np.linspace(0.0, width * (1 - 1e-6), 40)
    mus = [decay_rate(s, p) for s in sigmas]
    assert all(m > 0.0 for m in mus)
    assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))
    assert mus[-1] < 1e-4


def test_decay_rate_monotone_case():
    p = make_profile(1.0, 4.0, 0.0)
    assert abs(phi_prime(2.0, p) - (-2.0)) < 1e-15
    assert decay_rate(0.0, p) == 1.0


def test_decay_rate_sigma_range():
    p = fig3_profile()
    with pytest.raises(ValueError):
        decay_rate_mu(p.y1 - p.y3, p)
    with pytest.raises(ValueError):
        decay_rate_mu(-0.1, p)


# ---------------------------------------------------------------- admissibility


def test_admissibility_fig3():
    c = ExtremaCoeffs(1.0, 1.0, 1.0, 1.0)
    a = check_admissible(0.1, c)
    assert a.admissible and abs(a.margin - 0.6) < 1e-15
    b = check_admissible(0.25, c)
    assert not b.admissible and b.margin == 0.0
    assert not check_admissible(0.0, c).admissible
    assert not check_admissible(-1.0, c).admissible


def test_admissibility_vanishing_psi2():
    c = ExtremaCoeffs(2.0, 1.0, 0.0, 0.0)
    assert check_admissible(5.0, c).admissible
    assert not check_admissible(0.0, c).admissible


# ---------------------------------------------------------------- scalar flow


def test_flow_converges_from_inside():
    p = fig3_profile()
    traj = scalar_flow(2.0, p, T=200.0, record_every=20)
    assert np.all(np.diff(traj.values) > -1e-13)
    assert abs(traj.terminal - p.y1) < 1e-8


def test_flow_stationary_at_y1():
    p = fig3_profile()
    traj = scalar_flow(p.y1, p, T=10.0)
    assert np.max(np.abs(traj.values - p.y1)) < 1e-12


def test_flow_decreasing_from_above_with_bound():
    p = fig3_profile()
    y0 = p.y1 + 0.5
    traj = scalar_flow(y0, p, T=120.0, record_every=10)
    assert np.all(np.diff(traj.values) < 1e-13)
    mu = decay_rate(0.0, p)
    bound = abs(y0 - p.y1) * np.exp(-mu * traj.times)
    assert np.all(np.abs(traj.values - p.y1) <= bound * (1.0 + 1e-9) + 1e-14)


def test_flow_matches_adaptive_reference():
    p = fig3_profile()
    traj = scalar_flow(2.0, p, T=50.0, dt=0.01, record_every=100)
    ref = scalar_ode_reference(0.1, 1.0, 1.0, 2.0, traj.times)
    assert np.max(np.abs(traj.values - ref)) < 1e-9


def test_flow_rejects_inner_start():
    p = fig3_profile()
    with pytest.raises(BlowdownError):
        scalar_flow(p.y2, p, T=1.0)
    with pytest.raises(BlowdownError):
        scalar_flow(0.5 * p.y2, p, T=1.0)


def test_flow_batch_monotone_convergence():
    # random starts above y2 all reach y1 by T = 50/mu(0)
    rng = np.random.RandomState(14)
    p = fig3_profile()
    mu = decay_rate(0.0, p)
    y0 = rng.uniform(p.y2 + 1e-3, p.y1 + 3.0, size=200)
    traj = scalar_flow(y0, p, T=50.0 / mu, dt=0.01, record_every=200)
    assert np.max(np.abs(traj.terminal - p.y1)) < 1e-6
    below = y0 < p.y1
    diffs = np.diff(traj.values, axis=0)
    assert np.all(diffs[:, below] > -1e-12)
    assert np.all(diffs[:, ~below] < 1e-12)


@pytest.mark.parametrize(
    "y0,T,dt,record_every",
    [
        (5.0, 100.0, None, 10),  # the CLI ode defaults
        (2.0, 50.0, 0.01, 7),
        (1.2, 30.0, 0.05, 1),
    ],
)
def test_flow_scalar_matches_one_element_batch(y0, T, dt, record_every):
    # floats and numpy arrays may differ in y**3 by an ulp, so values are
    # compared at 1e-14 relative; the steps themselves must be the same
    p = fig3_profile()
    scalar = scalar_flow(y0, p, T, dt=dt, record_every=record_every)
    batch = scalar_flow(np.array([y0]), p, T, dt=dt, record_every=record_every)
    assert scalar.values.shape == scalar.times.shape
    assert batch.values.shape == scalar.times.shape + (1,)
    np.testing.assert_array_equal(scalar.times, batch.times)
    np.testing.assert_allclose(scalar.values, batch.values[:, 0], rtol=1e-14, atol=0)
    assert np.ndim(scalar.terminal) == 0


def test_flow_halves_large_steps_alike_for_scalar_and_batch():
    p = fig3_profile()
    dt = 50.0
    scalar = scalar_flow(2.0, p, T=100.0, dt=dt)
    batch = scalar_flow(np.array([2.0, 2.0]), p, T=100.0, dt=dt)
    steps = np.diff(scalar.times)
    # the first step from y = 2 overshoots below zero at full size
    assert steps[0] < dt
    assert np.all(steps <= steps[0])
    np.testing.assert_array_equal(steps, np.diff(batch.times))
    assert scalar.times[-1] == pytest.approx(100.0, abs=1e-10)
    np.testing.assert_allclose(batch.values[:, 0], scalar.values, rtol=1e-14, atol=0)
    np.testing.assert_array_equal(batch.values[:, 0], batch.values[:, 1])


def test_flow_step_regrows_after_a_stiff_start():
    # |phi'| is about A = 1e12 at y0 = 1 and 2*lambda0 = 16 near y1: the first
    # steps halve twenty times, and a step that stayed halved would take
    # 2**20 steps to reach T
    p = make_profile(8.0, 1e12, 1.0)
    traj = scalar_flow(1.0, p, T=1.0, dt=1.0)
    steps = np.diff(traj.times)
    assert steps.size <= 1000
    assert steps.max() > 1e3 * steps[0]
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(traj.terminal - p.y1) <= 1e-5 * p.y1


@pytest.mark.parametrize("lam, A", [
    (8.0, 1e12),
    # the ode config that once ran for minutes: beta = -lam, psi1 = A, psi2 = 1
    (8.077094270785885, 1e19),
], ids=["A=1e12", "A=1e19"])
def test_flow_from_a_stiff_start_stays_below_y1(lam, A):
    # the exact flow rises monotonically toward y1 and never reaches it; a
    # first RK4 step of the stiff start that lands past y1 is rejected, since
    # the slope there has changed sign
    p = make_profile(lam, A, 1.0)
    traj = scalar_flow(1.0, p, T=1.0, dt=1.0)
    assert np.all(traj.values < p.y1)
    assert np.all(np.diff(traj.values) >= 0.0)
    ref = scalar_ode_reference(lam, A, 1.0, 1.0, np.array([0.0, 1.0]), method="Radau")
    assert abs(traj.terminal - ref[-1]) <= 5e-8 * ref[-1]


@pytest.mark.parametrize("y0", [2.0, np.array([2.0, 3.0])], ids=["scalar", "batch"])
def test_flow_step_collapse_raises(y0):
    # sixty halvings of 1e300 still leave every stage far outside (0, inf)
    with np.errstate(all="ignore"), pytest.raises(BlowdownError, match="collapsed"):
        scalar_flow(y0, fig3_profile(), T=1e300, dt=1e300)


@pytest.mark.parametrize("y0", [1e-200, np.array([1e-200])], ids=["scalar", "batch"])
def test_flow_underflowing_start_collapses_without_arithmetic_error(y0):
    # with B = 0 there is no inner root, so a tiny start passes the input
    # checks; y**3 underflows and B/y**3 is 0/0, nan in IEEE arithmetic
    p = make_profile(0.1, 1.0, 0.0)
    with np.errstate(all="ignore"), pytest.raises(BlowdownError):
        scalar_flow(y0, p, T=5.0, dt=0.5)


def test_flow_contraction_bound_on_shrunken_basin():
    p = fig3_profile()
    eps = 0.5 * (p.y1 - p.y3)
    mu = decay_rate(eps, p)
    rng = np.random.RandomState(15)
    y0 = rng.uniform(p.y1 - eps, p.y1 + 2.0, size=50)
    traj = scalar_flow(y0, p, T=80.0, dt=0.01, record_every=25)
    bound = np.abs(y0 - p.y1)[None, :] * np.exp(-mu * traj.times)[:, None]
    assert np.all(np.abs(traj.values - p.y1) <= bound * (1.0 + 1e-9) + 1e-13)


# ---------------------------------------------------------------- fixed points


def test_classification_two_roots():
    pts = classify_fixed_points(-1.0, 2.0, 0.75)
    assert len(pts) == 2
    (r1, s1), (r2, s2) = pts
    assert abs(r1 - np.sqrt(1.5)) < 1e-12
    assert abs(r2 - np.sqrt(0.5)) < 1e-12
    assert s1 == "stable" and s2 == "unstable"


def test_classification_positive_beta():
    pts = classify_fixed_points(1.0, 1.0, 1.0)
    assert len(pts) == 1
    root, stab = pts[0]
    assert abs(root - np.sqrt((-1.0 + np.sqrt(5.0)) / 2.0)) < 1e-12
    assert stab == "unstable"


def test_classification_monotone_case():
    pts = classify_fixed_points(-1.0, 4.0, 0.0)
    assert pts[0][0] == 2.0 and pts[0][1] == "stable"
    assert len(pts) == 1


def test_classification_no_roots():
    assert classify_fixed_points(-1.0, 2.0, 4.0) == []  # 4|b|psi2 > psi1^2
    assert classify_fixed_points(1.0, 1.0, 0.0) == []


@pytest.mark.parametrize("beta, psi2, expected", [
    # the inner root is 1e-150, whose fourth power underflows to 0
    (-0.1, 1e-300, [(np.sqrt(10.0), "stable"), (1e-150, "unstable")]),
    # the outer root is 1e150, whose fourth power overflows
    (-1e-300, 1.0, [(1e150, "stable"), (1.0, "unstable")]),
])
def test_classification_at_extreme_roots(beta, psi2, expected):
    pts = classify_fixed_points(beta, 1.0, psi2)
    assert [label for _, label in pts] == [label for _, label in expected]
    np.testing.assert_allclose(
        [root for root, _ in pts], [root for root, _ in expected], rtol=1e-15
    )


# ------------------------------------------------------- geometric reduction


def test_geometric_reduction_identity_and_psi2():
    g = make_circle_grid(1.0, 16)
    h_sq = ScalarField.constant(g, 2.0)
    t_sq = ScalarField.constant(g, 0.0)
    beta_top = ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x))
    beta, shift, psi1, psi2 = curvature_problem_inputs(h_sq, t_sq, beta_top, 0.0, 2)
    assert np.array_equal(beta.values, beta_top.values)
    assert shift == 0.0
    assert np.all(psi2.values == 0.0)
    assert np.allclose(psi1.values, 1.0)


def test_geometric_reduction_margin_chain():
    # unit-volume circle so the constant ground state is exactly 1
    g = make_circle_grid(1.0, 16)
    n = 2
    c = -0.3  # constant base potential, lambda0_top = 0.3
    lam_top = 0.3
    phi_const = n * lam_top - 0.2 * n
    beta, shift, psi1, psi2 = curvature_problem_inputs(
        ScalarField.constant(g, 2.0),
        ScalarField.constant(g, 2.0),
        ScalarField.constant(g, c),
        phi_const,
        n,
    )
    lam = lam_top + shift
    assert abs(lam - 0.2) < 1e-15
    e0 = ScalarField.constant(g, 1.0)
    coeffs = extrema_coeffs(psi1, psi2, e0)
    result = check_admissible(lam, coeffs)
    assert result.admissible
    assert abs(result.margin - 0.2) < 1e-14


def test_geometric_reduction_rejects_degenerate_h():
    g = make_circle_grid(1.0, 8)
    hsq = ScalarField(g, np.array([1.0] * 7 + [0.0]))
    ok = ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        curvature_problem_inputs(hsq, ok, ok, 0.0, 1)
