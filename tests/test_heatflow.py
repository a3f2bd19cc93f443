import tracemalloc
import warnings

import numpy as np
import pytest

from groundflow import (
    AdmissibilityError,
    ScalarField,
    build_problem,
    certify_exponential_bound,
    certify_sandwich,
    comparison_principle_test,
    evolve_fixed,
    evolve_to_attractor,
    initial_condition_check,
    make_circle_grid,
    stationary_residual,
    stationary_residual_fields,
    step,
    trace_to_csv,
)
from groundflow import heatflow
from groundflow.errors import BasinError

U_STAR_FIG3 = 2.978755335069904  # largest root of 0.1 u^4 - u^2 + 1 = 0


def constant_problem(n=128, length=2 * np.pi, beta=-0.1, psi1=1.0, psi2=1.0,
                     tol=1e-8):
    g = make_circle_grid(length, n)
    return build_problem(
        g,
        ScalarField.constant(g, beta),
        ScalarField.constant(g, psi1),
        ScalarField.constant(g, psi2),
        tol=tol,
    )


def sine_problem(n=128, tol=1e-8):
    g = make_circle_grid(2 * np.pi, n)
    return build_problem(
        g,
        ScalarField.constant(g, -0.1),
        ScalarField.from_function(g, lambda x: 1.0 + 0.3 * np.sin(x)),
        ScalarField.constant(g, 1.0),
        tol=tol,
    )


# ---------------------------------------------------------------- build


def test_build_constant_unit_circle_gives_reference_profile():
    # unit-length circle: e0 = 1 exactly, so the rescaled coefficients
    # coincide with the raw constants
    p = constant_problem(n=64, length=1.0)
    assert abs(p.lambda0 - 0.1) < 1e-12
    assert np.max(np.abs(p.e0.values - 1.0)) < 1e-12
    for profile in (p.profile_minus, p.profile_plus):
        assert abs(profile.A - 1.0) < 1e-12
        assert abs(profile.B - 1.0) < 1e-12
        assert abs(profile.y1 - U_STAR_FIG3) < 1e-11


def test_build_rejects_boundary_margin():
    with pytest.raises(AdmissibilityError) as err:
        constant_problem(n=64, beta=-0.25)
    assert abs(err.value.margin) < 1e-9 * (2 * np.pi) ** 2


def test_build_monotone_regime():
    p = constant_problem(n=64, length=1.0, beta=-1.0, psi1=4.0, psi2=0.0)
    assert abs(p.profile_minus.y1 - 2.0) < 1e-12
    assert p.profile_minus.y2 is None


def test_build_rejects_nonpositive_psi1():
    g = make_circle_grid(1.0, 16)
    with pytest.raises(ValueError):
        build_problem(
            g,
            ScalarField.constant(g, -0.1),
            ScalarField.constant(g, 0.0),
            ScalarField.constant(g, 0.0),
        )


# ---------------------------------------------------------------- membership


def test_membership_examples():
    p = constant_problem(n=64)
    y1, y3 = p.profile_minus.y1, p.profile_minus.y3
    eps = 0.5 * (y1 - y3)

    at_y1 = ScalarField(p.grid, y1 * p.e0.values)
    rep = initial_condition_check(at_y1, p, eps)
    assert rep.in_basin_eps and rep.in_basin

    at_y3 = ScalarField(p.grid, y3 * p.e0.values)
    rep = initial_condition_check(at_y3, p, eps)
    assert not rep.in_basin

    mid = ScalarField(p.grid, (y1 - eps / 2.0) * p.e0.values)
    assert initial_condition_check(mid, p, eps).in_basin_eps
    assert not initial_condition_check(mid, p, eps / 4.0).in_basin_eps

    with pytest.raises(ValueError):
        initial_condition_check(at_y1, p, y1 - y3)


# ---------------------------------------------------------------- stepping


def test_step_fixes_discrete_stationary_state():
    p = constant_problem(n=64)
    u = ScalarField(p.grid, np.full(64, U_STAR_FIG3))
    for dt in (0.01, 0.5, 3.0):
        u_new, used = step(u, p, dt)
        assert used == dt
        assert np.max(np.abs(u_new.values - u.values)) <= 1e-12 * U_STAR_FIG3


def test_step_matches_scalar_imex_reduction():
    p = constant_problem(n=64)
    c = 2.3
    dt = 0.37
    u_new, _ = step(ScalarField.constant(p.grid, c), p, dt)
    # scalar scheme: (1 - dt*beta) u+ = u + dt*(psi1/u - psi2/u^3)
    expected = (c + dt * (1.0 / c - 1.0 / c**3)) / (1.0 + dt * 0.1)
    assert np.max(np.abs(u_new.values - expected)) < 1e-13


def test_step_zero_dt_is_identity():
    p = constant_problem(n=32)
    u = ScalarField.constant(p.grid, 2.0)
    u_new, used = step(u, p, 0.0)
    assert used == 0.0
    assert np.array_equal(u_new.values, u.values)


def test_step_halves_on_positivity_loss():
    p = constant_problem(n=32)
    vals = np.full(32, 2.0)
    vals[5] = 1e-3  # strong sink from the psi2 term at this point
    u = ScalarField(p.grid, vals)
    u_new, used = step(u, p, 0.5)
    assert used < 0.5
    assert u_new.min() > 0.0


def test_step_rejects_nonpositive_field():
    p = constant_problem(n=32)
    with pytest.raises(ValueError):
        step(ScalarField(p.grid, np.full(32, -1.0)), p, 0.1)


# ---------------------------------------------------------------- evolution


def test_attractor_constant_problem():
    p = constant_problem(n=128, tol=1e-10)
    u0 = ScalarField.constant(p.grid, 2.0)
    u_star, trace = evolve_to_attractor(u0, p, tol=1e-10)
    assert np.max(np.abs(u_star.values - U_STAR_FIG3)) < 1e-8
    ratios = p.ratio(u_star)
    assert np.max(np.abs(ratios - p.profile_minus.y1)) < 1e-7
    assert trace.converged_at is not None
    assert stationary_residual(u_star, p) < 1e-9


def test_attractor_stationary_start_short_trace():
    p = constant_problem(n=64)
    u0 = ScalarField.constant(p.grid, U_STAR_FIG3)
    u_star, trace = evolve_to_attractor(u0, p, tol=1e-6)
    assert len(trace.times) == 1
    assert trace.converged_at == 0.0
    assert np.max(np.abs(u_star.values - U_STAR_FIG3)) < 1e-10


def test_attractor_uniqueness():
    p = constant_problem(n=128)
    a, _ = evolve_to_attractor(ScalarField.constant(p.grid, 2.0), p, tol=1e-9)
    b, _ = evolve_to_attractor(ScalarField.constant(p.grid, 3.4), p, tol=1e-9)
    assert np.max(np.abs(a.values - b.values)) <= 2e-9


def test_attractor_uniqueness_many_random_starts():
    rng = np.random.RandomState(22)
    p = sine_problem(n=64)
    tol = 1e-9
    y1m, y1p, y3 = p.profile_minus.y1, p.profile_plus.y1, p.profile_minus.y3
    eps = 0.5 * (y1m - y3)
    stars = []
    for _ in range(10):
        c = rng.uniform(y1m - eps + 0.05, y1p + 0.5)
        amp = rng.uniform(0.0, 0.15)
        phase = rng.uniform(0.0, 2 * np.pi)
        vals = (c + amp * np.sin(p.grid.coords()[0] + phase)) * p.e0.values
        star, _ = evolve_to_attractor(ScalarField(p.grid, vals), p, tol=tol)
        stars.append(star.values)
    spread = max(float(np.max(np.abs(a - b))) for a in stars for b in stars)
    assert spread <= 10.0 * tol


def test_attractor_rejects_start_outside_basin():
    p = constant_problem(n=64)
    u0 = ScalarField(p.grid, 0.9 * p.profile_minus.y3 * p.e0.values)
    with pytest.raises(BasinError):
        evolve_to_attractor(u0, p)


def test_evolution_tolerance_validation():
    p = constant_problem(n=32)
    u0 = ScalarField.constant(p.grid, 2.0)
    with pytest.raises(ValueError):
        evolve_to_attractor(u0, p, tol=1e-3)


def test_evolution_time_budget_exhausted():
    from groundflow import ConvergenceError

    p = constant_problem(n=32)
    u0 = ScalarField.constant(p.grid, 2.0)
    with pytest.raises(ConvergenceError):
        evolve_to_attractor(u0, p, tol=1e-8, t_max=0.5)


def test_attractor_on_torus():
    # exercises the stepper on a 2-d sparse factor
    from groundflow import make_torus_grid

    g = make_torus_grid([(2 * np.pi, 16), (2 * np.pi, 16)])
    p = build_problem(
        g,
        ScalarField.constant(g, -0.1),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
        tol=1e-8,
    )
    u0 = ScalarField.constant(g, 2.0)
    u_star, trace = evolve_to_attractor(u0, p, tol=1e-8)
    assert np.max(np.abs(u_star.values - U_STAR_FIG3)) < 1e-6
    assert stationary_residual(u_star, p) < 1e-7
    assert trace.converged_at is not None


def test_dt_limits_binding_terms():
    # the reaction's time scale 0.1/lambda0; at u = 7 the monotone bound is
    # 1/(1/49 - 3/7**4), about 52
    p = constant_problem(n=64)
    dt0, dt_max = heatflow._dt_limits(p, np.full(64, 7.0))
    assert dt0 == 0.1 / p.lambda0
    assert dt_max == 0.5 / p.lambda0

    # dt_max through 0.9/max(beta), below 0.1/lambda0 (lambda0 about 0.047)
    g = make_circle_grid(2 * np.pi, 64)
    q = build_problem(
        g,
        ScalarField.from_function(g, lambda x: -2.7 + 4.0 * np.cos(x)),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 0.0),
    )
    dt0, dt_max = heatflow._dt_limits(q, np.full(64, 10.0))
    assert dt_max == 0.9 / float(q.beta.values.max()) < 0.1 / q.lambda0
    assert dt0 == dt_max

    # the monotone bound 1/max(psi1/u**2 - 3*psi2/u**4): psi1 = 4, psi2 = 1
    r = constant_problem(n=64, psi1=4.0)
    lo, hi = np.full(64, 1.0), np.full(64, 1.5)
    assert heatflow._dt_limits(r, lo)[0] == pytest.approx(1.0, rel=1e-15)
    assert heatflow._dt_limits(r, hi)[0] == pytest.approx(1.0 / (4 / 1.5**2 - 3 / 1.5**4))
    # between the two states the slope peaks at u = sqrt(1.5), at psi1**2/12 = 4/3
    assert heatflow._dt_limits(r, hi, lo)[0] == pytest.approx(0.75, rel=1e-15)
    assert heatflow._dt_limits(r, lo, hi)[0] == heatflow._dt_limits(r, hi, lo)[0]


def test_dt_limits_with_subnormal_psi2():
    # psi1/(6*psi2) overflows for a subnormal psi2; the peak is clipped to
    # 1/lo**2 there, so the start is 1/g(u) = u**2 at u = 0.5
    p = constant_problem(n=16, beta=-0.125, psi2=5e-324, tol=1e-9)
    mid = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1) * p.e0.values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert heatflow._dt_limits(p, np.full(16, 0.5))[0] == 0.25
        u_star, _ = evolve_to_attractor(ScalarField(p.grid, mid), p, tol=1e-9)
    assert stationary_residual(u_star, p) < 1e-8


def test_attract_workload_step_count(monkeypatch):
    # the benchmark's attract problem, where a start at h**2/4 takes 993
    # steps with 20 distinct dt
    p = sine_problem(n=2048, tol=1e-9)
    passes = []
    march = heatflow._march

    def recording(*args):
        used = []
        passes.append(used)
        for out in march(*args):
            used.append(out[2])
            yield out

    monkeypatch.setattr(heatflow, "_march", recording)
    u0 = ScalarField(p.grid, 7.0 * p.e0.values)
    u_star, trace = evolve_to_attractor(u0, p, tol=1e-9)
    # the first pass finds the attractor; the replay repeats its steps
    used, replayed = passes
    assert len(used) == len(trace.times) - 1 <= 120
    assert len(set(used)) <= 5
    assert replayed == used
    eps = 0.5 * (p.profile_minus.y1 - p.profile_minus.y3)
    assert certify_sandwich(u_star, p, tol_h=1e-5).passed
    assert certify_exponential_bound(trace, p, eps).passed


def test_attractor_memory_flat_in_step_count():
    # kept states would add one state per step: 91 and 115 states at peak
    p = sine_problem(n=2048, tol=1e-9)
    state_bytes = p.e0.values.nbytes
    peaks, steps = [], []
    for ratio in (7.0, 100.0):
        u0 = ScalarField(p.grid, ratio * p.e0.values)
        tracemalloc.start()
        try:
            _, trace = evolve_to_attractor(u0, p, tol=1e-9)
            peaks.append(tracemalloc.get_traced_memory()[1] / state_bytes)
        finally:
            tracemalloc.stop()
        steps.append(len(trace.times) - 1)
    assert steps[1] >= steps[0] + 15
    assert peaks[1] <= peaks[0] + 2.0
    assert max(peaks) < 40.0


def test_replayed_distances_match_one_march():
    p = sine_problem(n=64)
    u0 = ScalarField(p.grid, 7.0 * p.e0.values)
    u_star, trace = evolve_to_attractor(u0, p, tol=1e-9, t_max=400.0)
    times, dists, u = [0.0], [float(np.max(np.abs(u0.values - u_star.values)))], None
    for t, (u,), _ in heatflow._march(p, [u0.values], 400.0):
        times.append(t)
        dists.append(float(np.max(np.abs(u - u_star.values))))
        if t == trace.times[-1]:
            break
    assert np.array_equal(u, u_star.values)
    assert np.array_equal(np.asarray(times), trace.times)
    assert np.array_equal(np.asarray(dists), trace.sup_distances)
    assert trace.sup_distances[-1] == 0.0


# ---------------------------------------------------------------- residual


def test_residual_of_exact_constant_solution():
    p = constant_problem(n=64)
    u = ScalarField.constant(p.grid, U_STAR_FIG3)
    assert stationary_residual(u, p) <= 1e-10


def test_residual_of_closed_form_quartic_state():
    # u = (psi2/beta)^(1/4) solves -u'' - beta u = -psi2 u^-3 with psi1 = 0
    from groundflow import closed_form_stationary

    errs = []
    for n in (64, 128):
        g = make_circle_grid(2 * np.pi, n)
        c1 = 2.5
        u = ScalarField(
            g,
            np.array(
                [closed_form_stationary(1.0, 1.0, c1, 0.0, x) for x in g.coords()[0]]
            ),
        )
        beta = ScalarField.constant(g, 1.0)
        psi1 = ScalarField.constant(g, 0.0)
        psi2 = ScalarField.constant(g, 1.0)
        errs.append(stationary_residual_fields(u, g, beta, psi1, psi2))
    assert 3.4 <= errs[0] / errs[1] <= 4.6

    # degenerate constant branch: residual at rounding level
    g = make_circle_grid(2 * np.pi, 64)
    u = ScalarField.constant(g, 2.0 ** 0.25)
    res = stationary_residual_fields(
        u,
        g,
        ScalarField.constant(g, 0.5),
        ScalarField.constant(g, 0.0),
        ScalarField.constant(g, 1.0),
    )
    assert res < 1e-12


def test_residual_positive_for_random_state():
    rng = np.random.RandomState(21)
    p = constant_problem(n=64)
    u = ScalarField(p.grid, rng.uniform(1.5, 3.5, 64))
    assert stationary_residual(u, p) > 0.0


# ---------------------------------------------------------------- sandwich


def test_sandwich_constant_coefficients_tight():
    p = constant_problem(n=128)
    u_star, _ = evolve_to_attractor(ScalarField.constant(p.grid, 2.0), p, tol=1e-9)
    rep = certify_sandwich(u_star, p, tol_h=1e-6)
    assert rep.passed
    assert abs(rep.min_ratio - rep.y1_minus) < 1e-6
    assert abs(rep.max_ratio - rep.y1_plus) < 1e-6


def test_sandwich_corollary_regime_raw_bounds():
    g = make_circle_grid(2 * np.pi, 128)
    p = build_problem(
        g,
        ScalarField.constant(g, -1.0),
        ScalarField.from_function(g, lambda x: 2.0 + np.sin(x)),
        ScalarField.constant(g, 0.0),
    )
    u0 = ScalarField(g, 0.5 * (p.profile_minus.y1 + p.profile_plus.y1) * p.e0.values)
    u_star, _ = evolve_to_attractor(u0, p, tol=1e-9)
    rep = certify_sandwich(u_star, p, tol_h=1e-7)
    assert rep.passed
    # constant e0 here, so the raw field obeys sqrt(psi1-)/sqrt(lam) bounds
    assert u_star.values.min() >= 1.0 - 1e-7
    assert u_star.values.max() <= np.sqrt(3.0) + 1e-7


# ---------------------------------------------------------------- bound (35)


def test_exponential_bound_constant_run():
    p = constant_problem(n=128)
    u0 = ScalarField.constant(p.grid, 1.1 * U_STAR_FIG3)
    _, trace = evolve_to_attractor(u0, p, tol=1e-9)
    eps = 0.5 * (p.profile_minus.y1 - p.profile_minus.y3)
    rep = certify_exponential_bound(trace, p, eps)
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-6
    assert abs(rep.delta_inv - 1.0) < 1e-12  # constant ground state
    # observed decay at the tail is at least the certified rate
    k = len(trace.times) // 2
    observed = -np.log(trace.sup_distances[-2] / trace.sup_distances[k]) / (
        trace.times[-2] - trace.times[k]
    )
    assert observed >= rep.mu - 1e-6


def test_exponential_bound_vacuous_at_stationarity():
    from groundflow import FlowTrace

    p = constant_problem(n=64)
    eps = 0.5 * (p.profile_minus.y1 - p.profile_minus.y3)
    zeros = np.zeros(3)
    trace = FlowTrace(
        times=np.array([0.0, 1.0, 2.0]),
        sup_distances=zeros,
        min_ratios=zeros,
        max_ratios=zeros,
        converged_at=0.0,
    )
    rep = certify_exponential_bound(trace, p, eps)
    assert rep.passed and rep.max_ratio == 0.0

    # behavioral version: restarting from the attractor stays certified
    u_star, _ = evolve_to_attractor(
        ScalarField.constant(p.grid, U_STAR_FIG3), p, tol=1e-8
    )
    _, trace2 = evolve_to_attractor(u_star, p, tol=1e-8)
    assert len(trace2.times) == 1
    assert certify_exponential_bound(trace2, p, eps).passed


def test_exponential_bound_variable_psi1():
    p = sine_problem(n=128)
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    eps = 0.5 * (y1m - p.profile_minus.y3)
    u0 = ScalarField(p.grid, (y1m + 0.3) * p.e0.values)
    _, trace = evolve_to_attractor(u0, p, tol=1e-9)
    rep = certify_exponential_bound(trace, p, eps)
    assert rep.passed


# ---------------------------------------------------------------- ordering


def test_comparison_principle_equal_data():
    p = constant_problem(n=64)
    u0 = ScalarField.constant(p.grid, 2.5)
    rep = comparison_principle_test(u0, u0, p, T=30.0)
    assert rep.passed
    assert rep.min_gap >= -1e-14


def test_comparison_principle_shifted_pair():
    p = sine_problem(n=64)
    base = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1)
    w0 = ScalarField(p.grid, base * p.e0.values)
    u0 = ScalarField(p.grid, base * p.e0.values + 0.1)
    rep = comparison_principle_test(u0, w0, p, T=120.0)
    assert rep.passed


def test_comparison_principle_two_sided():
    p = sine_problem(n=64)
    y1m, y1p, y3 = p.profile_minus.y1, p.profile_plus.y1, p.profile_minus.y3
    eps = 0.5 * (y1m - y3)
    w0 = ScalarField(p.grid, (y1m - eps) * p.e0.values)
    u0 = ScalarField(p.grid, (y1p + 1.0) * p.e0.values)
    rep = comparison_principle_test(u0, w0, p, T=150.0)
    assert rep.passed


def test_comparison_principle_deep_in_basin():
    # long 0.1/lambda0 against the reaction's time scale: a first step of
    # min(0.1/lambda0, dt_max) crosses the pair (min gap -0.19)
    g = make_circle_grid(2 * np.pi, 256)
    p = build_problem(
        g,
        ScalarField.from_function(g, lambda x: -0.0305 + 0.0051 * np.cos(x + 3.144)),
        ScalarField.from_function(g, lambda x: 1.7408 * (1.0 + 0.2163 * np.sin(x))),
        ScalarField.constant(g, 0.0573),
    )
    w0 = ScalarField(g, 4.176 * p.e0.values)
    u0 = ScalarField(g, 4.813 * p.e0.values)
    rep = comparison_principle_test(u0, w0, p, T=30.61)
    assert rep.passed, rep


def test_comparison_principle_rejects_unordered():
    p = constant_problem(n=32)
    u0 = ScalarField.constant(p.grid, 2.0)
    w0 = ScalarField(p.grid, np.linspace(1.9, 2.1, 32))
    with pytest.raises(ValueError):
        comparison_principle_test(u0, w0, p, T=1.0)


# ---------------------------------------------------------------- barriers


def test_lower_and_upper_barriers_hold_along_flow():
    p = sine_problem(n=64)
    y1m, y1p, y3 = p.profile_minus.y1, p.profile_plus.y1, p.profile_minus.y3
    eps = 0.5 * (y1m - y3)
    eta = 0.7
    u0 = ScalarField(p.grid, (y1m - eps) * p.e0.values)
    _, trace = evolve_to_attractor(u0, p, tol=1e-8)
    assert np.min(trace.min_ratios) >= y1m - eps - 1e-9

    v0 = ScalarField(p.grid, (y1p + eta) * p.e0.values)
    _, trace2 = evolve_to_attractor(v0, p, tol=1e-8)
    assert np.max(trace2.max_ratios) <= y1p + eta + 1e-9


# ---------------------------------------------------------------- semigroup


def test_discrete_semigroup_property():
    p = sine_problem(n=64)
    u0 = ScalarField(p.grid, 0.9 * p.profile_plus.y1 * p.e0.values)
    dt = 0.05
    once = evolve_fixed(u0, p, 120, dt)
    composed = evolve_fixed(evolve_fixed(u0, p, 70, dt), p, 50, dt)
    assert np.array_equal(once.values, composed.values)


# ---------------------------------------------------------------- refinement


def test_attractor_second_order_in_h():
    stars = {}
    for n in (64, 128, 256):
        g = make_circle_grid(2 * np.pi, n)
        p = build_problem(
            g,
            ScalarField.constant(g, -0.1),
            ScalarField.from_function(g, lambda x: 1.0 + 0.3 * np.sin(x)),
            ScalarField.constant(g, 1.0),
        )
        u0 = ScalarField(g, 0.5 * (p.profile_minus.y1 + p.profile_plus.y1)
                         * p.e0.values)
        u_star, _ = evolve_to_attractor(u0, p, tol=1e-10)
        stars[n] = u_star.values
    e1 = np.max(np.abs(stars[128][::2] - stars[64]))
    e2 = np.max(np.abs(stars[256][::2] - stars[128]))
    assert 4.0 * 0.85 <= e1 / e2 <= 4.0 * 1.15


# ---------------------------------------------------------------- trace csv


def test_trace_csv_format(tmp_path):
    p = constant_problem(n=32)
    u0 = ScalarField.constant(p.grid, 2.0)
    _, trace = evolve_to_attractor(u0, p, tol=1e-6)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sup_distance,min_ratio,max_ratio"
    assert len(lines) == len(trace.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and len(first) == 4
