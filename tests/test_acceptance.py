"""Acceptance gate: one test per quantitative guarantee, at its stated
tolerance, printing one pass/fail line each (run with -s to see them all).
"""

import time

import numpy as np
from scipy.optimize import brentq

from groundflow import (
    ScalarField,
    build_problem,
    certify_exponential_bound,
    certify_sandwich,
    classify_fixed_points,
    closed_form_stationary,
    comparison_principle_test,
    decay_rate_mu,
    evolve_to_attractor,
    fixed_points_and_types,
    ground_state,
    initial_condition_check,
    integrate_orbit,
    make_circle_grid,
    make_profile,
    make_torus_grid,
    mixed_scalar_curvature,
    phi_roots,
    scalar_flow,
    separatrix_level,
    spectrum_oracle,
    stationary_residual_fields,
    sweep_attractor,
    sweep_ground_state,
    conformal_change_residual,
    ground_state_warp,
    smoothness_diagnostic,
    ParamFamily,
    PlanarState,
    TwistedProduct,
)
from oracles import quartic_positive_roots, sampled_decay_rate


def report(num, detail):
    print(f"criterion {num}: PASS ({detail})")


def _criterion3_data():
    """Shared problem and runs for criteria 3-5 (timed inside criterion 3)."""
    if not hasattr(_criterion3_data, "cache"):
        t0 = time.time()
        runs = {}
        for n in (128, 256):
            g = make_circle_grid(2 * np.pi, n)
            p = build_problem(
                g,
                ScalarField.constant(g, -0.1),
                ScalarField.from_function(g, lambda x: 1.0 + 0.3 * np.sin(x)),
                ScalarField.constant(g, 1.0),
            )
            runs[n] = {"problem": p}
        p = runs[256]["problem"]
        y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
        y3m = p.profile_minus.y3
        eps = 0.5 * (y1m - y3m)
        rng = np.random.RandomState(100)
        stars, traces = [], []
        x = runs[256]["problem"].grid.coords()[0]
        for _ in range(10):
            c = rng.uniform(y1m - eps + 0.05, y1p + 0.8)
            amp = rng.uniform(0.0, min(0.3, c - (y1m - eps)))
            phase = rng.uniform(0.0, 2 * np.pi)
            u0 = ScalarField(p.grid, (c + amp * np.sin(x + phase)) * p.e0.values)
            check = initial_condition_check(u0, p, eps)
            assert check.in_basin_eps and check.in_basin
            star, trace = evolve_to_attractor(u0, p, tol=1e-8)
            stars.append(star)
            traces.append(trace)
        # one run at the coarse resolution for the refinement comparison
        p128 = runs[128]["problem"]
        u0 = ScalarField(
            p128.grid,
            0.5 * (p128.profile_minus.y1 + p128.profile_plus.y1) * p128.e0.values,
        )
        star128, _ = evolve_to_attractor(u0, p128, tol=1e-8)
        runs[128]["star"] = star128
        runs[256]["stars"] = stars
        runs[256]["traces"] = traces
        runs["epsilon"] = eps
        runs["elapsed"] = time.time() - t0
        _criterion3_data.cache = runs
    return _criterion3_data.cache


def test_criterion_01_reference_profile_roots():
    t0 = time.time()
    lam, A, B = 0.1, 1.0, 1.0
    profile = make_profile(lam, A, B)
    oracle = quartic_positive_roots(lam, A, B)
    assert len(oracle) == 2
    y2o, y1o = oracle
    assert abs(profile.y1 - y1o) <= 1e-12 * abs(y1o)
    assert abs(profile.y2 - y2o) <= 1e-12 * abs(y2o)
    phi_p = lambda y: -lam - A / y**2 + 3 * B / y**4
    y3o = brentq(phi_p, y2o, y1o, xtol=1e-15, rtol=8.9e-16)
    assert abs(profile.y3 - y3o) <= 1e-12 * abs(y3o)
    phi_pp = lambda y: 2 * A / y**3 - 12 * B / y**5
    y4o = brentq(phi_pp, y3o, 10.0, xtol=1e-15, rtol=8.9e-16)
    assert abs(profile.y4 - y4o) <= 1e-12 * abs(y4o)
    mu0 = decay_rate_mu(0.0, profile)
    assert mu0 == lam  # min form picks the asymptotic slope exactly
    assert abs(sampled_decay_rate(0.0, profile) - mu0) <= 1e-7 * mu0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"roots vs oracle to 1e-12, mu(0) == 0.1, {elapsed:.2f}s")


def test_criterion_02_scalar_contraction_bound():
    t0 = time.time()
    profile = make_profile(0.1, 1.0, 1.0)
    y1, y3 = profile.y1, profile.y3
    eps = 0.5 * (y1 - y3)
    mu = decay_rate_mu(eps, profile)
    assert abs(sampled_decay_rate(eps, profile) - mu) <= 1e-7 * mu
    y0 = np.linspace(y3 + 1e-3, y1 + 2.0, 50)
    traj = scalar_flow(y0, profile, T=80.0, dt=0.01, record_every=10)
    below = y0 < y1
    diffs = np.diff(traj.values, axis=0)
    assert np.all(diffs[:, below] >= -1e-12)
    assert np.all(diffs[:, ~below] <= 1e-12)
    bound = np.abs(y0 - y1)[None, :] * np.exp(-mu * traj.times)[:, None]
    assert np.all(np.abs(traj.values - y1) <= bound * (1 + 1e-9) + 1e-13)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, f"50 monotone trajectories under exp bound, {elapsed:.2f}s")


def test_criterion_03_sandwich_and_uniqueness():
    data = _criterion3_data()
    p = data[256]["problem"]
    stars = data[256]["stars"]
    spread = max(
        float(np.max(np.abs(a.values - b.values))) for a in stars for b in stars
    )
    assert spread <= 1e-5
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1

    def violation(star, prob):
        ratios = prob.ratio(star)
        return max(
            0.0,
            prob.profile_minus.y1 - float(ratios.min()),
            float(ratios.max()) - prob.profile_plus.y1,
        )

    v256 = max(violation(s, p) for s in stars)
    v128 = violation(data[128]["star"], data[128]["problem"])
    solver_floor = 1e-6
    if v128 > solver_floor:
        ratio = v128 / max(v256, 1e-300)
        assert 2.5 <= ratio <= 6.5
        shrink = f"violation shrink x{ratio:.2f}"
    else:
        assert v256 <= solver_floor
        shrink = "violations at solver floor on both grids"
    tol_h = max(10.0 * v256, solver_floor)
    for star in stars:
        rep = certify_sandwich(star, p, tol_h=tol_h)
        assert rep.passed
    elapsed = data["elapsed"]
    assert elapsed < 60.0
    report(
        3,
        f"10 attractors agree to {spread:.2e}, sandwich in "
        f"[{y1m:.4f},{y1p:.4f}], {shrink}, {elapsed:.1f}s",
    )


def test_criterion_04_exponential_bound_certification():
    data = _criterion3_data()
    p = data[256]["problem"]
    worst = 0.0
    for trace in data[256]["traces"]:
        rep = certify_exponential_bound(trace, p, data["epsilon"])
        assert rep.passed
        assert rep.max_ratio <= 1.0 + 1e-6
        worst = max(worst, rep.max_ratio)
    report(4, f"contraction inequality at every recorded time, worst {worst:.8f}")


def test_criterion_05_comparison_principle():
    t0 = time.time()
    data = _criterion3_data()
    p = data[256]["problem"]
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    eps = data["epsilon"]
    rng = np.random.RandomState(200)
    x = p.grid.coords()[0]
    worst = 0.0
    for _ in range(20):
        c = rng.uniform(y1m - eps + 0.05, y1p)
        amp = rng.uniform(0.0, min(0.2, c - (y1m - eps)))
        w0 = ScalarField(
            p.grid, (c + amp * np.sin(x + rng.uniform(0, 2 * np.pi))) * p.e0.values
        )
        lift = rng.uniform(0.0, 0.5) + rng.uniform(0.0, 0.2) * (
            1.0 + np.cos(x + rng.uniform(0, 2 * np.pi))
        )
        u0 = ScalarField(p.grid, w0.values + lift * p.e0.values)
        rep = comparison_principle_test(u0, w0, p, T=40.0)
        assert rep.passed
        assert rep.min_gap >= -1e-10
        worst = min(worst, rep.min_gap)
    elapsed = time.time() - t0
    report(5, f"20 ordered pairs stay ordered (worst gap {worst:.2e}), {elapsed:.1f}s")


def test_criterion_06_vanishing_psi2_regime():
    t0 = time.time()
    g = make_circle_grid(2 * np.pi, 128)
    p = build_problem(
        g,
        ScalarField.constant(g, -1.0),
        ScalarField.from_function(g, lambda x: 2.0 + np.sin(x)),
        ScalarField.constant(g, 0.0),
    )
    u0 = ScalarField(g, 0.5 * (p.profile_minus.y1 + p.profile_plus.y1) * p.e0.values)
    star, _ = evolve_to_attractor(u0, p, tol=1e-9)
    h_sq = g.spacings[0] ** 2
    assert star.values.min() >= 1.0 - h_sq
    assert star.values.max() <= np.sqrt(3.0) + h_sq
    rep = certify_sandwich(star, p, tol_h=h_sq)
    assert rep.passed

    y1, y2 = phi_roots(1.0, 4.0, 0.0)
    assert abs(y1 - 2.0) <= 1e-12 * 2.0 and y2 is None
    elapsed = time.time() - t0
    report(
        6,
        f"attractor in [1, sqrt(3)] (range [{star.values.min():.6f}, "
        f"{star.values.max():.6f}]), monotone root exact, {elapsed:.1f}s",
    )


def test_criterion_07_fixed_point_classification():
    cases = []
    # two roots: outer stable, inner unstable
    pts = classify_fixed_points(-1.0, 2.0, 0.75)
    closed = [np.sqrt((2.0 + np.sqrt(4.0 - 3.0)) / 2.0),
              np.sqrt((2.0 - np.sqrt(4.0 - 3.0)) / 2.0)]
    assert len(pts) == 2
    assert abs(pts[0][0] - closed[0]) <= 1e-12 * closed[0]
    assert abs(pts[1][0] - closed[1]) <= 1e-12 * closed[1]
    assert [s for _, s in pts] == ["stable", "unstable"]
    cases.append("two-root")
    # positive linear coefficient: a single unstable root
    pts = classify_fixed_points(1.0, 1.0, 1.0)
    root = np.sqrt((-1.0 + np.sqrt(5.0)) / 2.0)
    assert len(pts) == 1 and abs(pts[0][0] - root) <= 1e-12 * root
    assert pts[0][1] == "unstable"
    cases.append("one-unstable")
    # no quartic sink: a single stable root
    pts = classify_fixed_points(-1.0, 4.0, 0.0)
    assert len(pts) == 1 and abs(pts[0][0] - 2.0) <= 1e-12 * 2.0
    assert pts[0][1] == "stable"
    cases.append("one-stable")
    # stability always equals the force-slope sign
    for beta, psi1, psi2 in [(-1.0, 2.0, 0.75), (1.0, 1.0, 1.0), (-1.0, 4.0, 0.0)]:
        for r, s in classify_fixed_points(beta, psi1, psi2):
            slope = beta - psi1 / r**2 + 3 * psi2 / r**4
            assert (slope < 0) == (s == "stable")
    report(7, f"all regimes match closed forms to 1e-12 ({', '.join(cases)})")


def test_criterion_08_hamiltonian_structure():
    t0 = time.time()
    # energy conservation on a cycle, T=100 at dt=1e-3
    orbit = integrate_orbit(PlanarState(1.05, 0.0), 1.0, 0.0, 1.0, 100.0, 1e-3)
    assert orbit.energy_drift < 1e-8
    orbit2 = integrate_orbit(PlanarState(0.75, 0.0), -1.0, 2.0, 0.75, 100.0, 1e-3)
    assert orbit2.energy_drift < 1e-8

    # type dichotomy across the three regimes
    for beta, psi1, psi2 in [(-1.0, 2.0, 0.75), (1.0, 1.0, 1.0), (-1.0, 4.0, 0.0)]:
        for u, kind in fixed_points_and_types(beta, psi1, psi2):
            slope = beta - psi1 / u**2 + 3 * psi2 / u**4
            assert (slope < 0) == (kind == "saddle")

    # separatrix points satisfy the printed level relation
    beta, psi1, psi2 = -1.0, 2.0, 0.75
    level = separatrix_level(beta, psi1, psi2)
    y1 = np.sqrt(1.5)
    for u in np.linspace(0.75, 0.999 * y1, 40):
        v_sq = 2.0 * (level - 0.5 * beta * u**2 - psi1 * np.log(u)
                      - 0.5 * psi2 / u**2)
        printed = (abs(beta) * (u**2 - y1**2) - 2 * psi1 * np.log(u / y1)
                   - psi2 * (u**-2 - y1**-2))
        assert abs(v_sq - printed) <= 1e-10

    # closed forms: discrete residual at second order, degenerate constant exact
    errs = []
    for n in (64, 128):
        g = make_circle_grid(2 * np.pi, n)
        u = ScalarField(
            g,
            np.array(
                [closed_form_stationary(1.0, 1.0, 2.5, 0.0, x)
                 for x in g.coords()[0]]
            ),
        )
        errs.append(
            stationary_residual_fields(
                u, g,
                ScalarField.constant(g, 1.0),
                ScalarField.constant(g, 0.0),
                ScalarField.constant(g, 1.0),
            )
        )
    assert 3.4 <= errs[0] / errs[1] <= 4.6
    c1 = 2.0 * np.sqrt(0.5)
    val = closed_form_stationary(0.5, 1.0, c1, 0.0, 1.3)
    assert abs(val - 2.0 ** 0.25) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        8,
        f"drift {max(orbit.energy_drift, orbit2.energy_drift):.2e}, residual "
        f"ratio {errs[0] / errs[1]:.2f}, quartic root exact, {elapsed:.1f}s",
    )


def test_criterion_09_twisted_product_consistency():
    t0 = time.time()
    # analytic curvature at second order under refinement
    errs = []
    for n in (32, 64):
        base = make_circle_grid(2 * np.pi, n)
        fiber = make_circle_grid(2 * np.pi, 64)
        product = make_torus_grid(base.dims + fiber.dims)
        x, _ = product.meshgrid()
        u = ScalarField(product, (2.0 + np.sin(x)).ravel())
        ones = ScalarField.constant(product, 1.0)
        smix = mixed_scalar_curvature(TwistedProduct(base, fiber, ones, u))
        exact = (np.sin(x) / (2.0 + np.sin(x))).ravel()
        errs.append(float(np.max(np.abs(smix.values - exact))))
    assert 3.4 <= errs[0] / errs[1] <= 4.6

    # transformation-law residual within the h^2 envelope on the 64x64 torus
    base = make_circle_grid(2 * np.pi, 64)
    fiber = make_circle_grid(2 * np.pi, 66)
    product = make_torus_grid(base.dims + fiber.dims)
    x, _ = product.meshgrid()
    u = ScalarField(product, (2.0 + np.sin(x)).ravel())
    zeros = ScalarField.constant(product, 0.0)
    s_tilde = mixed_scalar_curvature(
        TwistedProduct(base, fiber, ScalarField.constant(product, 1.0), u)
    )
    res = conformal_change_residual(
        zeros, s_tilde, u, zeros, zeros, product, n_normal=1, leaf_axes=(0,)
    )
    h_sq = max(h * h for h in product.spacings)
    assert res <= h_sq

    # ground-state warp: leafwise constancy within the h^2 envelope
    oscs = []
    for n in (32, 64):
        base = make_circle_grid(2 * np.pi, n)
        fiber = make_circle_grid(2 * np.pi, n)
        product = make_torus_grid(base.dims + fiber.dims)
        xx, yy = product.meshgrid()
        v = ScalarField(product, (2.0 + 0.5 * np.sin(xx) * np.cos(yy)).ravel())
        tp = TwistedProduct(base, fiber, v)
        uw, leaf_smix = ground_state_warp(tp)
        smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, uw))
        per_leaf = smix.values.reshape(n, n)
        osc = float(np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)))
        assert osc <= (2 * np.pi / n) ** 2
        oscs.append(osc)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        9,
        f"curvature err ratio {errs[0] / errs[1]:.2f}, law residual {res:.2e}, "
        f"leaf oscillation {max(oscs):.2e}, {elapsed:.1f}s",
    )


def test_criterion_10_spectral_enclosure():
    t0 = time.time()
    rng = np.random.RandomState(300)
    g = make_circle_grid(2 * np.pi, 128)
    x = g.coords()[0]
    worst_resid = 0.0
    for _ in range(20):
        vals = rng.uniform(-1, 1) * np.ones_like(x)
        for k in range(1, 4):
            vals = vals + rng.uniform(-1, 1) * np.cos(k * x)
            vals = vals + rng.uniform(-1, 1) * np.sin(k * x)
        beta = ScalarField(g, vals)
        r = ground_state(g, beta)
        assert -beta.max() - 1e-9 <= r.lambda0 <= -beta.min() + 1e-9
        assert r.gap > 0.0
        assert r.e0.min() > 0.0
        assert r.residual <= 1e-10 * max(1.0, abs(r.lambda0))
        worst_resid = max(worst_resid, r.residual)
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report(
        10,
        f"20 random potentials enclosed, worst residual {worst_resid:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_parameter_smoothness():
    t0 = time.time()
    g = make_circle_grid(2 * np.pi, 128)
    fam = ParamFamily(
        grid=g,
        q=np.linspace(0.0, 2.0, 41),
        beta_of_q=lambda q: ScalarField.from_function(g, lambda x: q * np.cos(x)),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 0.0),
    )
    res = sweep_ground_state(fam)
    for i in range(0, 41, 5):
        q = fam.q[i]
        dense = spectrum_oracle(g, fam.beta_of_q(q), 1)
        assert abs(res.lambda0[i] - dense[0]) <= 1e-10
    rep = smoothness_diagnostic(res)
    assert rep.passed
    assert 3.2 <= rep.ratio <= 4.8

    # attractor family in the admissible regime
    def attractor_family(count):
        ga = make_circle_grid(2 * np.pi, 64)
        return ParamFamily(
            grid=ga,
            q=np.linspace(0.0, 0.5, count),
            beta_of_q=lambda q: ScalarField.constant(ga, -1.0),
            psi1_of_q=lambda q: ScalarField.from_function(
                ga, lambda x: 2.0 + q * np.sin(x)
            ),
            psi2_of_q=lambda q: ScalarField.constant(ga, 0.0),
        )

    tol = 1e-9
    coarse = sweep_attractor(attractor_family(6), tol=tol)
    fine = sweep_attractor(attractor_family(11), tol=tol)
    assert np.isfinite(fine.lipschitz)
    assert fine.lipschitz <= 1.5 * coarse.lipschitz + 1e-9

    # warm-started sweep end point equals an independent cold start
    fam_a = attractor_family(6)
    q_last = fine.family.q[-1]
    p = build_problem(
        fam_a.grid,
        fam_a.beta_of_q(q_last),
        fam_a.psi1_of_q(q_last),
        fam_a.psi2_of_q(q_last),
    )
    mid = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1)
    cold, _ = evolve_to_attractor(
        ScalarField(fam_a.grid, mid * p.e0.values), p, tol=tol
    )
    assert np.max(np.abs(cold.values - fine.u_star[-1].values)) <= 10.0 * tol
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        11,
        f"lambda0(q) vs oracle 1e-10, d2 ratio {rep.ratio:.2f}, "
        f"warm==cold to 10*tol, {elapsed:.1f}s",
    )
