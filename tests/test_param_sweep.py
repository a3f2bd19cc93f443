import weakref

import numpy as np
import pytest

from groundflow import (
    AdmissibilityError,
    ConvergenceError,
    ParamFamily,
    ScalarField,
    make_circle_grid,
    smoothness_diagnostic,
    spectrum_oracle,
    sweep_attractor,
    sweep_ground_state,
    sweep_to_csv,
)
from groundflow import _solve, heatflow, make_torus_grid, param_sweep
from groundflow import stationary_residual
from groundflow.heatflow import _newton_stationary, build_problem, evolve_to_attractor


def cosine_family(n=64, q_start=0.0, q_stop=2.0, count=21):
    g = make_circle_grid(2 * np.pi, n)
    return ParamFamily(
        grid=g,
        q=np.linspace(q_start, q_stop, count),
        beta_of_q=lambda q: ScalarField.from_function(g, lambda x: q * np.cos(x)),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 0.0),
    )


def corollary_family(n=64, count=11, q_stop=0.5):
    g = make_circle_grid(2 * np.pi, n)
    return ParamFamily(
        grid=g,
        q=np.linspace(0.0, q_stop, count),
        beta_of_q=lambda q: ScalarField.constant(g, -1.0),
        psi1_of_q=lambda q: ScalarField.from_function(
            g, lambda x: 2.0 + q * np.sin(x)
        ),
        psi2_of_q=lambda q: ScalarField.constant(g, 0.0),
    )


def test_family_validation():
    g = make_circle_grid(1.0, 8)
    const = lambda q: ScalarField.constant(g, 1.0)
    with pytest.raises(ValueError):
        ParamFamily(g, np.array([0.0, 0.1, 0.3]), const, const, const)
    with pytest.raises(ValueError):
        ParamFamily(g, np.array([0.3, 0.2, 0.1]), const, const, const)
    with pytest.raises(ValueError):  # one parameter, so q is one array
        ParamFamily(g, np.linspace(0.0, 1.0, 6).reshape(3, 2), const, const, const)


def test_constant_potential_family_is_linear_in_q():
    g = make_circle_grid(2 * np.pi, 32)
    fam = ParamFamily(
        grid=g,
        q=np.linspace(-1.0, 1.0, 9),
        beta_of_q=lambda q: ScalarField.constant(g, q),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 0.0),
    )
    res = sweep_ground_state(fam)
    assert np.max(np.abs(res.lambda0 + fam.q)) < 1e-12
    e0_stack = np.stack([f.values for f in res.e0])
    assert np.max(np.abs(e0_stack - e0_stack[0])) < 1e-12
    rep = smoothness_diagnostic(res)
    assert rep.passed
    assert rep.ratio is None  # exactly linear: degenerate quotients


def test_cosine_family_matches_dense_oracle_per_q():
    fam = cosine_family(n=64, count=9)
    res = sweep_ground_state(fam)
    for i, q in enumerate(fam.q):
        beta = fam.beta_of_q(q)
        dense = spectrum_oracle(fam.grid, beta, 2)
        assert abs(res.lambda0[i] - dense[0]) < 1e-10
        assert abs(res.gap[i] - (dense[1] - dense[0])) < 1e-7
    assert abs(res.lambda0[0]) < 1e-12
    assert np.all(res.lambda0 <= 1e-12)
    assert res.gap.min() > 0.5
    # enclosure band holds uniformly in q: beta ranges over [-q, q]
    qs = fam.q
    assert np.all(res.lambda0 >= -qs - 1e-9)
    assert np.all(res.lambda0 <= qs + 1e-9)


def test_cosine_family_smoothness():
    res = sweep_ground_state(cosine_family(n=64, count=41))
    rep = smoothness_diagnostic(res)
    assert rep.passed
    assert 3.2 <= rep.ratio <= 4.8
    assert rep.e0_lipschitz < 1.0


def test_e0_lipschitz_stable_under_refinement():
    coarse = sweep_ground_state(cosine_family(n=64, count=21))
    fine = sweep_ground_state(cosine_family(n=64, count=41))
    lip_c = smoothness_diagnostic(coarse).e0_lipschitz
    lip_f = smoothness_diagnostic(fine).e0_lipschitz
    assert lip_f < 2.0 * lip_c + 1e-9


def test_smoothness_needs_enough_points():
    res = sweep_ground_state(cosine_family(n=32, count=5))
    with pytest.raises(ValueError):
        smoothness_diagnostic(res)


def test_attractor_sweep_constant_family_q_independent():
    g = make_circle_grid(2 * np.pi, 48)
    fam = ParamFamily(
        grid=g,
        q=np.linspace(0.0, 1.0, 5),
        beta_of_q=lambda q: ScalarField.constant(g, -0.1),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 1.0),
    )
    res = sweep_attractor(fam, tol=1e-9)
    stack = np.stack([f.values for f in res.u_star])
    assert np.max(np.abs(stack - stack[0])) < 1e-8
    assert res.lipschitz < 1e-7


def test_attractor_sweep_corollary_family_sandwich_per_q():
    fam = corollary_family(n=64, count=11)
    res = sweep_attractor(fam, tol=1e-9)
    for i, q in enumerate(fam.q):
        vals = res.u_star[i].values
        assert vals.min() >= np.sqrt(2.0 - q) - 1e-6
        assert vals.max() <= np.sqrt(2.0 + q) + 1e-6
    assert res.lipschitz < 1.0


def test_attractor_sweep_lipschitz_converges():
    coarse = sweep_attractor(corollary_family(n=48, count=6), tol=1e-9)
    fine = sweep_attractor(corollary_family(n=48, count=11), tol=1e-9)
    assert fine.lipschitz < 1.5 * coarse.lipschitz + 1e-9


def test_warm_start_equals_cold_start():
    fam = corollary_family(n=48, count=6)
    tol = 1e-9
    res = sweep_attractor(fam, tol=tol)
    # cold-start the final parameter point independently
    q_last = fam.q[-1]
    p = build_problem(
        fam.grid,
        fam.beta_of_q(q_last),
        fam.psi1_of_q(q_last),
        fam.psi2_of_q(q_last),
    )
    mid = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1)
    cold0 = ScalarField(fam.grid, mid * p.e0.values)
    cold, _ = evolve_to_attractor(cold0, p, tol=tol)
    assert np.max(np.abs(cold.values - res.u_star[-1].values)) <= 10.0 * tol


def test_admissibility_failure_reports_first_q():
    g = make_circle_grid(1.0, 16)
    fam = ParamFamily(
        grid=g,
        q=np.linspace(0.1, 0.5, 5),
        beta_of_q=lambda q: ScalarField.constant(g, -q),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 1.0),
    )
    # admissible needs q < 0.25: first offending point is q = 0.3
    with pytest.raises(AdmissibilityError) as err:
        sweep_attractor(fam)
    assert "0.3" in str(err.value)
    assert isinstance(err.value.__cause__, AdmissibilityError)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_sweep_failures_keep_their_cause(monkeypatch):
    fam = corollary_family(n=16, count=3)
    cause = ConvergenceError("inner failure", residual=1.0)
    monkeypatch.setattr(param_sweep, "ground_state", _raise(cause))
    with pytest.raises(ConvergenceError) as err:
        sweep_ground_state(fam)
    assert str(err.value) == "ground state failed at q=0.0: inner failure"
    assert err.value.__cause__ is cause
    assert err.value.residual == 1.0

    monkeypatch.undo()
    monkeypatch.setattr(param_sweep, "_newton_stationary", _raise(cause))
    with pytest.raises(ConvergenceError) as err:
        sweep_attractor(fam)
    assert str(err.value) == "attractor failed at q=0.0: inner failure"
    assert err.value.__cause__ is cause
    assert err.value.residual == 1.0


def test_sweep_attractor_names_the_q_of_a_failed_ground_state(monkeypatch):
    fam = corollary_family(n=16, count=3)
    cause = ConvergenceError("inner failure", residual=1.0)
    monkeypatch.setattr(heatflow, "ground_state", _raise(cause))
    with pytest.raises(ConvergenceError) as err:
        sweep_attractor(fam)
    assert str(err.value) == "ground state failed at q=0.0: inner failure"
    assert err.value.__cause__ is cause
    assert err.value.residual == 1.0


def test_sweep_programming_errors_are_not_wrapped(monkeypatch):
    fam = corollary_family(n=16, count=3)
    for error in (TypeError, ValueError):
        monkeypatch.setattr(param_sweep, "ground_state", _raise(error("bug")))
        with pytest.raises(error, match="bug"):
            sweep_ground_state(fam)
        monkeypatch.undo()
        monkeypatch.setattr(heatflow, "ground_state", _raise(error("bug")))
        with pytest.raises(error, match="bug"):
            sweep_attractor(fam)
        monkeypatch.undo()
        monkeypatch.setattr(param_sweep, "_newton_stationary", _raise(error("bug")))
        with pytest.raises(error, match="bug"):
            sweep_attractor(fam)
        monkeypatch.undo()


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1e-3])
def test_sweep_attractor_rejects_bad_tol_before_any_work(tol):
    g = make_circle_grid(2 * np.pi, 16)
    never = _raise(AssertionError("evaluated a field before checking tol"))
    fam = ParamFamily(g, np.linspace(0.0, 1.0, 3), never, never, never)
    with pytest.raises(ValueError, match="tol"):
        sweep_attractor(fam, tol=tol)


def test_gap_floor_aborts_sweep():
    g = make_circle_grid(10_000.0, 8)
    fam = ParamFamily(
        grid=g,
        q=np.linspace(0.0, 1.0, 3),
        beta_of_q=lambda q: ScalarField.constant(g, q),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 0.0),
    )
    with pytest.raises(ConvergenceError) as err:
        sweep_ground_state(fam)
    assert "gap" in str(err.value)


def test_sweep_csv(tmp_path):
    res = sweep_attractor(corollary_family(n=32, count=5), tol=1e-8)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "q1,lambda0,gap,min_ratio,max_ratio"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert len(row) == 5
    assert float(row[1]) == pytest.approx(1.0, abs=1e-10)

    gs_only = sweep_ground_state(corollary_family(n=32, count=5))
    with pytest.raises(ValueError):
        sweep_to_csv(gs_only, tmp_path / "nope.csv")


# ---------------------------------------------------------------- Newton


def _sandwich_starts(p):
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    return [r * p.e0.values for r in (y1m, 0.5 * (y1m + y1p), y1p)]


def _assert_newton_matches_flow(p, tol):
    starts = _sandwich_starts(p)
    flow, _ = evolve_to_attractor(ScalarField(p.grid, starts[1]), p, tol=tol)
    for start in starts:
        u = _newton_stationary(start, p, tol)
        assert np.max(np.abs(u.values - flow.values)) <= 10.0 * tol
        assert stationary_residual(u, p) <= 10.0 * tol


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
def test_newton_cold_starts_match_flow_on_corollary_family(q):
    fam = corollary_family(n=64)
    tol = 1e-9
    p = build_problem(fam.grid, *fam.at(q))
    _assert_newton_matches_flow(p, tol)


@pytest.mark.parametrize("b", [0.02, 0.04])
def test_newton_cold_starts_match_flow_on_torus(b):
    g = make_torus_grid([(2 * np.pi, 32), (2 * np.pi, 32)])
    tol = 1e-9
    p = build_problem(
        g,
        ScalarField.from_function(g, lambda x, y: -0.1 + b * np.cos(x)),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
    )
    _assert_newton_matches_flow(p, tol)


def test_newton_on_16384_point_circle():
    # round-off in applying L puts Newton's residual near 5.9e-9 here and
    # the flow's own iterates near 1.8e-8, above 10*tol; the flow certifies
    # them against its round-off floor instead
    g = make_circle_grid(2 * np.pi, 16384)
    tol = 1e-9
    p = build_problem(
        g,
        ScalarField.from_function(g, lambda x: -0.1 + 0.03 * np.cos(x)),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
    )
    mid = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1)
    u = _newton_stationary(mid * p.e0.values, p, tol)
    assert stationary_residual(u, p) <= 10.0 * tol
    flow, _ = evolve_to_attractor(ScalarField(g, mid * p.e0.values), p, tol=tol)
    assert np.max(np.abs(u.values - flow.values)) <= 10.0 * tol


def _cosine_circle_problem(n=64):
    g = make_circle_grid(2 * np.pi, n)
    return build_problem(
        g,
        ScalarField.from_function(g, lambda x: -0.05 + 0.04 * np.cos(x)),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
    )


def test_newton_iteration_cap_raises_with_residual(monkeypatch):
    p = _cosine_circle_problem()
    start = _sandwich_starts(p)[0]
    monkeypatch.setattr(heatflow, "_NEWTON_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as err:
        _newton_stationary(start, p, 1e-9)
    assert err.value.residual is not None and err.value.residual > 1e-8
    assert "after 1 iterations" in str(err.value)
    assert "min_ratio=" in str(err.value)


def test_newton_singular_factor_is_a_convergence_error(monkeypatch):
    p = _cosine_circle_problem()
    start = _sandwich_starts(p)[1]

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    # SuperLU itself fails, so the solver's own conversion is exercised
    monkeypatch.setattr(_solve, "splu", singular)
    with pytest.raises(ConvergenceError) as err:
        _newton_stationary(start, p, 1e-9)
    assert "singular factor" in str(err.value)
    assert isinstance(err.value.__cause__.__cause__, RuntimeError)
    assert err.value.residual is not None


def test_newton_far_start_is_not_certified():
    # from 10*y1_plus*e0 Newton lands on a stationary solution below the
    # sandwich; only the certification tells it from the attractor
    p = _cosine_circle_problem()
    far = 10.0 * p.profile_plus.y1 * p.e0.values
    with pytest.raises(ConvergenceError) as err:
        _newton_stationary(far, p, 1e-9)
    assert err.value.residual is not None


def test_start_field_clips_warm_start_into_sandwich():
    p = _cosine_circle_problem()
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    e0 = p.e0.values
    cold = param_sweep._start_field(p, None)
    assert np.allclose(cold / e0, 0.5 * (y1m + y1p), rtol=1e-14)
    wild = ScalarField(p.grid, np.where(np.arange(e0.size) % 2, 0.1, 10.0) * y1p * e0)
    ratio = param_sweep._start_field(p, wild) / e0
    assert np.all(ratio >= y1m * (1 - 1e-14)) and np.all(ratio <= y1p * (1 + 1e-14))


def torus_sweep_family():
    """The sweep of the benchmark: 9 q on a 32x32 torus."""
    g = make_torus_grid([(2 * np.pi, 32), (2 * np.pi, 32)])
    return ParamFamily(
        grid=g,
        q=np.linspace(0.0, 0.2, 9),
        beta_of_q=lambda q: ScalarField.from_function(
            g, lambda x, y: -0.1 + (0.02 + 0.1 * q) * np.cos(x)
        ),
        psi1_of_q=lambda q: ScalarField.constant(g, 1.0),
        psi2_of_q=lambda q: ScalarField.constant(g, 1.0),
    )


def test_sweep_attractor_uses_newton_not_the_flow(monkeypatch):
    fam = torus_sweep_family()
    factors = []
    factor = heatflow.spd_solver

    def counting(*args, **kwargs):
        factors.append(1)
        return factor(*args, **kwargs)

    per_q = []
    newton = param_sweep._newton_stationary

    def recording(*args, **kwargs):
        before = len(factors)
        out = newton(*args, **kwargs)
        per_q.append(len(factors) - before)
        return out

    monkeypatch.setattr(heatflow, "spd_solver", counting)
    monkeypatch.setattr(heatflow, "evolve_to_attractor",
                        _raise(AssertionError("the sweep marched the flow")))
    monkeypatch.setattr(param_sweep, "_newton_stationary", recording)
    sweep_attractor(fam, tol=1e-9)
    assert len(per_q) == 9
    # Newton keeps its Jacobian factor; a refactor is the exception
    assert max(per_q) <= 2
    assert len(factors) == sum(per_q)


def test_sweep_attractor_keeps_one_newton_factor_across_q(factor_count):
    # one ground-state factor per q, on the 32 points of the axis beta
    # varies along; Newton solves on the same 32 points, carries its
    # Jacobian factor from q to q and refactors only when its steps stop
    # contracting; nothing is factored on the 32x32 torus
    sweep_attractor(torus_sweep_family(), tol=1e-9)
    assert 9 + 1 <= factor_count.count((32, 32)) <= 9 + 2
    assert len(factor_count) == factor_count.count((32, 32))


def _mid_start(p):
    return 0.5 * (p.profile_minus.y1 + p.profile_plus.y1) * p.e0.values


def _assert_same_root(u, fresh):
    assert np.max(np.abs(u.values - fresh.values)) <= 1e-12 * np.max(fresh.values)


def _torus_problem(b):
    g = make_torus_grid([(2 * np.pi, 32), (2 * np.pi, 32)])
    return build_problem(
        g,
        ScalarField.from_function(g, lambda x, y: -0.1 + b * np.cos(x)),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 1.0),
    )


@pytest.mark.parametrize("family", ["corollary", "torus"])
def test_newton_carried_factor_matches_fresh_factor(family):
    tol = 1e-9
    if family == "corollary":
        fam = corollary_family(n=64)
        problems = [build_problem(fam.grid, *fam.at(q)) for q in (0.1, 0.3, 0.5)]
    else:
        problems = [_torus_problem(b) for b in (0.02, 0.04)]
    held = {}
    for p in problems:
        fresh = _newton_stationary(_mid_start(p), p, tol)
        carried = _newton_stationary(_mid_start(p), p, tol, held)
        _assert_same_root(carried, fresh)


def test_newton_far_factor_still_certifies(factor_count):
    tol = 1e-9
    fam = corollary_family(n=64)
    first, last = (build_problem(fam.grid, *fam.at(q)) for q in (0.0, 0.5))
    held = {}
    _newton_stationary(_mid_start(first), first, tol, held)
    (solve,) = held.values()
    fresh = _newton_stationary(_mid_start(last), last, tol)
    # the factor of q = 0 still contracts at q = 0.5: it is kept
    factor_count.clear()
    u = _newton_stationary(_mid_start(last), last, tol, held)
    (kept,) = held.values()
    assert kept is solve and len(factor_count) == 0
    _assert_same_root(u, fresh)
    # a factor of another problem on the same grid, with lambda0 = 1 against
    # about 0.05 here, does not contract: it is replaced and the root certifies
    p = _cosine_circle_problem()
    fresh = _newton_stationary(_mid_start(p), p, tol)
    factor_count.clear()
    u = _newton_stationary(_mid_start(p), p, tol, held)
    (replaced,) = held.values()
    assert replaced is not solve and len(factor_count) >= 1
    _assert_same_root(u, fresh)
    assert stationary_residual(u, p) <= 10.0 * tol


def test_sweep_never_holds_two_newton_factors(monkeypatch):
    # the two problems above, and the first again: the Jacobian factor of
    # either does not contract on the other, so Newton refactors at every q
    g = make_circle_grid(2 * np.pi, 64)
    corollary = (-1.0, 2.0, 0.0)
    fields = {
        0.0: corollary,
        1.0: (lambda x: -0.05 + 0.04 * np.cos(x), 1.0, 1.0),
        2.0: corollary,
    }

    def field(slot):
        def of_q(q):
            value = fields[q][slot]
            if callable(value):
                return ScalarField.from_function(g, value)
            return ScalarField.constant(g, value)
        return of_q

    fam = ParamFamily(g, np.array([0.0, 1.0, 2.0]), field(0), field(1), field(2))
    solvers = []  # weak references to every solver Newton asked for
    alive_at_build = []
    get_solver, factor = heatflow.spd_solver, _solve.splu

    def recording(*args):
        solve = get_solver(*args)
        solvers.append(weakref.ref(solve))
        return solve

    def checking(*args, **kwargs):
        alive_at_build.append(sum(ref() is not None for ref in solvers))
        return factor(*args, **kwargs)

    monkeypatch.setattr(heatflow, "spd_solver", recording)
    monkeypatch.setattr(_solve, "splu", checking)
    sweep_attractor(fam, tol=1e-9)
    assert len(solvers) >= 3
    # no earlier Jacobian factor was alive when the next one was built,
    # and none outlives the sweep
    assert alive_at_build == [0] * len(alive_at_build)
    assert all(ref() is None for ref in solvers)
