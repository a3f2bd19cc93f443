import time

import numpy as np
import pytest
import scipy.linalg

from groundflow import (
    ScalarField,
    ground_state,
    make_circle_grid,
    make_torus_grid,
    shift_for_positivity,
    spectrum_oracle,
)
from groundflow import schrodinger
from groundflow.errors import ConvergenceError
from groundflow.grid import DENSE_CAP

from oracles import looped_laplacian_matrix, rayleigh_quotient_longdouble

TWO_PI = 2 * np.pi


def _trig_beta(rng, grid):
    x = grid.coords()[0]
    vals = rng.uniform(-1, 1) * np.ones_like(x)
    for k in range(1, 4):
        vals = vals + rng.uniform(-1, 1) * np.cos(k * x)
        vals = vals + rng.uniform(-1, 1) * np.sin(k * x)
    return ScalarField(grid, vals)


def test_shift_examples():
    # -max(beta) - max(max(beta) - mean(beta), 0.01): the floor binds for
    # constant beta, and cos has mean 0 to round-off
    g = make_circle_grid(2 * np.pi, 32)
    assert shift_for_positivity(ScalarField.constant(g, 0.0)) == -0.01
    assert shift_for_positivity(ScalarField.constant(g, 5.0)) == -5.01
    assert shift_for_positivity(ScalarField.from_function(g, np.cos)) == -2.0


def test_shift_is_the_one_the_lanczos_run_applies():
    # the eigen-solver returns the shift of the factor its Lanczos run inverts
    g = make_torus_grid([(TWO_PI, 16), (TWO_PI, 16)])
    beta = ScalarField.from_function(g, lambda x, y: -0.1 + 0.03 * np.cos(x))
    *_, mu = schrodinger._least_eigenpair(g, beta)
    assert mu == shift_for_positivity(beta)


def test_huge_constant_potential_runs_as_the_zero_potential():
    # the eigen-solver works on beta - max(beta), which is exactly 0 for a
    # constant beta, so the run is the one of beta = 0; the least nonzero
    # level of -L is 1e-4 on this axis, far below the shift floor 0.01
    g = make_circle_grid(628.0, 1000)
    zero = ground_state(g, ScalarField.constant(g, 0.0))
    r = ground_state(g, ScalarField.constant(g, 1e16))
    assert r.lambda0 == -1e16
    assert r.gap == zero.gap
    assert r.iterations == zero.iterations


def test_constant_potential_is_exact():
    for dims in ([(2 * np.pi, 32)], [(2 * np.pi, 8), (1.0, 6)]):
        g = make_torus_grid(dims)
        c = 2.25
        r = ground_state(g, ScalarField.constant(g, c))
        assert abs(r.lambda0 + c) < 1e-12
        vol = g.cell_volume * g.total_points
        expected = vol ** -0.5
        assert np.max(np.abs(r.e0.values - expected)) < 1e-12


def test_cosine_potential_matches_dense_oracle():
    g = make_circle_grid(2 * np.pi, 128)
    beta = ScalarField.from_function(g, lambda x: 2 * np.cos(x))
    r = ground_state(g, beta)
    dense = scipy.linalg.eigh(
        -looped_laplacian_matrix(g) - np.diag(beta.values), eigvals_only=True
    )
    assert abs(r.lambda0 - dense[0]) < 1e-10
    # Richardson: lambda0 converges at second order in h
    g2 = make_circle_grid(2 * np.pi, 256)
    r2 = ground_state(g2, ScalarField.from_function(g2, lambda x: 2 * np.cos(x)))
    g3 = make_circle_grid(2 * np.pi, 512)
    r3 = ground_state(g3, ScalarField.from_function(g3, lambda x: 2 * np.cos(x)))
    ratio = (r.lambda0 - r2.lambda0) / (r2.lambda0 - r3.lambda0)
    assert 3.4 <= ratio <= 4.6


def _dense_pair(grid, beta):
    """The two least levels and the positive unit e0 from the dense oracle."""
    levels, vectors = scipy.linalg.eigh(
        -looped_laplacian_matrix(grid) - np.diag(beta.values), subset_by_index=[0, 1]
    )
    e0 = vectors[:, 0] / np.sqrt(grid.cell_volume * vectors[:, 0] @ vectors[:, 0])
    return levels, e0 * np.sign(e0.sum())


@pytest.mark.parametrize("a", [2.0, 5.0, 10.0, 20.0])
def test_small_gaps_match_dense_oracle(a):
    # the double well a*cos(2x) splits its two lowest levels by 0.34, 0.077,
    # 0.010 and 4.3e-4: the residual target alone must still pin lambda0,
    # the gap and e0, since lambda0 lies within residual**2/gap of the quotient
    g = make_circle_grid(TWO_PI, 256)
    beta = ScalarField.from_function(g, lambda x: a * np.cos(2 * x))
    r = ground_state(g, beta)
    dense, e0 = _dense_pair(g, beta)
    gap = dense[1] - dense[0]
    assert abs(r.lambda0 - dense[0]) <= 1e-11
    assert abs(r.gap - gap) <= 1e-8 * gap
    assert np.max(np.abs(r.e0.values - e0)) <= 1e-8


@pytest.mark.parametrize("beta_fn", [
    lambda x: -15.0 * np.cos(2 * x) + 0.02 * np.sin(3 * x),
    lambda x: -30.0 * np.cos(2 * x) + 0.2 * np.sin(3 * x),
], ids=["a=15", "a=30"])
def test_asymmetric_double_wells_match_dense_oracle(beta_fn):
    # a slight asymmetry between two deep wells: lambda0 - mu and lambda1 - mu
    # are close, so inverse iteration, contracting by their ratio per step,
    # ran out of steps, while Lanczos converges at the square root of that rate
    g = make_circle_grid(TWO_PI, 128)
    beta = ScalarField.from_function(g, beta_fn)
    r = ground_state(g, beta)
    (lam0, lam1), e0 = _dense_pair(g, beta)
    assert abs(r.lambda0 - lam0) <= 1e-11
    assert abs(r.gap - (lam1 - lam0)) <= 1e-8 * (lam1 - lam0)
    assert np.max(np.abs(r.e0.values - e0)) <= 1e-8


def test_deep_well_ground_state_stays_positive():
    # e0 falls to 1.6e-17 across the barrier, where the top Ritz vector x is
    # at rounding level and may turn negative; e0 is one solve applied to |x|
    g = make_circle_grid(TWO_PI, 512)
    beta = ScalarField.from_function(g, lambda x: 200.0 * np.cos(x) + np.sin(2 * x))
    r = ground_state(g, beta)
    (lam0, _), _ = _dense_pair(g, beta)
    assert r.e0.min() > 0.0
    assert abs(r.lambda0 - lam0) <= 1e-11 * max(1.0, abs(lam0))


@pytest.mark.parametrize("a", [40.0, 60.0, 80.0])
def test_tiny_gaps_match_dense_oracle(a):
    # the double well a*cos(2x) splits its two lowest levels by 4.0e-6, 9.9e-8
    # and 4.3e-9; e0 is not compared, since the dense eigenvector itself moves
    # by about eps*||H||/gap
    g = make_circle_grid(TWO_PI, 256)
    beta = ScalarField.from_function(g, lambda x: a * np.cos(2 * x))
    r = ground_state(g, beta)
    (lam0, lam1), _ = _dense_pair(g, beta)
    assert abs(r.lambda0 - lam0) <= 1e-11
    assert abs(r.gap - (lam1 - lam0)) <= 2e-12


def test_enclosure_for_cosine():
    g = make_circle_grid(2 * np.pi, 128)
    beta = ScalarField.from_function(g, np.cos)
    r = ground_state(g, beta)
    assert -1.0 - 1e-9 <= r.lambda0 <= 1.0 + 1e-9


def test_spectral_result_invariants_random_potentials():
    rng = np.random.RandomState(3)
    g = make_circle_grid(2 * np.pi, 96)
    vol = g.cell_volume
    for _ in range(8):
        beta = _trig_beta(rng, g)
        r = ground_state(g, beta)
        assert r.e0.min() > 0.0
        norm = np.sqrt(vol * np.dot(r.e0.values, r.e0.values))
        assert abs(norm - 1.0) < 1e-12
        assert r.gap > 0.0
        assert r.residual <= 1e-10 * max(1.0, abs(r.lambda0))
        # discrete enclosure holds without an h-dependent band
        assert -beta.max() - 1e-9 <= r.lambda0 <= -beta.min() + 1e-9


def test_rayleigh_consistency():
    rng = np.random.RandomState(4)
    g = make_circle_grid(2 * np.pi, 64)
    beta = _trig_beta(rng, g)
    r = ground_state(g, beta)
    op = -looped_laplacian_matrix(g) - np.diag(beta.values)
    for _ in range(100):
        f = rng.standard_normal(g.total_points)
        quotient = np.dot(f, op @ f) / np.dot(f, f)
        assert r.lambda0 <= quotient + 1e-10


def test_gap_matches_dense_oracle():
    rng = np.random.RandomState(5)
    g = make_circle_grid(2 * np.pi, 64)
    for _ in range(4):
        beta = _trig_beta(rng, g)
        r = ground_state(g, beta)
        lo = spectrum_oracle(g, beta, 2)
        assert abs(r.gap - (lo[1] - lo[0])) < 1e-7


def test_spectrum_oracle_free_laplacian():
    for n in (32, 64):
        g = make_circle_grid(2 * np.pi, n)
        h = g.spacings[0]
        beta = ScalarField.constant(g, 0.0)
        got = spectrum_oracle(g, beta, 6)
        js = [0, 1, 1, 2, 2, 3]
        expected = [(4.0 / h**2) * np.sin(j * h / 2.0) ** 2 for j in js]
        assert np.max(np.abs(got - expected)) < 1e-9


def test_spectrum_oracle_consistency_and_shift():
    g = make_circle_grid(2 * np.pi, 64)
    beta = ScalarField.from_function(g, lambda x: 2 * np.cos(x))
    r = ground_state(g, beta)
    assert abs(spectrum_oracle(g, beta, 1)[0] - r.lambda0) < 1e-10

    zero = spectrum_oracle(g, ScalarField.constant(g, 0.0), 10)
    shifted = spectrum_oracle(g, ScalarField.constant(g, 3.0), 10)
    assert np.max(np.abs(shifted - (zero - 3.0))) < 1e-10


def test_spectrum_oracle_validation():
    g = make_circle_grid(2 * np.pi, 16)
    beta = ScalarField.constant(g, 0.0)
    with pytest.raises(ValueError):
        spectrum_oracle(g, beta, 0)
    with pytest.raises(ValueError):
        spectrum_oracle(g, beta, 17)
    big = make_torus_grid([(1.0, 70), (1.0, 70)])
    with pytest.raises(ValueError):
        spectrum_oracle(big, ScalarField.constant(big, 0.0), 1)


def test_dense_cap_enforced():
    # a grid of DENSE_CAP points is served: see the 4096-point gap test below
    over = make_circle_grid(1.0, DENSE_CAP + 1)
    with pytest.raises(ValueError, match="capped"):
        spectrum_oracle(over, ScalarField.constant(over, 0.0), 1)


def test_torus_ground_state_positive():
    g = make_torus_grid([(2 * np.pi, 16), (2 * np.pi, 16)])
    beta = ScalarField.from_function(g, lambda x, y: np.cos(x) + 0.5 * np.sin(y))
    r = ground_state(g, beta)
    assert r.e0.min() > 0.0
    dense = spectrum_oracle(g, beta, 1)
    assert abs(r.lambda0 - dense[0]) < 1e-10


def _relative_gap_error(grid, beta):
    r = ground_state(grid, beta)
    lo = spectrum_oracle(grid, beta, 2)
    return abs(r.gap - (lo[1] - lo[0])) / (lo[1] - lo[0])


@pytest.mark.parametrize(
    "beta_fn",
    [
        lambda x, y: -0.1 + 0.05 * np.cos(x) * np.cos(y),
        # lambda1..lambda4 form a cluster within 2% of each other
        lambda x, y: -0.1 + 0.05 * np.cos(x) + 0.02 * np.sin(2 * y),
        # an exactly 4-fold degenerate lambda1
        lambda x, y: -0.1,
    ],
    ids=["cos-x-cos-y", "four-level-cluster", "constant"],
)
def test_square_torus_gap_matches_dense_oracle(beta_fn):
    g = make_torus_grid([(TWO_PI, 32), (TWO_PI, 32)])
    assert _relative_gap_error(g, ScalarField.from_function(g, beta_fn)) < 1e-9


@pytest.mark.parametrize("dims", [[(TWO_PI, 4)], [(TWO_PI, 4)] * 3], ids=["4", "4x4x4"])
def test_gap_on_exhausted_krylov_space(dims):
    g = make_torus_grid(dims)
    for amp in (0.0, 0.3):
        beta = ScalarField.from_function(g, lambda x, *_: -0.1 + amp * np.cos(x))
        assert _relative_gap_error(g, beta) < 1e-9


def _cos_beta(grid, amp):
    return ScalarField.from_function(grid, lambda x: -0.1 + amp * np.cos(x))


@pytest.mark.parametrize("amp", [0.0, 0.05])
def test_large_circle_matches_dense_oracle(amp):
    g = make_circle_grid(TWO_PI, 4096)
    beta = _cos_beta(g, amp)
    r = ground_state(g, beta)
    lo = spectrum_oracle(g, beta, 2)
    assert abs(r.lambda0 - lo[0]) < 1e-9 * max(1.0, abs(lo[0]))
    assert abs(r.gap - (lo[1] - lo[0])) < 1e-9 * (lo[1] - lo[0])


@pytest.mark.parametrize("amp", [0.0, 0.05])
def test_finest_circle_within_budget(amp):
    # the eigen-residual floor of applying L grows as 4/h^2; a residual
    # target below it would keep the eigen-solver from ever accepting e0 here
    g = make_circle_grid(TWO_PI, 16384)
    start = time.perf_counter()
    r = ground_state(g, _cos_beta(g, amp))
    assert time.perf_counter() - start < 3.0
    assert r.e0.min() > 0.0
    if amp == 0.0:
        h = g.spacings[0]
        assert abs(r.lambda0 - 0.1) < 1e-9
        assert abs(r.gap - (4.0 / h**2) * np.sin(h / 2.0) ** 2) < 1e-9


def test_gap_spends_few_solves(solve_count):
    g = make_torus_grid([(TWO_PI, 32), (TWO_PI, 32)])
    beta = ScalarField.from_function(g, lambda x, y: -0.1 + 0.03 * np.cos(x))
    ground_state(g, beta)
    # one solve per Lanczos step and one per e0 candidate, and the gap comes
    # from the same run's second Ritz value: pair and gap within the 20
    # solves that inverse iteration (7) and a separate gap run (13) took
    assert solve_count[0] <= 20


@pytest.mark.parametrize(
    "beta_fn, shape",
    [
        (lambda x, y: -0.1 + 0.03 * np.cos(x), (32, 32)),
        (lambda x, y: -0.1 + 0.03 * np.cos(y), (32, 32)),
        (lambda x, y: -0.1 + 0.03 * np.cos(x) * np.cos(y), (1024, 1024)),
    ],
    ids=["cos-x", "cos-y", "cos-x-cos-y"],
)
def test_ground_state_factors_the_grid_of_the_varying_axes(
    factor_count, beta_fn, shape
):
    g = make_torus_grid([(TWO_PI, 32), (TWO_PI, 32)])
    ground_state(g, ScalarField.from_function(g, beta_fn))
    assert factor_count == [shape]


def test_constant_potential_keeps_one_axis(factor_count):
    # no axis varies, yet axis 0 is kept, so the Lanczos run still happens
    g = make_torus_grid([(TWO_PI, 12), (1.0, 8), (3.0, 6)])
    c = -0.25
    r = ground_state(g, ScalarField.constant(g, c))
    assert factor_count == [(12, 12)]
    assert r.iterations >= 1
    assert abs(r.lambda0 + c) <= 1e-9
    lo = spectrum_oracle(g, ScalarField.constant(g, c), 2)
    assert abs(r.gap - (lo[1] - lo[0])) <= 1e-9 * max(1.0, lo[1] - lo[0])


def test_shift_below_lambda0_needs_few_iterations(solve_count):
    # the shift sits within 2*(max(beta) - mean(beta)) of lambda0; one Lanczos
    # run gives lambda0, e0 and the gap within 28 solves, what inverse
    # iteration (7 solves) and a deflated Lanczos run for the gap (21) took
    g = make_torus_grid([(TWO_PI, 32), (TWO_PI, 32)])
    beta = ScalarField.from_function(g, lambda x, y: -0.1 + 0.03 * np.cos(x))
    lam, _, _, _, _, mu = schrodinger._least_eigenpair(g, beta)
    assert solve_count[0] <= 28
    assert mu < spectrum_oracle(g, beta, 1)[0]
    assert lam == pytest.approx(spectrum_oracle(g, beta, 1)[0], abs=1e-10)


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
    reason="np.longdouble is float64 on this platform",
)
@pytest.mark.parametrize("n", [16384, 65536])
def test_lambda0_matches_extended_precision_rayleigh_quotient(n):
    # far past the dense oracle's cap, and far below its 1e-10 floor
    grid = make_circle_grid(TWO_PI, n)
    beta = ScalarField.from_function(grid, lambda x: -0.3 + 0.2 * np.cos(x))
    result = ground_state(grid, beta)
    quotient = rayleigh_quotient_longdouble(grid, beta.values, result.e0.values)
    error = abs(np.longdouble(result.lambda0) - quotient)
    assert error <= 1e-15 * max(1.0, abs(result.lambda0))


@pytest.mark.parametrize("grid, beta", [
    # the stencil's 6.4e301 swamps the shift 0.01: solves come out near 1e-287
    (make_circle_grid(1e-150, 8), lambda x: 0.0 * x),
    # beta = 1e300 cos x: the Rayleigh quotient overflows
    (make_circle_grid(6.28, 8), lambda x: 1e300 * np.cos(x)),
], ids=["fine-spacing", "huge-beta"])
def test_inverse_iteration_fails_at_its_first_non_finite_step(grid, beta):
    # the eigen-solver's first Lanczos step already leaves float range: its
    # vector's squared norm underflows, and the e0 it then forms is not finite
    with pytest.raises(ConvergenceError, match=r"at step 1$") as err:
        ground_state(grid, ScalarField.from_function(grid, beta))
    assert not np.isfinite(err.value.residual)


def test_top_ritz_fails_typed_on_non_finite_entries():
    diag = np.array([1.0, np.nan, 2.0])
    with pytest.raises(ConvergenceError, match="LAPACK info="):
        schrodinger._top_ritz(diag, np.array([0.5, 0.5]))


def test_start_vector_is_shared_and_read_only():
    q = schrodinger._start_vector(32)
    assert schrodinger._start_vector(32) is q
    assert not q.flags.writeable
    with pytest.raises(ValueError):
        q[0] = 0.0
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)


def test_alternating_grid_sizes_repeat_their_bytes(monkeypatch):
    # the start vector of each size is drawn once and reused unchanged
    seeded = []
    random_state = np.random.RandomState

    def counting(seed):
        seeded.append(seed)
        return random_state(seed)

    schrodinger._start_vector.cache_clear()
    monkeypatch.setattr(np.random, "RandomState", counting)
    problems = []
    for n in (48, 40):
        g = make_circle_grid(TWO_PI, n)
        beta = ScalarField.from_function(g, lambda x: np.cos(x) + 0.3 * np.sin(2 * x))
        problems.append((g, beta))
    first = [ground_state(*problem) for problem in problems]
    for _ in range(2):
        for problem, expected in zip(problems, first):
            result = ground_state(*problem)
            assert result.lambda0 == expected.lambda0
            assert result.gap == expected.gap
            assert result.e0.values.tobytes() == expected.e0.values.tobytes()
    assert seeded == [12345, 12345]
