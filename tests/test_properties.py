"""Property tests on drawn potentials and problems.

Ground states on small circles and tori, among them tori whose potential
is constant along some axes, are checked against the dense
``spectrum_oracle``, the Lanczos run's top Ritz pairs against
``scipy.linalg.eigh_tridiagonal`` bit for bit, Newton's stationary solution
against the heat flow's attractor and, on tori with one-axis data, its
reduced root against a root found on the full grid, the flow's
ordering, order cap and certificates on random ordered pairs, the decay
rate's closed form against its sampled oracle, the profile's landmark
order at marginal discriminants, and the CSV block formatter against
``repr`` on drawn float64 bit patterns.
Examples come from the derandomized profile loaded in ``conftest.py``.
"""

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groundflow import (
    AdmissibilityError,
    ScalarField,
    build_problem,
    certify_exponential_bound,
    certify_sandwich,
    comparison_principle_test,
    decay_rate_mu,
    evolve_to_attractor,
    ground_state,
    make_circle_grid,
    make_profile,
    make_torus_grid,
    schrodinger,
    spectrum_oracle,
)
from groundflow._table import _format
from groundflow.grid import _restriction
from groundflow.heatflow import _march, _newton_stationary

from oracles import sampled_decay_rate

TWO_PI = 2 * np.pi
_amplitude = st.floats(-1.0, 1.0)


@st.composite
def _circle_potential(draw):
    length = draw(st.floats(1.0, 2 * TWO_PI))
    g = make_circle_grid(length, draw(st.sampled_from([8, 16, 33, 64])))
    x = TWO_PI * g.coords()[0] / length
    c = draw(_amplitude)
    kind = draw(st.sampled_from(["constant", "trig", "rough"]))
    if kind == "constant":
        values = np.full(g.total_points, c)
    elif kind == "trig":
        values = c + sum(
            draw(_amplitude) * np.cos(k * x) + draw(_amplitude) * np.sin(k * x)
            for k in (1, 2)
        )
    else:
        values = np.array(draw(st.lists(_amplitude, min_size=g.total_points,
                                        max_size=g.total_points)))
    return g, ScalarField(g, values)


@st.composite
def _torus_potential(draw):
    if draw(st.booleans()):
        # square torus, where cos x cos y leaves lambda1 nearly degenerate
        n = draw(st.sampled_from([8, 12, 16]))
        g = make_torus_grid([(TWO_PI, n), (TWO_PI, n)])
        c, a = draw(_amplitude), draw(_amplitude)
        return g, ScalarField.from_function(
            g, lambda x, y: c + a * np.cos(x) * np.cos(y)
        )
    dims = [(draw(st.floats(1.0, 2 * TWO_PI)), draw(st.sampled_from([4, 8, 12])))
            for _ in range(2)]
    g = make_torus_grid(dims)
    c, a, b = draw(_amplitude), draw(_amplitude), draw(_amplitude)
    if draw(st.booleans()):
        a = b = 0.0  # constant beta: lambda0 = -beta exactly
    (lx, _), (ly, _) = dims
    return g, ScalarField.from_function(
        g, lambda x, y: c + a * np.cos(TWO_PI * x / lx) + b * np.sin(TWO_PI * y / ly)
    )


def _reduced(g, beta):
    """The grid of the axes along which beta varies (axis 0 if none) and beta
    sliced at index 0 of the others: the problem ``ground_state`` solves."""
    values = beta.values.reshape(g.shape)
    kept = [ax for ax in range(g.ndim)
            if np.any(values != np.take(values, [0], axis=ax))] or [0]
    if len(kept) == g.ndim:
        return g, beta
    sub = make_torus_grid([g.dims[ax] for ax in kept])
    index = tuple(slice(None) if ax in kept else 0 for ax in range(g.ndim))
    return sub, ScalarField(sub, values[index])


def _check_against_oracle(g, beta):
    lo = spectrum_oracle(g, beta, 2)
    lam, _, _, _, _, mu = schrodinger._least_eigenpair(*_reduced(g, beta))
    assert mu < lo[0]
    r = ground_state(g, beta)
    assert r.lambda0 == lam
    assert abs(r.lambda0 - lo[0]) <= 1e-9 * max(1.0, abs(lo[0]))
    gap = lo[1] - lo[0]
    assert abs(r.gap - gap) <= 1e-9 * max(1.0, gap)


@given(_circle_potential())
def test_circle_ground_state_matches_oracle(drawn):
    _check_against_oracle(*drawn)


@given(_torus_potential())
def test_torus_ground_state_matches_oracle(drawn):
    _check_against_oracle(*drawn)


@st.composite
def _reducible_torus_potential(draw):
    """A 2-d or 3-d torus and a potential varying along a strict subset of
    its axes.  Kept axes are 2 to 4pi long; the dropped ones are all long
    (20 to 40), which puts their least level nu of -L below the reduced gap,
    or all short (0.3 to 1), which puts it above."""
    ndim = draw(st.sampled_from([2, 3]))
    varying = draw(st.sets(st.integers(0, ndim - 1), max_size=ndim - 1))
    kept = varying or {0}
    long_dropped = draw(st.booleans())
    dropped_length = st.floats(20.0, 40.0) if long_dropped else st.floats(0.3, 1.0)
    dims = [(draw(st.floats(2.0, 2 * TWO_PI) if ax in kept else dropped_length),
             draw(st.integers(4, 12))) for ax in range(ndim)]
    g = make_torus_grid(dims)
    values = np.full(g.shape, draw(_amplitude))
    for ax, x in enumerate(g.meshgrid()):
        if ax in varying:
            phase = TWO_PI * x / dims[ax][0]
            values += draw(_amplitude) * np.cos(phase) + draw(_amplitude) * np.sin(2 * phase)
    return g, ScalarField(g, values), sorted(set(range(ndim)) - kept), long_dropped


@settings(max_examples=12)
@given(_reducible_torus_potential())
def test_reducible_torus_ground_state_matches_oracle(drawn):
    g, beta, dropped, long_dropped = drawn
    sub, sub_beta = _reduced(g, beta)
    r = ground_state(g, beta)
    lo = spectrum_oracle(g, beta, 2)
    assert abs(r.lambda0 - lo[0]) <= 1e-9 * max(1.0, abs(lo[0]))
    gap = lo[1] - lo[0]
    assert abs(r.gap - gap) <= 1e-9 * max(1.0, gap)
    # both branches of lambda1 = min(reduced lambda1, lambda0 + nu)
    reduced_lo = spectrum_oracle(sub, sub_beta, 2)
    nu = min(4.0 / g.spacings[ax] ** 2 * np.sin(np.pi / g.points[ax]) ** 2
             for ax in dropped)
    assert (nu < reduced_lo[1] - reduced_lo[0]) == long_dropped
    e0 = r.e0.values
    assert e0.min() > 0.0
    assert abs(np.sqrt(g.cell_volume * np.dot(e0, e0)) - 1.0) < 1e-12
    e0 = e0.reshape(g.shape)
    for ax in dropped:
        assert np.array_equal(e0, np.broadcast_to(np.take(e0, [0], axis=ax), g.shape))


@settings(max_examples=8)
@given(
    points=st.sampled_from([16, 32, 64]),
    decay=st.floats(0.05, 0.2),
    wobble=st.floats(0.0, 0.5),
    psi1_wobble=st.floats(0.0, 0.3),
    psi2=st.floats(0.0, 0.5),
)
def test_newton_matches_flow_on_admissible_circles(
    points, decay, wobble, psi1_wobble, psi2
):
    g = make_circle_grid(TWO_PI, points)
    tol = 1e-9
    try:
        p = build_problem(
            g,
            ScalarField.from_function(g, lambda x: -decay * (1.0 + wobble * np.cos(x))),
            ScalarField.from_function(g, lambda x: 1.0 + psi1_wobble * np.sin(x)),
            ScalarField.constant(g, psi2),
        )
    except AdmissibilityError:
        assume(False)
    mid = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1) * p.e0.values
    flow, _ = evolve_to_attractor(ScalarField(g, mid), p, tol=tol)
    u = _newton_stationary(mid, p, tol)
    assert np.max(np.abs(u.values - flow.values)) <= 10.0 * tol


@given(
    st.integers(2, 300).flatmap(lambda k: st.tuples(
        hnp.arrays(float, k, elements=st.floats(-1e6, 1e6)),
        hnp.arrays(float, k - 1, elements=st.floats(-1e6, 1e6)),
    ))
)
def test_top_ritz_equals_eigh_tridiagonal_bitwise(tridiagonal):
    diag, offdiag = tridiagonal
    k = diag.size
    theta, vectors = schrodinger._top_ritz(diag, offdiag)
    expected = scipy.linalg.eigh_tridiagonal(
        diag, offdiag, select="i", select_range=(k - 2, k - 1)
    )
    assert np.array_equal(theta, expected[0])
    assert np.array_equal(vectors, expected[1])


@st.composite
def _one_axis_torus_problem(draw):
    """An admissible 2-d or 3-d torus problem whose beta, psi1 and psi2 vary
    along one axis only."""
    ndim = draw(st.sampled_from([2, 3]))
    points = draw(st.lists(
        st.integers(4, 16 if ndim == 2 else 7), min_size=ndim, max_size=ndim
    ))
    lengths = draw(st.lists(st.floats(4.0, 8.0), min_size=ndim, max_size=ndim))
    g = make_torus_grid(list(zip(lengths, points)))
    axis = draw(st.integers(0, ndim - 1))
    wobble = draw(st.floats(0.01, 0.05))
    psi1_wobble, psi2_wobble = draw(st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)))
    phase = 2 * np.pi * g.meshgrid()[axis] / lengths[axis]
    fields = [
        ScalarField(g, (-0.1 + wobble * np.cos(phase)).ravel()),
        ScalarField(g, (1.0 + psi1_wobble * np.sin(phase)).ravel()),
        ScalarField(g, (1.0 + psi2_wobble * np.cos(2 * phase)).ravel()),
    ]
    try:
        p = build_problem(g, *fields)
    except AdmissibilityError:
        assume(False)
    return p, axis


@settings(max_examples=10, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_one_axis_torus_problem())
def test_reduced_newton_root_matches_full_grid_root(factor_count, drawn):
    p, axis = drawn
    g, tol = p.grid, 1e-9
    y1m, y1p = p.profile_minus.y1, p.profile_plus.y1
    mid = 0.5 * (y1m + y1p)
    restriction = _restriction(
        g, p.beta.values, p.psi1.values, p.psi2.values, p.e0.values
    )
    assert restriction.kept == (axis,)
    sub_points = g.points[axis]
    factor_count.clear()
    u = _newton_stationary(mid * p.e0.values, p, tol)
    assert factor_count
    assert set(factor_count) == {(sub_points, sub_points)}
    # a start inside the sandwich that varies along every other axis keeps
    # them all: this Newton runs on the full grid
    wiggle = sum(np.cos(x) for ax, x in enumerate(g.meshgrid()) if ax != axis)
    ratio = mid + 0.25 * (y1p - y1m) * wiggle.ravel() / (g.ndim - 1)
    factor_count.clear()
    full = _newton_stationary(ratio * p.e0.values, p, tol)
    n = g.total_points
    assert factor_count
    assert set(factor_count) == {(n, n)}
    assert np.max(np.abs(u.values - full.values)) <= 1e-12 * np.max(full.values)
    # the reduced root is constant along the dropped axes
    assert np.array_equal(u.values, restriction.lift(restriction.restrict(u.values)))


@st.composite
def _ordered_pair_problem(draw):
    """An admissible circle problem and fields lo <= hi in its basin.

    Small decay rates and large psi1 make 0.1/lambda0 long against the
    reaction's own time scale; the fields reach down towards y3, where the
    explicit reaction map is steepest.
    """
    g = make_circle_grid(TWO_PI, draw(st.sampled_from([32, 64, 128])))
    decay = draw(st.floats(0.02, 0.2))
    wobble = draw(st.floats(0.0, 0.5))
    phase = draw(st.floats(0.0, TWO_PI))
    psi1_scale = draw(st.floats(0.5, 2.0))
    psi1_wobble = draw(st.floats(0.0, 0.3))
    psi2 = draw(st.floats(0.0, 0.5))
    try:
        p = build_problem(
            g,
            ScalarField.from_function(
                g, lambda x: -decay * (1.0 + wobble * np.cos(x + phase))
            ),
            ScalarField.from_function(
                g, lambda x: psi1_scale * (1.0 + psi1_wobble * np.sin(x))
            ),
            ScalarField.constant(g, psi2),
        )
    except AdmissibilityError:
        assume(False)
    y3 = p.profile_minus.y3 or 0.0
    top = p.profile_plus.y1 + 1.0
    x = g.coords()[0]

    def ratio_field(floor):
        # floor <= ratio <= top, a constant plus a sine bump
        c = floor + draw(st.floats(0.0, 1.0)) * (top - floor)
        a = draw(st.floats(0.0, 0.5)) * min(c - floor, top - c)
        return c + a * np.sin(x + draw(st.floats(0.0, TWO_PI)))

    lo_ratio = ratio_field(y3 + 0.02 * (p.profile_minus.y1 - y3))
    hi_ratio = np.maximum(lo_ratio, ratio_field(y3 + 0.02 * (top - y3)))
    e0 = p.e0.values
    return p, ScalarField(g, lo_ratio * e0), ScalarField(g, hi_ratio * e0)


@settings(max_examples=30)
@given(_ordered_pair_problem())
def test_flow_keeps_order_and_certifies_on_random_pairs(drawn):
    p, lo, hi = drawn
    rep = comparison_principle_test(hi, lo, p, T=30.0)
    assert rep.passed, rep
    y1m = p.profile_minus.y1
    y3 = p.profile_minus.y3 or 0.0
    # the shrunken basin's epsilon that admits lo (still below y1 - y3)
    eps = max(y1m - float(np.min(p.ratio(lo))), 0.5 * (y1m - y3))
    u_star, trace = evolve_to_attractor(lo, p, tol=1e-9)
    assert certify_sandwich(u_star, p, tol_h=1e-6).passed
    assert certify_exponential_bound(trace, p, eps).passed


def _reaction_slope_max(p, states):
    """max of g(u) = psi1/u**2 - 3*psi2/u**4 over the pointwise hull of the
    states: g is the concave psi1*s - 3*psi2*s**2 in s = 1/u**2, so the max
    is at an end of [1/hi**2, 1/lo**2] or at the peak psi1/(6*psi2)."""
    psi1, psi2 = p.psi1.values, p.psi2.values
    s_lo = 1.0 / np.maximum.reduce(states) ** 2
    s_hi = 1.0 / np.minimum.reduce(states) ** 2
    ends = np.maximum(psi1 * s_lo - 3.0 * psi2 * s_lo**2,
                      psi1 * s_hi - 3.0 * psi2 * s_hi**2)
    at_peak = (6.0 * psi2 * s_lo <= psi1) & (psi1 <= 6.0 * psi2 * s_hi)
    peak = np.divide(psi1**2, 12.0 * psi2, out=np.full_like(psi1, -np.inf),
                     where=at_peak)
    return float(np.max(np.maximum(ends, peak)))


@settings(max_examples=30)
@given(_ordered_pair_problem())
def test_every_flow_step_keeps_the_order_cap(drawn):
    # the explicit reaction map preserves order while dt*max g <= 1; the
    # schedule caps the first step so, and must not break it by doubling
    p, lo, hi = drawn
    states = [hi.values, lo.values]
    for _, after, dt_used in _march(p, states, 30.0):
        assert dt_used * _reaction_slope_max(p, states) <= 1.0 + 1e-12
        states = after


@given(
    lam=st.floats(0.02, 1.5),
    A=st.floats(0.2, 5.0),
    # B as a share of the admissibility bound A^2/(4 lambda0); 0 is the
    # monotone profile without y3 and y4
    share=st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
    depth=st.floats(0.0, 0.999),
)
@example(lam=0.1, A=1.0, share=0.0, depth=0.5)
def test_decay_rate_matches_sampled_sup(lam, A, share, depth):
    p = make_profile(lam, A, share * A * A / (4.0 * lam))
    sigma = depth * (p.y1 - (p.y3 or 0.0))
    mu = decay_rate_mu(sigma, p)
    assert abs(sampled_decay_rate(sigma, p) - mu) <= 1e-7 * max(mu, 1e-30)


@given(
    lam=st.floats(0.02, 1.5),
    A=st.floats(0.2, 5.0),
    # the margin A^2 - 4 lambda0 B as a share of A^2, from below an ulp up
    log_share=st.floats(-17.0, -2.0),
)
@example(lam=0.7, A=3.0, log_share=-15.0)
# a bisection of the quartic once put the landmarks out of order here
@example(lam=0.95, A=4.0, log_share=-16.0)
def test_profile_landmarks_ordered_at_marginal_discriminants(lam, A, log_share):
    B = A * A * (1.0 - 10.0**log_share) / (4.0 * lam)
    assume(A * A - 4.0 * lam * B > 0)
    p = make_profile(lam, A, B)
    assert 0.0 < p.y2 < p.y3 < p.y1
    assert p.y3 < p.y4


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_csv_format_matches_repr_on_drawn_bits(bits):
    x = np.array(bits, dtype=np.uint64).view(float)
    assert _format(x) == list(map(repr, x.tolist()))
