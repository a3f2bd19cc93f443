"""Property tests on drawn potentials and problems.

Ground states on small circles and tori are checked against the dense
``spectrum_oracle``, Newton's stationary solution against the heat flow's
attractor, and the flow's ordering and certificates on random ordered
pairs.  Examples come from the derandomized profile loaded in
``conftest.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groundflow import (
    AdmissibilityError,
    ScalarField,
    build_problem,
    certify_exponential_bound,
    certify_sandwich,
    comparison_principle_test,
    evolve_to_attractor,
    ground_state,
    make_circle_grid,
    make_torus_grid,
    schrodinger,
    spectrum_oracle,
)
from groundflow.heatflow import _newton_stationary

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


def _check_against_oracle(g, beta):
    lo = spectrum_oracle(g, beta, 2)
    lam, _, _, _, _, mu = schrodinger._least_eigenpair(g, beta, 1e-8)
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
            tol=tol,
        )
    except AdmissibilityError:
        assume(False)
    mid = 0.5 * (p.profile_minus.y1 + p.profile_plus.y1) * p.e0.values
    flow, _ = evolve_to_attractor(ScalarField(g, mid), p, tol=tol)
    u = _newton_stationary(mid, p, tol)
    assert np.max(np.abs(u.values - flow.values)) <= 10.0 * tol


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
