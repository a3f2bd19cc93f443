import numpy as np
import pytest

from groundflow import (
    ScalarField,
    TwistedProduct,
    conformal_change_residual,
    field_to_csv,
    ground_state,
    ground_state_warp,
    make_circle_grid,
    make_torus_grid,
    mixed_scalar_curvature,
    scaled_mixed_curvature,
)
from groundflow.grid import laplacian_values


def product_fields(n_base, n_fiber, fn):
    base = make_circle_grid(2 * np.pi, n_base)
    fiber = make_circle_grid(2 * np.pi, n_fiber)
    product = make_torus_grid(base.dims + fiber.dims)
    x, y = product.meshgrid()
    return base, fiber, product, ScalarField(product, fn(x, y).ravel())


# ------------------------------------------------------------- twisted smix


def test_flat_product_has_zero_curvature():
    base, fiber, product, ones = product_fields(16, 16, lambda x, y: 1.0 + 0 * x)
    tp = TwistedProduct(base, fiber, ones, ones)
    assert np.max(np.abs(mixed_scalar_curvature(tp).values)) == 0.0


def test_base_warp_matches_analytic_curvature():
    errs = []
    for n in (32, 64, 128):
        base, fiber, product, u = product_fields(n, 8, lambda x, y: 2.0 + np.sin(x))
        ones = ScalarField.constant(product, 1.0)
        got = mixed_scalar_curvature(TwistedProduct(base, fiber, ones, u)).values
        x, _ = product.meshgrid()
        exact = (np.sin(x) / (2.0 + np.sin(x))).ravel()
        errs.append(np.max(np.abs(got - exact)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6
    assert 3.4 <= errs[1] / errs[2] <= 4.6


def test_fiber_warp_matches_analytic_curvature():
    errs = []
    for n in (32, 64):
        base, fiber, product, v = product_fields(8, n, lambda x, y: 2.0 + np.cos(y))
        ones = ScalarField.constant(product, 1.0)
        got = mixed_scalar_curvature(TwistedProduct(base, fiber, v, ones)).values
        _, y = product.meshgrid()
        exact = (np.cos(y) / (2.0 + np.cos(y))).ravel()
        errs.append(np.max(np.abs(got - exact)))
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_swap_symmetry():
    base, fiber, product, v = product_fields(24, 16, lambda x, y: 2.0 + 0.3 * np.cos(y))
    x, _ = product.meshgrid()
    u = ScalarField(product, (1.5 + 0.4 * np.sin(x)).ravel())
    s = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u)).values

    # swap the roles of the factors: fields transpose onto the new layout
    swapped_product = make_torus_grid(fiber.dims + base.dims)
    v_t = ScalarField(
        swapped_product, v.values.reshape(24, 16).T.ravel()
    )
    u_t = ScalarField(
        swapped_product, u.values.reshape(24, 16).T.ravel()
    )
    s_swapped = mixed_scalar_curvature(
        TwistedProduct(fiber, base, u_t, v_t)
    ).values
    assert np.max(np.abs(s_swapped.reshape(16, 24).T.ravel() - s)) < 1e-12


def test_twisted_requires_positive_warps():
    base, fiber, product, v = product_fields(8, 8, lambda x, y: 1.0 + 0 * x)
    with pytest.raises(ValueError):
        TwistedProduct(base, fiber, ScalarField.constant(product, -1.0), v)
    tp = TwistedProduct(base, fiber, v)
    with pytest.raises(ValueError):
        mixed_scalar_curvature(tp)


# ------------------------------------------------------------- ground state


def test_warp_trivial_when_v_constant():
    base, fiber, product, v = product_fields(16, 16, lambda x, y: 1.0 + 0 * x)
    u, leaf_smix = ground_state_warp(TwistedProduct(base, fiber, v))
    assert np.max(np.abs(leaf_smix)) < 1e-10
    assert np.max(np.abs(u.values - u.values[0])) < 1e-10
    smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u))
    assert np.max(np.abs(smix.values)) < 1e-9


def test_warp_fiber_only_v_gives_leafwise_constant_potentials():
    base, fiber, product, v = product_fields(32, 32, lambda x, y: 2.0 + np.cos(y))
    tp = TwistedProduct(base, fiber, v)
    u, leaf_smix = ground_state_warp(tp)
    smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u))
    per_leaf = smix.values.reshape(32, 32)
    # leafwise constancy is exact at the discrete level
    assert np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)) < 1e-10
    assert np.max(np.abs(per_leaf[0] - leaf_smix)) < 1e-10
    # each leaf potential is the constant v''/v frozen at that fiber point,
    # so the curvature converges to cos(y)/(2+cos(y)) at second order
    y = fiber.coords()[0]
    exact = np.cos(y) / (2.0 + np.cos(y))
    err32 = np.max(np.abs(leaf_smix - exact))

    base2, fiber2, product2, v2 = product_fields(32, 64, lambda x, y: 2.0 + np.cos(y))
    _, leaf_smix2 = ground_state_warp(TwistedProduct(base2, fiber2, v2))
    y2 = fiber2.coords()[0]
    err64 = np.max(np.abs(leaf_smix2 - np.cos(y2) / (2.0 + np.cos(y2))))
    assert 3.4 <= err32 / err64 <= 4.6


def test_warp_leaves_equal_ground_state_bitwise():
    # the warp ignores the gap but must give each leaf exactly the
    # eigenpair that ground_state reports for the same potential
    base, fiber, product, v = product_fields(
        16, 8, lambda x, y: 2.0 + 0.5 * np.sin(x) * np.cos(y)
    )
    tp = TwistedProduct(base, fiber, v)
    u, leaf_smix = ground_state_warp(tp)
    beta = laplacian_values(product, v.values, axes=tp.fiber_axes) / v.values
    beta = (tp.p / tp.n) * beta
    u_leaves = u.values.reshape(16, 8)
    for j, beta_leaf in enumerate(beta.reshape(16, 8).T):
        spectral = ground_state(base, ScalarField(base, beta_leaf))
        assert np.array_equal(u_leaves[:, j], spectral.e0.values)
        assert leaf_smix[j] == tp.n * spectral.lambda0


def test_warp_factors_once_per_distinct_leaf_operator(factor_count):
    # a fiber-only v freezes a constant potential on every leaf, whose
    # ground state is exact, so no leaf needs a factor
    base, fiber, _, v = product_fields(32, 16, lambda x, y: 2.0 + np.cos(y))
    ground_state_warp(TwistedProduct(base, fiber, v))
    assert len(factor_count) == 0
    # with v depending on both factors every leaf builds its own factor
    factor_count.clear()
    base, fiber, _, v = product_fields(
        32, 16, lambda x, y: 2.0 + 0.5 * np.sin(x) * np.cos(y)
    )
    ground_state_warp(TwistedProduct(base, fiber, v))
    assert len(factor_count) == 16


def test_warp_constant_leaves_get_the_exact_ground_state():
    base, fiber, product, v = product_fields(32, 16, lambda x, y: 2.0 + np.cos(y))
    tp = TwistedProduct(base, fiber, v)
    u, leaf_smix = ground_state_warp(tp)
    beta = (tp.p / tp.n) * laplacian_values(product, v.values, axes=tp.fiber_axes)
    beta = (beta / v.values).reshape(32, 16)
    assert np.all(beta.min(axis=0) == beta.max(axis=0))
    c = beta[0]
    assert np.array_equal(leaf_smix, -tp.n * c)
    smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u))
    per_leaf = smix.values.reshape(32, 16)
    assert np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)) == 0.0
    for j in (0, 5, 8):
        spectral = ground_state(base, ScalarField.constant(base, c[j]))
        lam = leaf_smix[j] / tp.n
        assert abs(lam - spectral.lambda0) <= 1e-15 * max(1.0, abs(spectral.lambda0))
        assert np.max(np.abs(u.values.reshape(32, 16)[:, j] - spectral.e0.values)) <= 1e-14


def test_warp_two_dimensional_base():
    base = make_torus_grid([(2 * np.pi, 8), (2 * np.pi, 8)])
    fiber = make_circle_grid(2 * np.pi, 4)
    product = make_torus_grid(base.dims + fiber.dims)
    mesh = product.meshgrid()
    v = ScalarField(product, (2.0 + 0.5 * np.cos(mesh[2])).ravel())
    u, leaf_smix = ground_state_warp(TwistedProduct(base, fiber, v))
    assert u.min() > 0.0
    smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u))
    per_leaf = smix.values.reshape(base.total_points, fiber.total_points)
    assert np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)) < 1e-8
    assert np.max(np.abs(per_leaf[0] - leaf_smix)) < 1e-8


def test_warp_mixed_v_leafwise_oscillation_small():
    for n in (16, 32):
        base, fiber, product, v = product_fields(
            n, n, lambda x, y: 2.0 + 0.5 * np.sin(x) * np.cos(y)
        )
        u, leaf_smix = ground_state_warp(TwistedProduct(base, fiber, v))
        assert u.min() > 0.0
        smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u))
        per_leaf = smix.values.reshape(n, n)
        osc = np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0))
        # discretely exact construction: oscillation sits at rounding level,
        # far below any h^2 envelope
        assert osc < 1e-9
        assert np.max(np.abs(per_leaf[0] - leaf_smix)) < 1e-9


def test_warp_leaves_take_few_solves(solve_count):
    # a v that is not separable gives every leaf its own potential, and each
    # leaf's ground state is one Lanczos run on its own factor
    base, fiber, product, v = product_fields(
        64, 16, lambda x, y: 2.0 + np.cos(x + y) + 0.3 * np.sin(2 * y)
    )
    u, leaf_smix = ground_state_warp(TwistedProduct(base, fiber, v))
    assert solve_count[0] <= 20 * 16
    smix = mixed_scalar_curvature(TwistedProduct(base, fiber, v, u))
    per_leaf = smix.values.reshape(64, 16)
    assert np.max(per_leaf.max(axis=0) - per_leaf.min(axis=0)) <= 1e-11
    assert np.max(np.abs(per_leaf[0] - leaf_smix)) <= 1e-11


# ------------------------------------------------------------- scaling law


def test_scaling_identities():
    assert scaled_mixed_curvature(5.0, 2.0, 3.0, 1.0) == 5.0
    assert scaled_mixed_curvature(5.0, 0.0, 0.0, 7.3) == 5.0
    assert scaled_mixed_curvature(5.0, 2.0, 3.0, 2.0) == 3.6875
    with pytest.raises(ValueError):
        scaled_mixed_curvature(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        scaled_mixed_curvature(1.0, -1.0, 0.0, 1.0)


def test_constant_scaling_consistent_with_transformation_law():
    rng = np.random.RandomState(40)
    g = make_torus_grid([(2 * np.pi, 12), (2 * np.pi, 10)])
    for _ in range(10):
        s = rng.uniform(-3, 3)
        h_sq = rng.uniform(0, 2)
        t_sq = rng.uniform(0, 2)
        u_c = rng.uniform(0.3, 2.5)
        s_tilde = scaled_mixed_curvature(s, h_sq, t_sq, u_c)
        res = conformal_change_residual(
            ScalarField.constant(g, s),
            ScalarField.constant(g, s_tilde),
            ScalarField.constant(g, u_c),
            ScalarField.constant(g, h_sq),
            ScalarField.constant(g, t_sq),
            g,
        )
        assert res <= 1e-12


# ------------------------------------------------------- transformation law


def test_conformal_residual_collapses_at_unit_warp():
    rng = np.random.RandomState(41)
    g = make_torus_grid([(2 * np.pi, 8), (2 * np.pi, 8)])
    s = ScalarField(g, rng.standard_normal(g.total_points))
    s_tilde = ScalarField(g, rng.standard_normal(g.total_points))
    res = conformal_change_residual(
        s, s_tilde, ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 0.7), ScalarField.constant(g, 0.4), g,
    )
    assert abs(res - np.max(np.abs(s.values - s_tilde.values))) < 1e-12


def test_doubly_warped_consistency_with_transformation_law():
    errs = []
    for n in (32, 64):
        base, fiber, product, u = product_fields(n, 8, lambda x, y: 2.0 + np.sin(x))
        ones = ScalarField.constant(product, 1.0)
        zeros = ScalarField.constant(product, 0.0)
        s_tilde = mixed_scalar_curvature(TwistedProduct(base, fiber, ones, u))
        # the warped metric's curvature against the flat start
        res = conformal_change_residual(
            ScalarField.constant(product, 0.0), s_tilde, u, zeros, zeros, product,
            n_normal=1, leaf_axes=(0,),
        )
        errs.append(res)
    # the discrete law matches the discrete curvature identically here
    assert errs[0] < 1e-11 and errs[1] < 1e-11


def test_eigen_warp_consistency_with_transformation_law():
    base, fiber, product, v = product_fields(32, 16, lambda x, y: 2.0 + np.cos(y))
    tp = TwistedProduct(base, fiber, v)
    u, leaf_smix = ground_state_warp(tp)
    ones = ScalarField.constant(product, 1.0)
    zeros = ScalarField.constant(product, 0.0)
    s_unwarped = mixed_scalar_curvature(TwistedProduct(base, fiber, v, ones))
    s_tilde = ScalarField(
        product,
        np.broadcast_to(
            leaf_smix[None, :], (base.total_points, fiber.total_points)
        ).ravel(),
    )
    res = conformal_change_residual(
        s_unwarped, s_tilde, u, zeros, zeros, product, n_normal=1, leaf_axes=(0,)
    )
    assert res < 1e-9


def test_field_csv(tmp_path):
    g = make_torus_grid([(1.0, 4), (1.0, 4)])
    f = ScalarField.constant(g, 2.5)
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,value"
    assert len(lines) == 17
    assert lines[1].split(",") == ["0.0", "0.0", "2.5"]


@pytest.mark.parametrize(
    "dims",
    [
        [(2 * np.pi, 7)],
        [(2 * np.pi, 5), (1.3, 4)],
        [(1.0, 5), (2 * np.pi, 4), (0.7, 6)],
    ],
    ids=["1d", "2d", "3d"],
)
def test_field_csv_rows_match_meshgrid(tmp_path, dims):
    g = make_torus_grid(dims)
    f = ScalarField(g, np.random.RandomState(17).standard_normal(g.total_points))
    path = tmp_path / "field.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(f"x{d}" for d in range(g.ndim)) + ",value"
    assert len(lines) == g.total_points + 1
    mesh = [m.ravel() for m in g.meshgrid()]
    for i, line in enumerate(lines[1:]):
        point = [float(m[i]) for m in mesh] + [float(f.values[i])]
        assert line.split(",") == [repr(x) for x in point]
