import numpy as np
import pytest

from groundflow import (
    ScalarField,
    apply_laplacian,
    laplacian_matrix,
    make_circle_grid,
    make_torus_grid,
)
from groundflow.grid import MIN_POINTS, laplacian_sparse

from oracles import looped_laplacian_matrix


def test_circle_grid_spacing():
    g = make_circle_grid(2 * np.pi, 64)
    assert g.spacings == (2 * np.pi / 64,)
    assert g.total_points == 64


def test_minimal_circle_grid():
    g = make_circle_grid(1.0, 4)
    assert g.points == (4,)
    assert g.spacings == (0.25,)


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        make_circle_grid(2 * np.pi, 3)
    with pytest.raises(ValueError):
        make_circle_grid(0.0, 8)
    with pytest.raises(ValueError):
        make_circle_grid(-1.0, 8)


def test_torus_grid_product_count():
    g = make_torus_grid([(2 * np.pi, 32), (2 * np.pi, 32)])
    assert g.total_points == 1024
    assert g.ndim == 2


def test_torus_degenerates_to_circle():
    assert make_torus_grid([(1.0, 8)]) == make_circle_grid(1.0, 8)


def test_torus_dim_limits():
    with pytest.raises(ValueError):
        make_torus_grid([])
    with pytest.raises(ValueError):
        make_torus_grid([(1.0, 4)] * 4)


def test_field_validation():
    g = make_circle_grid(1.0, 8)
    with pytest.raises(ValueError):
        ScalarField(g, np.ones(7))
    with pytest.raises(ValueError):
        ScalarField(g, np.array([1.0] * 7 + [np.nan]))


def test_laplacian_of_constant_is_zero():
    g = make_torus_grid([(2 * np.pi, 16), (1.0, 8)])
    f = ScalarField.constant(g, 3.7)
    assert np.max(np.abs(apply_laplacian(g, f).values)) == 0.0


@pytest.mark.parametrize("k", [1, 2, 5])
def test_sine_is_stencil_eigenfield(k):
    # eigenvalue -(4/h^2) sin^2(kh/2), cross-checked below against the
    # dense eigendecomposition
    g = make_circle_grid(2 * np.pi, 64)
    h = g.spacings[0]
    f = ScalarField.from_function(g, lambda x: np.sin(k * x))
    lam = -(4.0 / h**2) * np.sin(k * h / 2.0) ** 2
    lap = apply_laplacian(g, f)
    assert np.max(np.abs(lap.values - lam * f.values)) < 1e-11 / h**2

    dense_eigs = np.linalg.eigvalsh(laplacian_matrix(g))
    assert np.min(np.abs(dense_eigs - lam)) < 1e-10


def test_two_torus_separability():
    g = make_torus_grid([(2 * np.pi, 32), (2 * np.pi, 48)])
    f = ScalarField.from_function(g, lambda x, y: np.sin(x) + np.sin(y))
    lams = [-(4.0 / h**2) * np.sin(h / 2.0) ** 2 for h in g.spacings]
    x, y = g.meshgrid()
    expected = lams[0] * np.sin(x) + lams[1] * np.sin(y)
    got = apply_laplacian(g, f).values
    assert np.max(np.abs(got - expected.ravel())) < 1e-11
    # and the dense matrix agrees with the stencil application
    dense = laplacian_matrix(g) @ f.values
    assert np.max(np.abs(dense - got)) < 1e-10


def test_grid_field_mismatch_rejected():
    g1 = make_circle_grid(1.0, 8)
    g2 = make_circle_grid(1.0, 16)
    f = ScalarField.constant(g2, 1.0)
    with pytest.raises(ValueError):
        apply_laplacian(g1, f)


def test_matrix_circulant_rows():
    g = make_circle_grid(4.0, 4)  # h = 1
    m = laplacian_matrix(g)
    assert np.allclose(m[0], [-2.0, 1.0, 0.0, 1.0])
    assert np.allclose(m[2], [0.0, 1.0, -2.0, 1.0])
    assert np.max(np.abs(m.sum(axis=1))) == 0.0


TORI = {
    "anisotropic-torus": make_torus_grid([(2 * np.pi, MIN_POINTS), (3.0, 9)]),
    "torus-3d": make_torus_grid([(2.0, 5), (2 * np.pi, 6), (1.5, 4)]),
}


def test_matrix_matches_looped_assembly():
    for g in (make_circle_grid(2 * np.pi, 24), *TORI.values()):
        assert np.array_equal(laplacian_matrix(g), looped_laplacian_matrix(g))


@pytest.mark.parametrize(
    "name, axes",
    [
        ("anisotropic-torus", (0,)),
        ("anisotropic-torus", (1,)),
        ("torus-3d", (0,)),
        ("torus-3d", (1,)),
        ("torus-3d", (0, 2)),
    ],
    ids=lambda v: "axes" + "".join(map(str, v)) if isinstance(v, tuple) else v,
)
def test_axis_subset_matrix_matches_looped_assembly(name, axes):
    g = TORI[name]
    assert np.array_equal(laplacian_matrix(g, axes), looped_laplacian_matrix(g, axes))


def test_equal_grids_share_one_read_only_laplacian():
    dims = [(2 * np.pi, 6), (3.0, 5)]
    lap = laplacian_sparse(make_torus_grid(dims))
    assert laplacian_sparse(make_torus_grid(dims)) is lap
    # the cache key is (grid, axes), with axes as a tuple of all axes by default
    assert laplacian_sparse(make_torus_grid(dims), [0, 1]) is lap
    leaf = laplacian_sparse(make_torus_grid(dims), (0,))
    assert leaf is not lap
    assert laplacian_sparse(make_torus_grid(dims), [0]) is leaf
    assert (leaf != lap).nnz > 0
    with pytest.raises(ValueError):
        lap.data[0] = 0.0


def test_matrix_vs_stencil_on_random_fields():
    rng = np.random.RandomState(0)
    g = make_torus_grid([(2 * np.pi, 12), (3.0, 10)])
    m = laplacian_matrix(g)
    for _ in range(5):
        f = ScalarField(g, rng.standard_normal(g.total_points))
        got = apply_laplacian(g, f).values
        # summation order differs between the kron rows and the axis rolls,
        # so agreement is at rounding level rather than bitwise
        assert np.max(np.abs(m @ f.values - got)) <= 1e-12 * max(
            1.0, np.max(np.abs(got))
        )


def test_dense_cap_enforced():
    g = make_torus_grid([(1.0, 70), (1.0, 70)])
    with pytest.raises(ValueError):
        laplacian_matrix(g)


def test_linearity():
    rng = np.random.RandomState(1)
    g = make_circle_grid(2 * np.pi, 40)
    f = rng.standard_normal(40)
    gvals = rng.standard_normal(40)
    alpha = 1.7
    left = apply_laplacian(g, ScalarField(g, alpha * f + gvals)).values
    right = alpha * apply_laplacian(g, ScalarField(g, f)).values + apply_laplacian(
        g, ScalarField(g, gvals)
    ).values
    assert np.max(np.abs(left - right)) < 1e-12 * max(1.0, np.max(np.abs(right)))


def test_symmetry_and_negative_semidefiniteness():
    rng = np.random.RandomState(2)
    g = make_torus_grid([(2 * np.pi, 14), (2.0, 12)])
    for _ in range(20):
        f = rng.standard_normal(g.total_points)
        h = rng.standard_normal(g.total_points)
        lf = apply_laplacian(g, ScalarField(g, f)).values
        lh = apply_laplacian(g, ScalarField(g, h)).values
        lhs = np.dot(lf, h)
        rhs = np.dot(f, lh)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        quad = np.dot(lf, f)
        assert quad <= 1e-10 * np.dot(f, f)


def test_second_order_convergence():
    errors = []
    for n in (32, 64, 128):
        g = make_circle_grid(2 * np.pi, n)
        f = ScalarField.from_function(g, np.sin)
        exact = -f.values  # second derivative of sin
        errors.append(np.max(np.abs(apply_laplacian(g, f).values - exact)))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        ratio = e_coarse / e_fine
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15
