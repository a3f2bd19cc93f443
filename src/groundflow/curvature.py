"""Mixed scalar curvature of doubly twisted products on flat factor grids.

For a product of flat periodic factors with metric warped by positive
functions v (along the base) and u (along the fiber), the mixed scalar
curvature reduces to ``-n*(Lap_base u)/u - p*(Lap_fiber v)/v`` where p, n
are the factor dimensions and each Laplacian acts along its own factor's
axes.  Choosing u as the leafwise ground state of ``-Lap_base - beta``
with ``beta = (p/n)*(Lap_fiber v)/v`` makes this curvature constant along
every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_csv
from .grid import Grid, ScalarField, laplacian_values, make_torus_grid
from .schrodinger import _least_eigenpair, _unit_constant


@dataclass(frozen=True)
class TwistedProduct:
    """Product of two flat periodic factors with warp fields on the product.

    ``v`` scales the base (leaf) factor metric, ``u`` the fiber factor
    metric; both live on the product grid (base axes first) and must be
    positive.  ``u`` may be left unset for constructions that compute it.
    """

    base_grid: Grid
    fiber_grid: Grid
    v: ScalarField
    u: ScalarField | None = None

    def __post_init__(self):
        product = self.product_grid
        if self.v.grid != product:
            raise ValueError("v must live on the product grid")
        if self.v.min() <= 0.0:
            raise ValueError("v must be strictly positive")
        if self.u is not None:
            if self.u.grid != product:
                raise ValueError("u must live on the product grid")
            if self.u.min() <= 0.0:
                raise ValueError("u must be strictly positive")

    @property
    def product_grid(self) -> Grid:
        return make_torus_grid(self.base_grid.dims + self.fiber_grid.dims)

    @property
    def p(self) -> int:
        """Base (leaf) dimension."""
        return self.base_grid.ndim

    @property
    def n(self) -> int:
        """Fiber (normal) dimension."""
        return self.fiber_grid.ndim

    @property
    def base_axes(self):
        return tuple(range(self.p))

    @property
    def fiber_axes(self):
        return tuple(range(self.p, self.p + self.n))


def mixed_scalar_curvature(tp: TwistedProduct) -> ScalarField:
    """S_mix = -n*(Lap_base u)/u - p*(Lap_fiber v)/v on the product grid."""
    if tp.u is None:
        raise ValueError("twisted product has no fiber warp u")
    grid = tp.product_grid
    lap_u = laplacian_values(grid, tp.u.values, axes=tp.base_axes)
    lap_v = laplacian_values(grid, tp.v.values, axes=tp.fiber_axes)
    vals = -tp.n * lap_u / tp.u.values - tp.p * lap_v / tp.v.values
    return ScalarField(grid, vals)


def ground_state_warp(tp: TwistedProduct):
    """Fiber warp making the mixed curvature leafwise constant.

    For each fiber point, u restricted to the leaf is the ground state of
    ``-Lap_base - beta`` with ``beta = (p/n)*(Lap_fiber v)/v`` frozen on
    that leaf.  Returns the warp field together with the per-leaf
    curvature values ``n*lambda0(leaf)`` (one entry per fiber point).

    A leaf whose frozen potential is exactly one constant c, as on every
    leaf when v varies along the fiber only, has the exact ground state
    lambda0 = -c with a constant eigenvector, since the stencil Laplacian
    maps a constant to exactly 0; it gets that pair with no factor and no
    iteration.  One min/max reduction finds every such leaf and one masked
    store assigns them all.  Every other leaf goes through the Lanczos run
    on its own shifted factor that ``ground_state`` makes, which stops on
    its eigen-residual target alone.
    """
    grid = tp.product_grid
    base_n = tp.base_grid.total_points
    fiber_n = tp.fiber_grid.total_points
    beta_vals = (
        (tp.p / tp.n)
        * laplacian_values(grid, tp.v.values, axes=tp.fiber_axes)
        / tp.v.values
    )
    beta_slices = beta_vals.reshape(base_n, fiber_n)
    u_slices = np.empty((base_n, fiber_n))
    leaf_smix = np.empty(fiber_n)
    constant = beta_slices.min(axis=0) == beta_slices.max(axis=0)
    u_slices[:, constant] = _unit_constant(tp.base_grid)[:, None]
    leaf_smix[constant] = tp.n * -beta_slices[0, constant]
    for j in np.flatnonzero(~constant).tolist():
        # the eigen-solver of ground_state; the leaf's gap is not used
        lam, e0, *_ = _least_eigenpair(
            tp.base_grid, ScalarField(tp.base_grid, beta_slices[:, j])
        )
        u_slices[:, j] = e0
        leaf_smix[j] = tp.n * lam
    return ScalarField(grid, u_slices.ravel()), leaf_smix


def scaled_mixed_curvature(
    s_mix: float, h_sq: float, t_sq: float, u_const: float
) -> float:
    """Mixed curvature after scaling the normal metric by a constant u."""
    if u_const <= 0.0:
        raise ValueError(f"u_const must be positive, got {u_const}")
    if h_sq < 0.0 or t_sq < 0.0:
        raise ValueError("h_sq and t_sq must be nonnegative")
    return s_mix - (u_const**-2 - 1.0) * h_sq + (u_const**-4 - 1.0) * t_sq


def conformal_change_residual(
    s_mix: ScalarField,
    s_mix_tilde: ScalarField,
    u: ScalarField,
    h_sq: ScalarField,
    t_sq: ScalarField,
    grid: Grid,
    n_normal: int = 1,
    leaf_axes=(0,),
) -> float:
    """Sup-norm defect of the normal-conformal transformation law.

    Checks ``(S - S_tilde)*u = n*Lap_leaf(u) - 2*Hperp(u)
    + h_sq*(1/u - u) - t_sq*(1/u^3 - u)`` without the normal
    mean-curvature term (the constructions here have Hperp = 0 by
    arrangement).
    """
    for f in (s_mix, s_mix_tilde, u, h_sq, t_sq):
        if f.grid != grid:
            raise ValueError("all fields must live on the given grid")
    if u.min() <= 0.0:
        raise ValueError("u must be strictly positive")
    uv = u.values
    lap_leaf = laplacian_values(grid, uv, axes=leaf_axes)
    # the -2*Hperp(u) term is absent: the normal bundle mean curvature vanishes
    rhs = (
        n_normal * lap_leaf
        + h_sq.values * (1.0 / uv - uv)
        - t_sq.values * (1.0 / uv**3 - uv)
    )
    lhs = (s_mix.values - s_mix_tilde.values) * uv
    return float(np.max(np.abs(lhs - rhs)))


def field_to_csv(field: ScalarField, path):
    """One row per grid point: coordinates then the value."""
    grid = field.grid
    header = ",".join(f"x{d}" for d in range(grid.ndim)) + ",value"
    # the values are stored in C order, the order of the product of the axes
    write_csv(path, header, [field.values], axes=grid.coords())
