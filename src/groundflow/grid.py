"""Periodic uniform grids on the circle and on flat tori.

Fields are sampled on tensor-product grids with coordinates
``x_d[i] = i * h_d``, ``h_d = length_d / points_d`` (the endpoint is
identified with the origin).  The Laplacian is the standard second-order
central-difference stencil with periodic wrap, summed over dimensions;
it is symmetric and negative semidefinite under the uniform-weight inner
product, which the spectral and maximum-principle machinery downstream
relies on.

This module assembles the stencil's one matrix, :func:`laplacian_sparse`,
which the SPD solver factors and the dense spectrum oracle densifies.
Applying the Laplacian stays matrix-free (:func:`laplacian_values`): it
differences neighbours before it scales by ``1/h**2``, which rounds more
tightly than a sparse matvec that scales each neighbour first.
:func:`_restriction` maps a problem whose data are constant along some
axes to the grid of the others, where the ground state and Newton's
method solve it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp

#: largest total point count for which dense-matrix oracles are built
DENSE_CAP = 4096

MAX_DIMS = 3
MIN_POINTS = 4


@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid; ``dims`` is 1 to MAX_DIMS (length, points) pairs."""

    dims: tuple[tuple[float, int], ...]

    def __post_init__(self):
        if not 1 <= len(self.dims) <= MAX_DIMS:
            raise ValueError(f"need 1 to {MAX_DIMS} dimensions, got {len(self.dims)}")
        norm = []
        for d, (length, points) in enumerate(self.dims):
            length = float(length)
            if not np.isfinite(length) or length <= 0.0:
                raise ValueError(f"dim {d}: length must be positive, got {length}")
            if points % 1 != 0:
                raise ValueError(f"dim {d}: point count must be whole, got {points}")
            points = int(points)
            if points < MIN_POINTS:
                raise ValueError(
                    f"dim {d}: need at least {MIN_POINTS} points, got {points}"
                )
            h = length / points
            if not (h > 0.0 and math.isfinite(4.0 / h / h)):
                raise ValueError(f"dim {d}: spacing {h!r} is too fine for 4/h**2")
            norm.append((length, points))
        object.__setattr__(self, "dims", tuple(norm))
        vol = self.cell_volume  # unit L2 fields need 1/vol and vol * points
        if not (np.finfo(float).tiny <= vol and math.isfinite(vol * self.total_points)):
            raise ValueError(f"cell volume {vol!r} is out of float range")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(points for _, points in self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(length / points for length, points in self.dims)

    @property
    def total_points(self) -> int:
        return math.prod(self.points)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays (origin at 0, endpoint excluded)."""
        return [
            h * np.arange(points) for h, points in zip(self.spacings, self.points)
        ]

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays of shape ``self.shape`` (ij indexing)."""
        return list(np.meshgrid(*self.coords(), indexing="ij"))


@dataclass(frozen=True)
class _Restriction:
    """The grid ``sub`` of the axes ``kept`` of ``grid``, and the maps
    between value arrays on the two.

    Built by :func:`_restriction`, which keeps the axes along which some
    value arrays vary.  An operator such as ``-L - beta`` whose data is
    constant along the dropped axes is the Kronecker sum of its restriction
    to ``sub`` and ``-L`` on the dropped axes (Horn & Johnson, Topics in
    Matrix Analysis, 1991, Thm 4.4.5): the stencil's difference along a
    dropped axis is exactly 0 on an array constant along it, so a problem
    on ``sub`` gives the full problem's solutions that are constant along
    the dropped axes, and its eigenvalues the full ones that are.
    """

    grid: Grid
    kept: tuple[int, ...]
    sub: Grid

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """``values`` sliced at index 0 of the dropped axes, flat."""
        index = tuple(
            slice(None) if ax in self.kept else 0 for ax in range(self.grid.ndim)
        )
        return values.reshape(self.grid.shape)[index].ravel()

    def lift(self, values: np.ndarray) -> np.ndarray:
        """``values`` on ``sub`` broadcast along the dropped axes, flat."""
        shape = [n if ax in self.kept else 1 for ax, n in enumerate(self.grid.points)]
        return np.broadcast_to(values.reshape(shape), self.grid.shape).flatten()


def _restriction(grid: Grid, *arrays: np.ndarray) -> _Restriction:
    """The restriction to the axes along which any of ``arrays`` varies.

    An axis is dropped when every slice of every array across it equals the
    first one exactly, with no tolerance; at least one axis is kept (axis 0
    when the arrays vary along none), so a constant problem still goes
    through its solver.
    """
    shaped = [a.reshape(grid.shape) for a in arrays]
    kept = tuple(
        ax for ax in range(grid.ndim)
        if any(not (a == a.take([0], axis=ax)).all() for a in shaped)
    ) or (0,)
    return _Restriction(grid, kept, Grid(tuple(grid.dims[ax] for ax in kept)))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real values sampled at the grid points, stored flat in C order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.grid.total_points:
            raise ValueError(
                f"field has {values.size} values, grid has "
                f"{self.grid.total_points} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.total_points, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample ``fn(*coordinate_arrays)`` on the grid."""
        mesh = grid.meshgrid()
        vals = np.broadcast_to(fn(*mesh), grid.shape)
        return cls(grid, np.asarray(vals, dtype=float).ravel())

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def make_circle_grid(length: float, points: int) -> Grid:
    """One-dimensional periodic grid of the given circumference."""
    return Grid(((length, points),))


def make_torus_grid(dims) -> Grid:
    """Tensor-product periodic grid from a list of (length, points) pairs."""
    return Grid(tuple(dims))


def _check_same_grid(grid: Grid, f: ScalarField):
    if f.grid != grid:
        raise ValueError("field does not live on the given grid")


def laplacian_values(grid: Grid, values: np.ndarray, axes=None) -> np.ndarray:
    """Stencil Laplacian on a flat value array; ``axes`` restricts the sum
    to a subset of dimensions (used for leafwise / fiberwise operators)."""
    arr = values.reshape(grid.shape)
    out = np.zeros_like(arr)
    use = range(grid.ndim) if axes is None else axes
    for ax in use:
        h = grid.spacings[ax]
        out += (np.roll(arr, -1, axis=ax) - 2.0 * arr + np.roll(arr, 1, axis=ax)) / (
            h * h
        )
    return out.ravel()


def laplacian_round_off(grid: Grid) -> float:
    """Round-off of applying the stencil Laplacian, per unit norm of the field.

    Machine epsilon times the operator's norm bound ``sum_d 4/h_d**2``.  On
    fine grids it exceeds fixed residual targets: about 6e-9 on a
    16384-point 2pi circle.
    """
    return float(np.finfo(float).eps * sum(4.0 / (h * h) for h in grid.spacings))


def apply_laplacian(grid: Grid, f: ScalarField, axes=None) -> ScalarField:
    """Second-order periodic central-difference Laplacian of ``f``."""
    _check_same_grid(grid, f)
    return ScalarField(grid, laplacian_values(grid, f.values, axes=axes))


@lru_cache(maxsize=8)
def laplacian_sparse(grid: Grid):
    """Sparse stencil Laplacian in the C-order flattening of the grid.

    The one assembly of the stencil's matrix: the Kronecker sum of the
    1-d cyclic second-difference matrices over the grid's axes.  It is
    built once per grid and shared by every caller, so its arrays are
    read-only.
    """
    second_differences = []
    for points, h in zip(grid.points, grid.spacings):
        w = 1.0 / (h * h)
        second_differences.append(sp.diags(
            [w, w, -2.0 * w, w, w], [1 - points, -1, 0, 1, points - 1],
            shape=(points, points),
        ))
    # kronsum(d, acc) = kron(I, d) + kron(acc, I), so each later axis varies
    # fastest (C order); a 1-d grid never reaches kronsum, hence the tocsc
    lap = reduce(
        lambda acc, d: sp.kronsum(d, acc, format="csc"), second_differences
    ).tocsc()
    for arr in (lap.data, lap.indices, lap.indptr):
        arr.flags.writeable = False
    return lap
