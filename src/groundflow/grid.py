"""Periodic uniform grids on the circle and on flat tori.

Fields are sampled on tensor-product grids with coordinates
``x_d[i] = i * h_d``, ``h_d = length_d / points_d`` (the endpoint is
identified with the origin).  The Laplacian is the standard second-order
central-difference stencil with periodic wrap, summed over dimensions;
it is symmetric and negative semidefinite under the uniform-weight inner
product, which the spectral and maximum-principle machinery downstream
relies on.

This module assembles the stencil's one matrix, :func:`laplacian_sparse`,
which the SPD solver factors and :func:`laplacian_matrix` densifies for
the oracles.  Applying the Laplacian stays matrix-free
(:func:`laplacian_values`): it differences neighbours before it scales by
``1/h**2``, which rounds more tightly than a sparse matvec that scales
each neighbour first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

#: largest total point count for which dense-matrix oracles are built
DENSE_CAP = 4096

MAX_DIMS = 3
MIN_POINTS = 4


@dataclass(frozen=True)
class Grid:
    """Periodic uniform grid; ``dims`` is a tuple of (length, points) pairs."""

    dims: tuple[tuple[float, int], ...]

    def __post_init__(self):
        norm = []
        for d, (length, points) in enumerate(self.dims):
            length = float(length)
            points = int(points)
            if not np.isfinite(length) or length <= 0.0:
                raise ValueError(f"dim {d}: length must be positive, got {length}")
            if points < MIN_POINTS:
                raise ValueError(
                    f"dim {d}: need at least {MIN_POINTS} points, got {points}"
                )
            norm.append((length, points))
        object.__setattr__(self, "dims", tuple(norm))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def lengths(self) -> tuple[float, ...]:
        return tuple(length for length, _ in self.dims)

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
        n = 1
        for _, points in self.dims:
            n *= points
        return n

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for h in self.spacings:
            vol *= h
        return vol

    def coords(self) -> list[np.ndarray]:
        """Per-axis coordinate arrays (origin at 0, endpoint excluded)."""
        return [
            h * np.arange(points) for h, points in zip(self.spacings, self.points)
        ]

    def meshgrid(self) -> list[np.ndarray]:
        """Full coordinate arrays of shape ``self.shape`` (ij indexing)."""
        return list(np.meshgrid(*self.coords(), indexing="ij"))


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

    @property
    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def make_circle_grid(length: float, points: int) -> Grid:
    """One-dimensional periodic grid of the given circumference."""
    return Grid(((float(length), int(points)),))


def make_torus_grid(dims) -> Grid:
    """Tensor-product periodic grid from a list of (length, points) pairs."""
    dims = tuple((float(length), int(points)) for length, points in dims)
    if not dims:
        raise ValueError("torus grid needs at least one dimension")
    if len(dims) > MAX_DIMS:
        raise ValueError(f"at most {MAX_DIMS} dimensions supported, got {len(dims)}")
    return Grid(dims)


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


def laplacian_sparse(grid: Grid, axes=None):
    """Sparse stencil Laplacian in the C-order flattening of the grid.

    The one assembly of the stencil's matrix: the Kronecker sum of the
    1-d cyclic second-difference matrices over ``axes`` (all axes when
    None).  It is built once per ``(grid, axes)`` and shared by every
    caller, so its arrays are read-only.
    """
    return _laplacian_sparse(
        grid, tuple(range(grid.ndim)) if axes is None else tuple(axes)
    )


@lru_cache(maxsize=8)
def _laplacian_sparse(grid: Grid, axes: tuple[int, ...]):
    n = grid.total_points
    lap = sp.csc_matrix((n, n))
    for ax in axes:
        points, h = grid.points[ax], grid.spacings[ax]
        w = 1.0 / (h * h)
        second_difference = sp.diags(
            [w, w, -2.0 * w, w, w], [1 - points, -1, 0, 1, points - 1],
            shape=(points, points),
        )
        before = int(np.prod(grid.points[:ax]))
        after = int(np.prod(grid.points[ax + 1:]))
        term = sp.kron(sp.identity(before), second_difference)
        lap = lap + sp.kron(term, sp.identity(after))
    for arr in (lap.data, lap.indices, lap.indptr):
        arr.flags.writeable = False
    return lap


def laplacian_matrix(grid: Grid, axes=None) -> np.ndarray:
    """Dense symmetric matrix representing :func:`apply_laplacian`.

    The dense copy of :func:`laplacian_sparse`, capped at ``DENSE_CAP``
    total points; intended as the oracle backend for spectral
    computations and tests.
    """
    n = grid.total_points
    if n > DENSE_CAP:
        raise ValueError(f"dense Laplacian capped at {DENSE_CAP} points, got {n}")
    return laplacian_sparse(grid, axes).toarray()
