"""Every CSV writer against a naive writer that formats each value with %r.

The package writes all its tables through one writer, which formats a
column's block in one ``orjson`` call, patches with ``repr`` the entries
whose notation differs, and formats each grid coordinate once per axis
point.  These tests pin its bytes to the per-value format, whole files
and the block formatter alone, on drawn bit patterns and on the edges of
the patched ranges.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from groundflow import (
    FlowTrace,
    OrbitResult,
    PlanarState,
    ScalarField,
    SweepResult,
    field_to_csv,
    integrate_orbit,
    make_circle_grid,
    make_torus_grid,
    sweep_to_csv,
    trace_to_csv,
)
from groundflow._table import BLOCK_ROWS, _format
from groundflow.circle_dynamics import hamiltonian_uv, orbit_to_csv, portrait_to_csv

SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 2.5, -0.0, 2.5, 1e-5, 0.0]
DISTINCT = [-0.0, 5e-324, 1e16, 1e-5, 2.5]


def _column(rng, n, repeats=True):
    """n values: the specials, repeated or not, then random ones."""
    head = SPECIAL + SPECIAL if repeats else DISTINCT
    return np.concatenate([head, rng.standard_normal(n - len(head))])


def _naive(header, rows):
    return (header + "\n" + "".join(
        ",".join("%r" % float(x) for x in row) + "\n" for row in rows
    )).encode()


def _orbit(path):
    rng = np.random.RandomState(1)
    n = 2 * BLOCK_ROWS + 3  # two full blocks and a short one
    cols = [_column(rng, n, repeats=False) for _ in range(3)] + [_column(rng, n)]
    cols[3][n // 2 :] = cols[3][: n - n // 2]  # H repeats across blocks
    orbit = OrbitResult(*cols, energy_drift=0.0, closed=False, period=None)
    orbit_to_csv(orbit, path)
    return _naive("t,u,v,H", zip(*cols))


def _portrait(path, u_values, v_values):
    params = (-1.0, 1.0, 0.1)
    portrait_to_csv(*params, u_values, v_values, path)
    return _naive("u,v,H", [
        (u, v, hamiltonian_uv(u, v, *params)) for u in u_values for v in v_values
    ])


def _field(path, dims, seed):
    g = make_torus_grid(dims)
    values = _column(np.random.RandomState(seed), g.total_points)
    field_to_csv(ScalarField(g, values), path)
    header = ",".join(f"x{d}" for d in range(g.ndim)) + ",value"
    return _naive(header, zip(*[m.ravel() for m in g.meshgrid()], values))


def _trace(path):
    rng = np.random.RandomState(2)
    cols = [_column(rng, 90, repeats=False) for _ in range(4)]
    trace_to_csv(FlowTrace(*cols, converged_at=None), path)
    return _naive("t,sup_distance,min_ratio,max_ratio", zip(*cols))


def _sweep(path):
    g = make_circle_grid(1.0, 8)
    rng = np.random.RandomState(4)
    q = np.array([-1e-5, 0.0, 1e-5, 1e16, -0.0, 5e-324])
    n = len(q)
    e0 = [ScalarField(g, rng.uniform(0.5, 2.0, 8)) for _ in range(n)]
    u_star = [ScalarField(g, np.full(8, 2.5) * e.values) for e in e0[:3]]
    u_star += [ScalarField(g, rng.uniform(1.0, 3.0, 8)) for _ in range(n - 3)]
    lambda0 = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-5])
    gap = np.array([2.5, 2.5, 0.0, -0.0, 1e16, 5e-324])
    result = SweepResult(
        family=SimpleNamespace(q=q), lambda0=lambda0, gap=gap, e0=e0, u_star=u_star,
    )
    sweep_to_csv(result, path)
    ratios = [u.values / e.values for u, e in zip(u_star, e0)]
    return _naive("q1,lambda0,gap,min_ratio,max_ratio", [
        (qv, lam, gp, r.min(), r.max())
        for qv, lam, gp, r in zip(q, lambda0, gap, ratios)
    ])


CASES = {
    "orbit": _orbit,
    "portrait-specials": lambda path: _portrait(
        path,
        np.array([1e-5, 0.2, 2.5, 1e16, 2.5, 1e-5]),
        np.array(SPECIAL + [-1e16]),
    ),
    # the hamiltonian evaluated point by point; more rows than one block
    "portrait-grid": lambda path: _portrait(
        path, np.linspace(0.2, 3.0, 71), np.linspace(-2.0, 2.0, 61)
    ),
    "field-2d": lambda path: _field(path, [(2 * np.pi, 6), (1.3, 5)], 3),
    "field-3d": lambda path: _field(path, [(1.0, 17), (2 * np.pi, 16), (0.7, 16)], 5),
    "trace": _trace,
    "sweep": _sweep,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_per_value_repr(tmp_path, case):
    path = tmp_path / "table.csv"
    expected = CASES[case](path)
    assert path.read_bytes() == expected
    assert b"-0.0" in expected or case == "portrait-grid"


def test_orbit_csv_memory_flat_in_rows(tmp_path):
    # rows stream in blocks: the text held is one block's, whatever the length
    peaks = []
    for T in (20.0, 100.0):
        orbit = integrate_orbit(PlanarState(0.6, 0.0), -1.0, 1.0, 0.1, T, 1e-3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            orbit_to_csv(orbit, tmp_path / "orbit.csv")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert len(orbit.times) == 100_001
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def _edges():
    """The patched ranges' edges with both neighbours, signed zeros, the
    smallest subnormals and the non-finite values."""
    values = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    for edge in (1e-4, -1e-4, 1e16, -1e16):
        values += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2 * edge)]
    return values


@pytest.mark.parametrize("values", [[], [2.5], [1e-5], _edges()],
                         ids=["empty", "one", "one-patched", "edges"])
def test_format_matches_repr(values):
    x = np.array(values, dtype=float)
    assert _format(x) == list(map(repr, x.tolist()))
