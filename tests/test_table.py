"""Every CSV writer against a naive writer that formats each value with %r.

The package writes all its tables through one writer, which stacks a
block of rows, grid coordinates included, into one float array, formats
it in one ``orjson`` call, places the newlines with numpy and splices
``repr`` text into the entries whose notation differs.  These tests pin
its bytes to the per-value format: whole files, block boundaries inside
an axis run, patched entries at a block's ends, all-patched blocks, one
column, and the block formatter alone on the edges of the patched
ranges; and they check that its memory stays one block's.
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
from groundflow._table import BLOCK_ROWS, _format, write_csv
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


def _axes_straddle(path):
    # 97 does not divide BLOCK_ROWS, so each block ends part way along the
    # last axis, and a block's coordinates restart mid-run
    a = np.array(SPECIAL[:5] + [0.25, 3.0, 7.5, -1e16, 1e-7] * 9)
    b = np.linspace(-1.0, 1.0, 97)
    b[[0, 48, 96]] = [-0.0, 1e-5, 1e16]
    assert len(a) * len(b) > BLOCK_ROWS and BLOCK_ROWS % len(b)
    values = _column(np.random.RandomState(6), len(a) * len(b))
    write_csv(path, "a,b,value", [values], axes=(a, b))
    rows = [(x, y) for x in a for y in b]
    return _naive("a,b,value", [(x, y, z) for (x, y), z in zip(rows, values)])


def _block_ends(path):
    rng = np.random.RandomState(7)
    cols = [rng.standard_normal(2 * BLOCK_ROWS + 1) for _ in range(3)]
    cols[1][1] = -0.0
    for start in (0, BLOCK_ROWS, 2 * BLOCK_ROWS):
        cols[0][start] = 1e-5  # a block's first entry
    for end in (BLOCK_ROWS - 1, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS):
        cols[2][end] = [np.nan, -1e16, np.inf][end % 3]  # a block's last entry
    write_csv(path, "a,b,c", cols)
    return _naive("a,b,c", zip(*cols))


def _all_patched(path):
    # a full block and a short one in which no orjson text survives
    patched = np.array([1e-5, -1e-300, 5e-324, 1e16, -1e300, np.inf, -np.inf, np.nan])
    rng = np.random.RandomState(8)
    cols = [rng.choice(patched, BLOCK_ROWS + 5) for _ in range(2)]
    write_csv(path, "a,b", cols)
    return _naive("a,b", zip(*cols))


def _one_column(path):
    col = _column(np.random.RandomState(9), 2 * BLOCK_ROWS + 1)
    write_csv(path, "a", [col])
    return _naive("a", zip(col))


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
    "axes-straddle-blocks": _axes_straddle,
    "patched-at-block-ends": _block_ends,
    "all-patched": _all_patched,
    "one-column": _one_column,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_matches_per_value_repr(tmp_path, case):
    path = tmp_path / "table.csv"
    expected = CASES[case](path)
    assert path.read_bytes() == expected
    assert b"-0.0" in expected or case in ("portrait-grid", "all-patched")


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


def test_field_csv_memory_flat_in_rows(tmp_path):
    # the axes path builds each block's coordinates from its own rows, so
    # what it holds is one block's, however many rows the grid has
    peaks = []
    for rows in (64, 640):
        # lengths whose coordinates print long at both sizes, so that a row's
        # text is about as long in both tables
        g = make_torus_grid([(np.e, rows), (2 * np.pi, 128)])
        values = np.random.RandomState(10).standard_normal(g.total_points)
        values[::1000] = 1e-5  # every block takes the patching path
        field = ScalarField(g, values)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            field_to_csv(field, tmp_path / "field.csv")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
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
