"""The one CSV writer behind every table the package writes.

Every float is written with ``repr``, so a file reads back bit for bit.
Rows are written in blocks of ``BLOCK_ROWS``, so the text held does not
grow with the table.  In each block, a column whose values repeat has
each distinct bit pattern formatted once (``np.unique`` on the int64 view
keeps -0.0 apart from 0.0); a column without repeats is formatted value
by value, which skips the sort and the gather.  Grid coordinates are
formatted once per axis point, and the rows run over the product of the
axes in C order, last axis fastest.
"""

from __future__ import annotations

from itertools import islice, product

import numpy as np

BLOCK_ROWS = 4096


def _format(values: np.ndarray) -> list[str]:
    """``repr`` of each float in ``values``; with repeats, each bit pattern
    is formatted once."""
    values = np.ascontiguousarray(values, dtype=float)
    floats = values.tolist()
    # a set is the cheapest test for repeats on short columns; it merges -0.0
    # and 0.0, which only sends such a column down the exact path below
    if len(set(floats)) == len(floats):
        return list(map(repr, floats))
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[where].tolist()


def write_csv(path, header: str, columns, axes=()):
    """Write ``header`` and one row per point: axis coordinates, then columns.

    ``axes`` are 1-d coordinate arrays whose product, in C order, gives the
    rows; ``columns`` are 1-d arrays with one float per row each.  Without
    axes the rows are the columns' entries in order.
    """
    points = map(",".join, product(*map(_format, axes)))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            fields = [_format(c[start : start + BLOCK_ROWS]) for c in columns]
            if axes:
                fields.insert(0, islice(points, BLOCK_ROWS))
            fh.write("\n".join(map(",".join, zip(*fields))))
            fh.write("\n")
