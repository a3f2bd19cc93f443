"""The one CSV writer behind every table the package writes.

Every float is written as its shortest round-trip text, the text
``repr`` gives, so a file reads back bit for bit.  ``orjson`` formats a
whole block of a column in one call; its text equals ``repr`` except in
notation outside ``1e-4 <= |x| < 1e16`` (it writes ``0.00001`` and
``1e16`` where ``repr`` writes ``1e-05`` and ``1e+16``) and for
non-finite values (``null``), and only those entries are formatted again
with ``repr``.  Rows are written in blocks of ``BLOCK_ROWS``, so the text
held does not grow with the table.  Grid coordinates are formatted once
per axis point, and the rows run over the product of the axes in C
order, last axis fastest.
"""

from __future__ import annotations

from itertools import islice, product

import numpy as np
import orjson

BLOCK_ROWS = 4096


def _format(values: np.ndarray) -> list[str]:
    """``repr`` of each float in ``values``."""
    values = np.ascontiguousarray(values, dtype=float)
    if not values.size:
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    text = text.decode().split(",")
    size = np.abs(values)
    # inf fails the upper bound and nan both, so non-finite values are patched
    same = ((size >= 1e-4) & (size < 1e16)) | (values == 0.0)
    for i in np.flatnonzero(~same).tolist():
        text[i] = repr(float(values[i]))
    return text


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
