"""The one CSV writer behind every table the package writes.

Every float is written as its shortest round-trip text, the text
``repr`` gives, so a file reads back bit for bit.  Rows are written in
blocks of ``BLOCK_ROWS``: a block's fields are stacked into one
``(rows, fields)`` float array, grid coordinates taken by
``np.unravel_index`` of the block's own rows, so the memory held is one
block's whatever the table's length.  One ``orjson.dumps`` formats the
whole block, and numpy turns every row's last comma into a newline.  The
text ``orjson`` gives equals ``repr`` except in notation outside
``1e-4 <= |x| < 1e16`` (it writes ``0.00001`` and ``1e16`` where
``repr`` writes ``1e-05`` and ``1e+16``) and for non-finite values
(``null``); only those entries are spliced with ``repr`` text.
"""

from __future__ import annotations

import numpy as np
import orjson

BLOCK_ROWS = 4096

_COMMA, _NEWLINE = ord(","), ord("\n")


def _block_text(block: np.ndarray):
    """CSV text of a ``(rows, fields)`` float array, as bytes or a uint8
    array: every row ends in a newline, each entry is the ``repr`` of its
    float."""
    values = block.ravel()
    # drop orjson's "[" and turn its "]" into the last row's newline
    text = np.frombuffer(
        orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY), dtype=np.uint8
    )[1:].copy()
    text[-1] = _NEWLINE
    commas = np.flatnonzero(text == _COMMA)
    fields = block.shape[1]
    text[commas[fields - 1 :: fields]] = _NEWLINE
    size = np.abs(values)
    # inf fails the upper bound and nan both, so non-finite values are patched
    patch = np.flatnonzero(~(((size >= 1e-4) & (size < 1e16)) | (values == 0.0)))
    if not patch.size:
        return text
    # entry k runs from just past separator k - 1 up to separator k
    ends = np.append(commas, text.size - 1)
    starts = np.where(patch > 0, ends[patch - 1] + 1, 0)
    view = memoryview(text)
    pieces, pos = [], 0
    for k, start, end in zip(patch.tolist(), starts.tolist(), ends[patch].tolist()):
        pieces += [view[pos:start], repr(float(values[k])).encode()]
        pos = end
    pieces.append(view[pos:])
    return b"".join(pieces)


def _format(values: np.ndarray) -> list[str]:
    """``repr`` of each float in ``values``, through the block formatter."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    if not values.size:
        return []
    return bytes(_block_text(values)).decode().split("\n")[:-1]


def write_csv(path, header: str, columns, axes=()):
    """Write ``header`` and one row per point: axis coordinates, then columns.

    ``axes`` are 1-d coordinate arrays whose product, in C order, gives the
    rows; ``columns`` are 1-d arrays with one float per row each.  Without
    axes the rows are the columns' entries in order.
    """
    shape = tuple(len(a) for a in axes)
    rows = len(columns[0])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, rows)
            block = np.empty((stop - start, len(axes) + len(columns)))
            if axes:
                index = np.unravel_index(np.arange(start, stop), shape)
                for d, (a, i) in enumerate(zip(axes, index)):
                    block[:, d] = np.asarray(a)[i]
            for c, column in enumerate(columns, len(axes)):
                block[:, c] = column[start:stop]
            fh.write(_block_text(block))
