"""Byte tables from float arrays and ready cells, one byte matrix per block.

``table_chunks`` writes the CSV and JSON tables of ``jcpairs evolve`` and
``jcpairs sweep`` as a few large uint8 chunks instead of one string per row:
cells are NUL-padded byte rows (``floatfmt.g17_bytes`` for CSV floats),
assembled block by block into one byte matrix whose NUL bytes are dropped
on the way out.  The matrix, its NUL mask and the block's float values and
their cells are buffers of the calling thread's ``linalg.Workspace``, kept
from table to table, so a thread writes one table at a time; the chunks
written out are arrays of their own.  The bytes are those of formatting
every CSV cell with ``'%.17g'``, and for JSON those of
``json.dumps(..., indent=2)`` of the rows (NaN as null).  On a 2-core Xeon
a closed 100 x 200 sweep of six pairs costs about 0.45 us a row before the
file write: under half formatting (1.3 distinct C or Q values a row), a
third dropping NULs, the rest gathering.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .floatfmt import WIDTH, g17_bytes
from .linalg import thread_workspace

# Rows per block, rounded down to whole groups of a table's last axis (at
# least one group): every block is assembled in one byte matrix, the same for
# every block, and written before the next is built, so the whole table
# never exists as text at once.
ROW_BLOCK = 2048


def _text_matrix(texts):
    """ASCII texts as a NUL-padded uint8 matrix, one row per text."""
    return np.array(texts, dtype=bytes).view(np.uint8).reshape(len(texts), -1)


def label_cells(fmt, labels):
    """Cells of text labels: the labels in CSV, JSON strings in JSON."""
    return _text_matrix(labels if fmt == "csv" else [json.dumps(label) for label in labels])


def number_cells(fmt, values, out=None):
    """Cells of float values, an (n, ``WIDTH``) matrix.

    '%.17g' text in CSV, written into ``out`` when given, and
    ``json.dumps`` numbers (NaN as null) in JSON.
    """
    values = np.asarray(values, dtype=float)
    if fmt == "csv":
        return g17_bytes(values, out=out)
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = json.dumps(None if math.isnan(values[i]) else float(values[i]))
    return np.array(texts, dtype=(bytes, WIDTH)).view(np.uint8).reshape(-1, WIDTH)


def distinct_slots(columns):
    """The distinct slots of float arrays of shape (groups, slots), and each slot's index among them.

    A slot repeats an earlier one when every array has the same bits in
    both, so 0.0 and -0.0, or NaNs of different payloads, stay apart.
    """
    bits = [column.view(np.uint64) for column in columns]
    distinct, where = [], []
    for slot in range(columns[0].shape[1]):
        same = (i for i, first in enumerate(distinct)
                if all(np.array_equal(b[:, slot], b[:, first]) for b in bits))
        where.append(next(same, len(distinct)))
        if where[-1] == len(distinct):
            distinct.append(slot)
    return distinct, where


def table_chunks(fmt, columns, shape, data):
    """The bytes of a table as uint8 chunks to write in turn, one per block of rows.

    Row r is the cell ``np.unravel_index(r, shape)`` of the table.  The
    last axis holds a group's slots (sweep's pairs), and a block holds
    whole groups.  ``data`` has one entry per column: a float array that
    reshapes to ``shape``, formatted a block at a time, or a pair
    ``(cells, key)`` of ready cells (``label_cells``, ``number_cells``)
    and the row of ``cells`` at each table cell: its index along the axis
    ``key``, or ``key[cell]`` for an integer array of ``shape``.

    Each block is one byte matrix of the thread's workspace: a row holds
    the row's cells, each NUL-padded to its column's width (ready cells
    trimmed to their longest text), and the separators, and is written
    without its NUL bytes.  What every block shares goes in once: the
    separators and the ready cells of the slot axis.  Ready cells carry
    their separators and are gathered as byte rows: once per group for
    another axis, adjacent columns of one axis (sweep's t and Gt) as one
    table, and once per row for an array key.  Adjacent float columns
    form a run that formats only its distinct slots (``distinct_slots``),
    all runs of a block in one formatter call; a repeated slot copies the
    cells of its first copy.  JSON has the bytes of
    ``json.dumps(..., indent=2)``.
    """
    n, slots = math.prod(shape), shape[-1]
    if fmt == "json":
        head = json.dumps(list(columns), indent=2).replace("\n", "\n  ")
        yield ('{\n  "columns": ' + head + ',\n  "rows": [').encode()
        # every row opens with ",\n"; the first row's comma is dropped
        opening, separator, closing = b",\n    [\n      ", b",\n      ", b"\n    ]"
    else:
        yield (",".join(columns) + "\n").encode()
        opening, separator, closing = b"", b",", b"\n"

    # the cells of each column start at its offset in the row; a run's
    # cells are WIDTH + len(separator) apart
    fixed, by_group, by_cell, runs, offset = [], [], [], [], 0
    for i, col in enumerate(data):
        text = np.frombuffer(separator if i else opening, dtype=np.uint8)
        if isinstance(col, tuple):
            table, key = col
            width = int(np.max(np.count_nonzero(table, axis=1)))
            table = np.hstack([np.broadcast_to(text, (len(table), text.size)), table[:, :width]])
            if not isinstance(key, int):
                by_cell.append((offset, table, key.reshape(-1)))
            elif key == len(shape) - 1:
                fixed.append((offset, table))
            elif by_group and by_group[-1][0] + by_group[-1][1].shape[1] == offset and by_group[-1][2] == key:
                by_group[-1][1] = np.hstack([by_group[-1][1], table])
            else:  # a group's index along the axis is (group // stride) % size
                by_group.append([offset, table, key, math.prod(shape[key + 1:-1])])
            offset += table.shape[1]
        else:
            fixed.append((offset, text))
            offset += text.size
            column = np.asarray(col, dtype=float).reshape(-1, slots)
            if i and not isinstance(data[i - 1], tuple):
                runs[-1][1].append(column)
            else:
                runs.append((offset, [column]))
            offset += WIDTH
    fixed.append((offset, np.frombuffer(closing, dtype=np.uint8)))
    # NUL room after the closing for the stride of a run that ends the row
    row = np.zeros((slots, offset + max(len(closing), len(separator))), dtype=np.uint8)
    for at, cells in fixed:
        row[:, at:at + cells.shape[-1]] = cells
    work = thread_workspace()
    block = work.get("table.block", (max(1, min(n // slots, ROW_BLOCK // slots)),) + row.shape, np.uint8)
    block[...] = row
    nonzero = work.get("table.nonzero", (block.shape[0] * slots, row.shape[1]), bool)
    runs = [(at, arrays, *distinct_slots(arrays)) for at, arrays in runs]
    # the distinct float values of a block, for one formatter call
    size = sum(len(arrays) * len(distinct) for _, arrays, distinct, _ in runs) * block.shape[0]
    values = work.get("table.values", (size,), float)
    numbers = work.get("table.numbers", (size, WIDTH), np.uint8)

    for start in range(0, n // slots, block.shape[0]):
        groups = np.arange(start, min(n // slots, start + block.shape[0]))
        grouped = block[:groups.size]
        for offset, table, _, stride in by_group:
            cells = table.take(groups // stride, axis=0, mode="wrap")
            grouped[:, :, offset:offset + cells.shape[1]] = cells[:, None]
        chunk = grouped.reshape(groups.size * slots, -1)
        for offset, table, key in by_cell:
            chunk[:, offset:offset + table.shape[1]] = table.take(key[start * slots:][:len(chunk)], axis=0)
        # each run's values as (column, group, distinct slot)
        parts, end = [], 0
        for _, arrays, distinct, _ in runs:
            part = values[end:end + len(arrays) * groups.size * len(distinct)]
            part = part.reshape(len(arrays), groups.size, len(distinct))
            for array, out in zip(arrays, part):
                np.take(array[groups[0]:groups[-1] + 1], distinct, axis=1, out=out, mode="clip")
            parts.append((end, part.shape))
            end += part.size
        texts = number_cells(fmt, values[:end], out=numbers[:end])
        step = WIDTH + len(separator)
        for (offset, arrays, distinct, where), (first, part) in zip(runs, parts):
            formatted = texts[first:first + math.prod(part)].reshape(part + (WIDTH,))
            formatted = formatted.transpose(1, 2, 0, 3)  # (group, distinct slot, column, text)
            dest = grouped[:, :, offset:offset + len(arrays) * step]
            dest = dest.reshape(groups.size, slots, len(arrays), step)[..., :WIDTH]
            for slot, i in enumerate(where):
                dest[:, slot] = formatted[:, i]
        chunk = chunk[np.not_equal(chunk, 0, out=nonzero[:len(chunk)])]
        yield chunk[1:] if fmt == "json" and not start else chunk
    if fmt == "json":
        yield (b"\n  ]" if n else b"]") + b"\n}\n"
