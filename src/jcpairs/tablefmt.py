"""Byte tables from streamed float blocks and ready cells, one byte matrix per block.

``table_chunks`` writes the CSV and JSON tables of ``jcpairs evolve`` and
``jcpairs sweep`` as a few large uint8 chunks instead of one string per row:
cells are NUL-padded byte rows (``floatfmt.g17_bytes`` for CSV floats),
assembled block by block into one byte matrix whose NUL bytes are dropped
on the way out.  The float columns arrive as a stream of blocks, which
``sweep`` and ``evolve`` draw from ``GridEngine.blocks``; the writer cuts
each block it draws into table blocks of at most ``VALUE_BLOCK`` float
values and writes them before it draws the next, so neither the engine's
results nor the table exist whole at any time, and peak memory does not
grow with the grid.  The matrix, its NUL mask and the block's float values
and their cells are buffers of the calling thread's ``linalg.Workspace``,
kept from table to table, so a thread writes one table at a time; the
chunks written out are arrays of their own.  The bytes are those of
formatting every CSV cell with ``'%.17g'``, and for JSON those of
``json.dumps(..., indent=2)`` of the rows (NaN as null).  On a 2-core Xeon
a closed 100 x 200 sweep of six pairs costs about 0.45 us a row before the
file write: under half formatting (1.3 distinct C or Q values a row), a
third dropping NULs, the rest gathering.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .floatfmt import WIDTH, g17_bytes
from .linalg import thread_workspace

# Float values per block: a block holds at most as many whole groups of a
# table's last axis as this many values of its float columns fill (at least
# one group), so the block's buffers have one size whatever the table's
# width: 341 groups of six pairs (2,046 rows) in a sweep, 292 rows in an
# evolve of both engines.  Every block is assembled in one byte matrix, the
# same for every block, and written before the next is built, so the whole
# table never exists as text at once.
VALUE_BLOCK = 4096


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
    both, so 0.0 and -0.0, or NaNs of different payloads, stay apart.  Only
    slots with the same bits in some 16 groups spread over the arrays can
    repeat, and only those are compared throughout: one comparison per
    array for each slot that repeats, whatever the number of groups.
    """
    bits = [np.asarray(column, dtype=float).view(np.uint64) for column in columns]
    if bits[0].shape[1] == 1:  # a series: nothing to repeat
        return [0], [0]
    step = max(1, len(bits[0]) // 16)
    heads = np.concatenate([b[::step] for b in bits]).T.tolist()  # each slot's sampled bits
    first = [next(i for i in range(j + 1) if i == j or heads[i] == heads[j]
                  and all(np.array_equal(b[:, i], b[:, j]) for b in bits)) for j in range(len(heads))]
    distinct = [slot for slot, i in enumerate(first) if i == slot]
    return distinct, [distinct.index(i) for i in first]


def table_chunks(fmt, columns, shape, data, blocks):
    """The bytes of a table as uint8 chunks to write in turn, one per block of rows.

    Row r is the cell ``np.unravel_index(r, shape)`` of the table.  The
    last axis holds a group's slots (sweep's pairs), and a block holds
    whole groups, ``VALUE_BLOCK`` float values or one group.  ``data`` has
    one entry per column: None for a float column, or a pair
    ``(cells, key)`` of ready cells (``label_cells``, ``number_cells``)
    and the row of ``cells`` at each table cell: its index along the axis
    ``key``, or for a key of None an index that ``blocks`` gives.

    ``blocks`` yields the table's cells in order, in runs of whole groups:
    tuples of one array per float column (values reshaping to (groups,
    slots)) and per key of None (indices, groups x slots of them), in
    column order.  Each run is cut into blocks of its own, and they are
    written before the next run is drawn, so a block never takes rows of
    two runs and the runs may be buffers the producer reuses.  The first
    is drawn before the header is yielded: a producer that refuses its
    first run leaves no byte, and one that refuses a later run leaves
    every row of the runs before it.

    Each block is one byte matrix of the thread's workspace: a row holds
    the row's cells, each NUL-padded to its column's width (ready cells
    trimmed to their longest text), and the separators, and is written
    without its NUL bytes.  What every block shares goes in once: the
    separators and the ready cells of the slot axis.  Ready cells carry
    their separators and are gathered as byte rows: once per group for
    another axis, adjacent columns of one axis (sweep's t and Gt) as one
    table, and once per row for a key of None.  Adjacent float columns
    form a run that formats only the block's distinct slots, all runs of a
    block in one formatter call; a repeated slot copies the cells of its
    first copy.  Which slots repeat is decided once per run of ``blocks``
    (``distinct_slots``).  JSON has the bytes of ``json.dumps(...,
    indent=2)``.
    """
    n, slots = math.prod(shape), shape[-1]
    blocks = iter(blocks)
    drawn = next(blocks, None)  # before the first byte
    blocks = itertools.chain([] if drawn is None else [drawn], blocks)
    if fmt == "json":
        head = json.dumps(list(columns), indent=2).replace("\n", "\n  ")
        yield ('{\n  "columns": ' + head + ',\n  "rows": [').encode()
        # every row opens with ",\n"; the first row's comma is dropped
        opening, separator, closing = b",\n    [\n      ", b",\n      ", b"\n    ]"
    else:
        yield (",".join(columns) + "\n").encode()
        opening, separator, closing = b"", b",", b"\n"

    # the cells of each column start at its offset in the row; a run's
    # cells are WIDTH + len(separator) apart.  ``floats`` and ``by_cell``
    # name each streamed column's place in a run of ``blocks``.
    fixed, by_group, by_cell, runs, floats, offset = [], [], [], [], [], 0
    for i, col in enumerate(data):
        text = np.frombuffer(separator if i else opening, dtype=np.uint8)
        if col is None:
            fixed.append((offset, text))
            offset += text.size
            if i and data[i - 1] is None:
                runs[-1][2] += 1
            else:  # (offset, first float column, columns)
                runs.append([offset, len(floats), 1])
            floats.append(len(floats) + len(by_cell))
            offset += WIDTH
            continue
        table, key = col
        width = int(np.max(np.count_nonzero(table, axis=1)))
        table = np.hstack([np.broadcast_to(text, (len(table), text.size)), table[:, :width]])
        if key is None:
            by_cell.append((offset, table, len(floats) + len(by_cell)))
        elif key == len(shape) - 1:
            fixed.append((offset, table))
        elif by_group and by_group[-1][0] + by_group[-1][1].shape[1] == offset and by_group[-1][2] == key:
            by_group[-1][1] = np.hstack([by_group[-1][1], table])
        else:  # a group's index along the axis is (group // stride) % size
            by_group.append([offset, table, key, math.prod(shape[key + 1:-1])])
        offset += table.shape[1]
    fixed.append((offset, np.frombuffer(closing, dtype=np.uint8)))
    # NUL room after the closing for the stride of a run that ends the row
    row = np.zeros((slots, offset + max(len(closing), len(separator))), dtype=np.uint8)
    for at, cells in fixed:
        row[:, at:at + cells.shape[-1]] = cells
    work = thread_workspace()
    size = max(1, min(n // slots, VALUE_BLOCK // (max(1, len(floats)) * slots)))
    block = work.get("table.block", (size,) + row.shape, np.uint8)
    block[...] = row
    nonzero = work.get("table.nonzero", (size * slots, row.shape[1]), bool)
    # a block's distinct float values for the formatter, and their cells
    values = work.get("table.values", (len(floats) * size * slots,), float)
    numbers = work.get("table.numbers", values.shape + (WIDTH,), np.uint8)

    written = 0  # groups of the runs already written
    for drawn in blocks:  # a run of ``blocks``, cut into table blocks of its own
        floated = [np.reshape(drawn[at], (-1, slots)) for at in floats]
        have = len(floated[0])
        # a slot that repeats in the whole run repeats in any rows of it
        decided = [distinct_slots(floated[first:first + count]) for _, first, count in runs]
        for start in range(0, have, size):
            groups = np.arange(written + start, written + min(have, start + size))
            grouped = block[:groups.size]
            for offset, table, _, stride in by_group:
                cells = table.take(groups // stride, axis=0, mode="wrap")
                grouped[:, :, offset:offset + cells.shape[1]] = cells[:, None]
            chunk = grouped.reshape(groups.size * slots, -1)
            for offset, table, at in by_cell:
                keys = np.reshape(drawn[at], -1)[start * slots:start * slots + len(chunk)]
                chunk[:, offset:offset + table.shape[1]] = table.take(keys, axis=0)
            arrays = [column[start:start + groups.size] for column in floated]  # read in place
            # each run's distinct values as (column, group, distinct slot), for one formatter call
            parts, end = [], 0
            for (_, first, count), (distinct, _) in zip(runs, decided):
                part = values[end:end + count * groups.size * len(distinct)]
                part = part.reshape(count, groups.size, len(distinct))
                for array, out in zip(arrays[first:first + count], part):
                    np.take(array, distinct, axis=1, out=out, mode="clip")
                parts.append(part)
                end += part.size
            texts = number_cells(fmt, values[:end], out=numbers[:end])
            step = WIDTH + len(separator)
            done = 0
            for (offset, _, count), (_, where), part in zip(runs, decided, parts):
                formatted = texts[done:done + part.size].reshape(part.shape + (WIDTH,))
                formatted = formatted.transpose(1, 2, 0, 3)  # (group, distinct slot, column, text)
                dest = grouped[:, :, offset:offset + count * step]
                dest = dest.reshape(groups.size, slots, count, step)[..., :WIDTH]
                for slot, i in enumerate(where):
                    dest[:, slot] = formatted[:, i]
                done += part.size
            chunk = chunk[np.not_equal(chunk, 0, out=nonzero[:len(chunk)])]
            yield chunk[1:] if fmt == "json" and not groups[0] else chunk
        written += have
    if fmt == "json":
        yield (b"\n  ]" if n else b"]") + b"\n}\n"
